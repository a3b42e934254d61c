#ifndef VKG_QUERY_EXCLUSION_H_
#define VKG_QUERY_EXCLUSION_H_

#include <algorithm>
#include <cstdint>
#include <span>

#include "data/workload.h"
#include "kg/graph.h"

namespace vkg::query {

/// The entities a query over E' must not return (Section II): the anchor
/// itself and the entities already linked to it by the query relation
/// in E. Built in O(1) from the graph's sorted neighbour group, so a
/// query pays O(deg_r(anchor)) for its exclusions instead of one triple
/// hash probe per candidate. Borrows the graph's storage: valid while
/// the graph is not mutated.
class Exclusion {
 public:
  Exclusion(const kg::KnowledgeGraph& graph, const data::Query& query)
      : anchor_(query.anchor),
        known_(graph.Neighbors(query.anchor, query.relation,
                               query.direction)) {}

  /// True iff `e` is the anchor or a known neighbour (binary search).
  bool Contains(kg::EntityId e) const {
    return e == anchor_ || std::binary_search(known_.begin(), known_.end(), e);
  }

  /// Marks every excluded entity as visited under `stamp`, so an engine
  /// that already deduplicates candidates by visit stamp skips the
  /// exclusions with the same test. Ids outside `stamps` are ignored.
  void StampInto(std::span<uint32_t> stamps, uint32_t stamp) const {
    if (anchor_ < stamps.size()) stamps[anchor_] = stamp;
    for (kg::EntityId e : known_) {
      if (e < stamps.size()) stamps[e] = stamp;
    }
  }

  /// The known neighbours, ascending by id (excludes the anchor unless
  /// it has a self-loop under the relation).
  std::span<const kg::EntityId> known() const { return known_; }

 private:
  kg::EntityId anchor_;
  std::span<const kg::EntityId> known_;
};

}  // namespace vkg::query

#endif  // VKG_QUERY_EXCLUSION_H_
