// Seeded input generation. The graphs come from the repository's data/
// generators and the query streams from data::GenerateWorkload with the
// Zipf skew the figure benches use. Generation runs before the program
// under test sees anything; generated graphs are cached on disk keyed by
// dataset, scale and seed, because generating one takes seconds.
#ifndef VKG_PERFBENCH_INPUTS_H_
#define VKG_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "data/dataset.h"
#include "data/workload.h"

namespace perfbench {

enum class DatasetKind { kFreebase, kAmazon };

struct Inputs {
  data::Dataset dataset;
  /// Time to generate (or load from the cache) — never part of setup_s.
  double prepare_seconds = 0.0;
  bool from_cache = false;
};

/// The scale-1 dataset of `kind` generated with `seed`, from the cache
/// when a valid copy exists (a corrupt or missing file is regenerated).
Inputs PrepareInputs(DatasetKind kind, uint64_t seed,
                     const std::string& cache_dir);

/// Zipf-skewed (exponent 1.1) stream of `n` queries over (anchor,
/// relation) pairs observed in the graph, half head and half tail
/// queries unless `only_relation` restricts it (then `tail_fraction`).
std::vector<data::Query> ZipfQueries(const data::Dataset& ds, size_t n,
                                     uint64_t seed,
                                     kg::RelationId only_relation =
                                         kg::kInvalidRelation,
                                     double tail_fraction = 0.5);

/// Prints the input make-up (sizes, generation time) as report notes.
void NoteInputs(const Inputs& inputs, Report& report);

}  // namespace perfbench

#endif  // VKG_PERFBENCH_INPUTS_H_
