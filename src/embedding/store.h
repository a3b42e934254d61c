#ifndef VKG_EMBEDDING_STORE_H_
#define VKG_EMBEDDING_STORE_H_

#include <span>
#include <string>
#include <vector>

#include "kg/types.h"
#include "util/random.h"
#include "util/status.h"

namespace vkg::embedding {

/// Row-major storage for entity and relation embedding vectors in the
/// original embedding space S1 (dimensionality `dim`, typically 50-100).
///
/// This is the contract between the embedding algorithm A (trained here or
/// loaded from an external file) and the index/query layers, which only
/// consume the point cloud.
class EmbeddingStore {
 public:
  EmbeddingStore() = default;
  EmbeddingStore(size_t num_entities, size_t num_relations, size_t dim);

  size_t num_entities() const { return num_entities_; }
  size_t num_relations() const { return num_relations_; }
  size_t dim() const { return dim_; }

  std::span<float> Entity(kg::EntityId e) {
    return {entities_.data() + static_cast<size_t>(e) * dim_, dim_};
  }
  std::span<const float> Entity(kg::EntityId e) const {
    return {entities_.data() + static_cast<size_t>(e) * dim_, dim_};
  }
  std::span<float> Relation(kg::RelationId r) {
    return {relations_.data() + static_cast<size_t>(r) * dim_, dim_};
  }
  std::span<const float> Relation(kg::RelationId r) const {
    return {relations_.data() + static_cast<size_t>(r) * dim_, dim_};
  }

  /// Fills every vector with i.i.d. Uniform(-6/sqrt(dim), 6/sqrt(dim))
  /// values (the TransE initialization), then L2-normalizes entities.
  void RandomInitialize(util::Rng& rng);

  /// The query center h + r (tail queries) or t - r (head queries) in S1.
  std::vector<float> QueryCenter(kg::EntityId anchor, kg::RelationId r,
                                 kg::Direction direction) const;
  /// Same, written into caller scratch (`out.size() == dim()`): the
  /// engines' arena path, no allocation here.
  void QueryCenterInto(kg::EntityId anchor, kg::RelationId r,
                       kg::Direction direction, std::span<float> out) const;

  /// Binary persistence (magic + dims + raw float payload, checksummed).
  /// Save writes the v1 "VKGE" format. Load also accepts v2 "VKGP"
  /// files, whose one extra header field (a padded dim) is validated
  /// and otherwise ignored: the payload is the same row-major block.
  util::Status Save(const std::string& path) const;
  static util::Result<EmbeddingStore> Load(const std::string& path);

  size_t MemoryBytes() const {
    return (entities_.capacity() + relations_.capacity()) * sizeof(float);
  }

 private:
  size_t num_entities_ = 0;
  size_t num_relations_ = 0;
  size_t dim_ = 0;
  std::vector<float> entities_;
  std::vector<float> relations_;
};

}  // namespace vkg::embedding

#endif  // VKG_EMBEDDING_STORE_H_
