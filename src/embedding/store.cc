#include "embedding/store.h"

#include <cmath>

#include "embedding/vector_ops.h"
#include "util/check.h"
#include "util/serialize.h"

namespace vkg::embedding {

namespace {
constexpr uint32_t kMagic = 0x564b4745;        // "VKGE" (v1)
constexpr uint32_t kMagicPadded = 0x564b4750;  // "VKGP" (v2, + padded dim)

// v2 files, written by releases that kept a padded copy of the entity
// rows, record dim rounded up to a multiple of 16 floats.
size_t PaddedDimFor(size_t dim) { return (dim + 15) / 16 * 16; }
}  // namespace

EmbeddingStore::EmbeddingStore(size_t num_entities, size_t num_relations,
                               size_t dim)
    : num_entities_(num_entities),
      num_relations_(num_relations),
      dim_(dim),
      entities_(num_entities * dim, 0.0f),
      relations_(num_relations * dim, 0.0f) {
  VKG_CHECK(dim > 0);
}

void EmbeddingStore::RandomInitialize(util::Rng& rng) {
  const double bound = 6.0 / std::sqrt(static_cast<double>(dim_));
  for (float& v : entities_) {
    v = static_cast<float>(rng.Uniform(-bound, bound));
  }
  for (float& v : relations_) {
    v = static_cast<float>(rng.Uniform(-bound, bound));
  }
  for (size_t e = 0; e < num_entities_; ++e) {
    NormalizeL2(Entity(static_cast<kg::EntityId>(e)));
  }
}

std::vector<float> EmbeddingStore::QueryCenter(kg::EntityId anchor,
                                               kg::RelationId r,
                                               kg::Direction direction) const {
  std::vector<float> q(dim_);
  QueryCenterInto(anchor, r, direction, q);
  return q;
}

void EmbeddingStore::QueryCenterInto(kg::EntityId anchor, kg::RelationId r,
                                     kg::Direction direction,
                                     std::span<float> out) const {
  VKG_CHECK(anchor < num_entities_);
  VKG_CHECK(r < num_relations_);
  VKG_CHECK(out.size() == dim_);
  if (direction == kg::Direction::kTail) {
    Add(Entity(anchor), Relation(r), out);
  } else {
    Sub(Entity(anchor), Relation(r), out);
  }
}

util::Status EmbeddingStore::Save(const std::string& path) const {
  util::BinaryWriter w(path);
  VKG_RETURN_IF_ERROR(w.status());
  w.WriteU32(kMagic);
  w.WriteU64(num_entities_);
  w.WriteU64(num_relations_);
  w.WriteU64(dim_);
  w.WriteF32Array(entities_);
  w.WriteF32Array(relations_);
  w.WriteChecksum();
  return w.Close();
}

util::Result<EmbeddingStore> EmbeddingStore::Load(const std::string& path) {
  util::BinaryReader r(path);
  VKG_RETURN_IF_ERROR(r.status());
  const uint32_t magic = r.ReadU32();
  if (magic != kMagic && magic != kMagicPadded) {
    return util::Status::InvalidArgument("bad embedding file magic: " + path);
  }
  uint64_t ne = r.ReadU64();
  uint64_t nr = r.ReadU64();
  uint64_t dim = r.ReadU64();
  uint64_t padded_dim = 0;
  if (magic == kMagicPadded) padded_dim = r.ReadU64();
  if (!r.status().ok()) return r.status();
  if (dim == 0) {
    return util::Status::InvalidArgument("zero embedding dim in " + path);
  }
  // The padded dim is derivable from dim; a header that disagrees is
  // corruption, not a different layout. Past that check it is unused.
  if (magic == kMagicPadded && padded_dim != PaddedDimFor(dim)) {
    return util::Status::DataLoss("corrupt padded dim in " + path);
  }
  // A flipped count byte must not become a giant allocation: the arrays
  // that follow cannot hold more floats than bytes remain in the file.
  const uint64_t max_floats = r.Remaining() / sizeof(float);
  if (ne > max_floats / dim || nr > max_floats / dim) {
    return util::Status::DataLoss("corrupt embedding counts in " + path);
  }
  EmbeddingStore store(ne, nr, dim);
  store.entities_ = r.ReadF32Array();
  store.relations_ = r.ReadF32Array();
  VKG_RETURN_IF_ERROR(r.status());
  if (store.entities_.size() != ne * dim ||
      store.relations_.size() != nr * dim) {
    return util::Status::InvalidArgument("truncated embedding file " + path);
  }
  r.VerifyChecksum();
  VKG_RETURN_IF_ERROR(r.status());
  return store;
}

}  // namespace vkg::embedding
