// Cross-variant and cross-entry-point bit-identity of the distance
// kernels.
//
// Every kernel variant (portable, AVX2, AVX-512, NEON — whatever this
// binary compiled in and this CPU can run) implements one canonical
// 16-lane accumulation contract (src/embedding/kernels_internal.h), so:
//
//   * every runnable variant returns the same BITS for the same row,
//   * raw rows, a contiguous store range and a gather over the store
//     return the same BITS through any one variant,
//
// across every dim in [3, 257] (remainders and exact multiples).
// Seeded from VKG_PROPERTY_SEED like the other property suites.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "embedding/batch_kernels.h"
#include "embedding/store.h"
#include "util/cpu.h"

namespace vkg::embedding {
namespace {

uint64_t PropertySeed() {
  uint64_t seed;
  if (const char* env = std::getenv("VKG_PROPERTY_SEED");
      env != nullptr && env[0] != '\0') {
    seed = std::strtoull(env, nullptr, 10);
  } else {
    seed = std::random_device{}();
  }
  std::printf("[ SEED     ] VKG_PROPERTY_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  return seed;
}

// A store whose entities are the given row-major rows (relations
// unused), built through the mutable span accessor.
EmbeddingStore MakeStore(const std::vector<float>& rows, size_t n,
                         size_t dim) {
  EmbeddingStore store(n, 1, dim);
  for (size_t e = 0; e < n; ++e) {
    std::memcpy(store.Entity(static_cast<uint32_t>(e)).data(),
                rows.data() + e * dim, dim * sizeof(float));
  }
  return store;
}

TEST(KernelVariantsTest, NamesRoundTrip) {
  for (KernelVariant v : {KernelVariant::kPortable, KernelVariant::kAvx2,
                          KernelVariant::kAvx512, KernelVariant::kNeon}) {
    KernelVariant parsed;
    ASSERT_TRUE(KernelVariantFromName(KernelVariantName(v), &parsed));
    EXPECT_EQ(parsed, v);
  }
  KernelVariant out;
  EXPECT_FALSE(KernelVariantFromName("", &out));
  // No SVE kernel exists, so VKG_KERNEL=sve fails as an unknown name.
  EXPECT_FALSE(KernelVariantFromName("sve", &out));
  EXPECT_FALSE(KernelVariantFromName("avx-512", &out));
  EXPECT_FALSE(KernelVariantFromName("PORTABLE", &out));
}

TEST(KernelVariantsTest, DispatchPicksARunnableVariant) {
  const std::vector<KernelVariant> runnable = RunnableKernelVariants();
  ASSERT_FALSE(runnable.empty());
  // Portable always runs, everywhere.
  EXPECT_EQ(runnable.front(), KernelVariant::kPortable);
  const KernelVariant picked = DispatchedKernelVariant();
  EXPECT_NE(std::find(runnable.begin(), runnable.end(), picked),
            runnable.end())
      << "dispatched " << DispatchedKernelName();
  // When CI forces a variant via VKG_KERNEL, the dispatch must honor it
  // — this is what makes the forced matrix runs meaningful.
  if (const char* forced = std::getenv("VKG_KERNEL");
      forced != nullptr && forced[0] != '\0') {
    EXPECT_EQ(DispatchedKernelName(), std::string_view(forced));
  }
}

// Same bits from every variant and every entry point.
TEST(KernelVariantsTest, CrossVariantCrossLayoutBitIdentity) {
  std::mt19937_64 rng(PropertySeed());
  std::uniform_real_distribution<float> value(-2.0f, 2.0f);
  std::uniform_int_distribution<size_t> random_dim(3, 257);

  const std::vector<KernelVariant> runnable = RunnableKernelVariants();
  ASSERT_FALSE(runnable.empty());

  // Boundary dims (tail lengths 0/1/15 around the 16-lane block) plus
  // a few random draws.
  std::vector<size_t> dims = {3,  4,  15, 16, 17,  31,  32, 33,
                              63, 64, 65, 100, 127, 128, 129, 257};
  for (int i = 0; i < 4; ++i) dims.push_back(random_dim(rng));

  for (size_t dim : dims) {
    SCOPED_TRACE(testing::Message() << "dim=" << dim);
    const size_t n = 57;  // not a multiple of anything interesting
    std::vector<float> rows(n * dim);
    std::vector<float> q(dim);
    for (float& v : rows) v = value(rng);
    for (float& v : q) v = value(rng);
    const EmbeddingStore store = MakeStore(rows, n, dim);

    std::vector<uint32_t> ids(n);
    for (size_t e = 0; e < n; ++e) ids[e] = static_cast<uint32_t>(e);

    // Reference: portable over raw row-major rows.
    std::vector<double> reference(n);
    BatchL2DistanceSquaredVariant(KernelVariant::kPortable, q, rows.data(), n,
                                  reference.data());

    std::vector<double> got(n);
    for (KernelVariant v : runnable) {
      SCOPED_TRACE(testing::Message()
                   << "variant=" << KernelVariantName(v));
      // Raw rows.
      BatchL2DistanceSquaredVariant(v, q, rows.data(), n, got.data());
      ASSERT_EQ(0,
                std::memcmp(got.data(), reference.data(), n * sizeof(double)))
          << "raw-row bits differ from portable";
      // The store's row-major entity block.
      BatchL2DistanceSquaredVariant(v, q, store.Entity(0).data(), n,
                                    got.data());
      ASSERT_EQ(0,
                std::memcmp(got.data(), reference.data(), n * sizeof(double)))
          << "store-range bits differ from portable raw rows";
      // Gather.
      GatherL2DistanceSquaredVariant(v, q, store, ids, got.data());
      ASSERT_EQ(0,
                std::memcmp(got.data(), reference.data(), n * sizeof(double)))
          << "gather bits differ from portable row-major";
    }

    // And the process-dispatched entry points agree too, from any
    // first id of the store range.
    BatchL2DistanceSquared(q, store, 0, n, got.data());
    ASSERT_EQ(0,
              std::memcmp(got.data(), reference.data(), n * sizeof(double)));
    const uint32_t first = 5;
    BatchL2DistanceSquared(q, store, first, n - first, got.data());
    ASSERT_EQ(0, std::memcmp(got.data(), reference.data() + first,
                             (n - first) * sizeof(double)));
    GatherL2DistanceSquared(q, store, ids, got.data());
    ASSERT_EQ(0,
              std::memcmp(got.data(), reference.data(), n * sizeof(double)));
  }
}

TEST(KernelVariantsTest, CpuProbeIsConsistentWithRunnableSet) {
  const util::CpuFeatures& cpu = util::CpuInfo();
  const std::vector<KernelVariant> runnable = RunnableKernelVariants();
  const auto has = [&runnable](KernelVariant v) {
    return std::find(runnable.begin(), runnable.end(), v) != runnable.end();
  };
  // The runnable set is exactly what the probe allows; a reported
  // feature without a kernel (cpu.sve) adds nothing.
#if defined(__x86_64__)
  EXPECT_EQ(has(KernelVariant::kAvx2), cpu.avx2);
  EXPECT_EQ(has(KernelVariant::kAvx512), cpu.avx512f);
  EXPECT_FALSE(has(KernelVariant::kNeon));
  EXPECT_EQ(runnable.size(), size_t{1} + cpu.avx2 + cpu.avx512f);
#elif defined(__aarch64__)
  EXPECT_TRUE(cpu.neon);
  EXPECT_TRUE(has(KernelVariant::kNeon));
  EXPECT_FALSE(has(KernelVariant::kAvx2));
  EXPECT_FALSE(has(KernelVariant::kAvx512));
  EXPECT_EQ(runnable.size(), 2u);
#endif
  EXPECT_FALSE(util::CpuFeatureString().empty());
}

}  // namespace
}  // namespace vkg::embedding
