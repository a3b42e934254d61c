// Unit tests for the util module: Status/Result, RNG, math, strings,
// CSV, binary serialization, and the thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>

#include "util/arena.h"
#include "util/csv.h"
#include "util/failpoint.h"
#include "util/math_util.h"
#include "util/random.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace vkg::util {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// --- Status / Result -------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= 8; ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r(Status::OK());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Status FailingFn() { return Status::IoError("disk on fire"); }
Status PropagatingFn() {
  VKG_RETURN_IF_ERROR(FailingFn());
  return Status::OK();
}
Result<int> ProducingFn(bool fail) {
  if (fail) return Status::NotFound("nope");
  return 7;
}
Status ConsumingFn(bool fail, int* out) {
  VKG_ASSIGN_OR_RETURN(int v, ProducingFn(fail));
  *out = v;
  return Status::OK();
}

TEST(ResultTest, Macros) {
  EXPECT_EQ(PropagatingFn().code(), StatusCode::kIoError);
  int out = 0;
  EXPECT_TRUE(ConsumingFn(false, &out).ok());
  EXPECT_EQ(out, 7);
  EXPECT_EQ(ConsumingFn(true, &out).code(), StatusCode::kNotFound);
}

// --- Rng -------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(2);
  std::vector<double> xs(20000);
  for (double& x : xs) x = rng.Gaussian();
  SummaryStats s = Summarize(xs);
  EXPECT_NEAR(s.mean, 0.0, 0.05);
  EXPECT_NEAR(s.variance, 1.0, 0.1);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(3);
  auto sample = rng.SampleWithoutReplacement(100, 40);
  EXPECT_EQ(sample.size(), 40u);
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(std::unique(sample.begin(), sample.end()), sample.end());
  for (size_t v : sample) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleWholeRange) {
  Rng rng(4);
  auto sample = rng.SampleWithoutReplacement(10, 10);
  std::sort(sample.begin(), sample.end());
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// --- math_util --------------------------------------------------------------

TEST(MathTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(0, 4), 0u);
  EXPECT_EQ(CeilDiv(1, 4), 1u);
  EXPECT_EQ(CeilDiv(4, 4), 1u);
  EXPECT_EQ(CeilDiv(5, 4), 2u);
}

TEST(MathTest, SummarizeAndPercentile) {
  std::vector<double> v{1, 2, 3, 4, 5};
  SummaryStats s = Summarize(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.variance, 2.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
}

TEST(MathTest, EmptyInputsAreSafe) {
  EXPECT_EQ(Summarize({}).count, 0u);
  EXPECT_EQ(Percentile({}, 50), 0.0);
  EXPECT_EQ(Mean({}), 0.0);
}

// --- string_util -------------------------------------------------------------

TEST(StringTest, Split) {
  auto parts = StrSplit("a\tb\t\tc", '\t');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringTest, JoinAndStrip) {
  EXPECT_EQ(StrJoin({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StringTest, Parse) {
  double d = 0;
  int64_t i = 0;
  EXPECT_TRUE(ParseDouble("3.25", &d));
  EXPECT_DOUBLE_EQ(d, 3.25);
  EXPECT_FALSE(ParseDouble("3.25x", &d));
  EXPECT_FALSE(ParseDouble("", &d));
  EXPECT_TRUE(ParseInt64("-17", &i));
  EXPECT_EQ(i, -17);
  EXPECT_FALSE(ParseInt64("1.5", &i));
}

TEST(StringTest, FormatAndBytes) {
  EXPECT_EQ(StrFormat("%d-%s", 4, "x"), "4-x");
  EXPECT_EQ(HumanBytes(512), "512.00 B");
  EXPECT_EQ(HumanBytes(1536), "1.50 KiB");
}

// --- csv ----------------------------------------------------------------------

TEST(CsvTest, RoundTrip) {
  std::string path = TempPath("vkg_csv_test.tsv");
  {
    DelimitedWriter w(path, '\t');
    ASSERT_TRUE(w.status().ok());
    ASSERT_TRUE(w.WriteRow({"a", "b", "c"}).ok());
    ASSERT_TRUE(w.WriteRow({"1", "2", "3"}).ok());
    ASSERT_TRUE(w.Close().ok());
  }
  std::vector<std::vector<std::string>> rows;
  Status s = ForEachDelimitedRow(
      path, '\t', [&](size_t, const std::vector<std::string_view>& fields) {
        rows.emplace_back(fields.begin(), fields.end());
        return Status::OK();
      });
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][2], "3");
  std::remove(path.c_str());
}

TEST(CsvTest, SkipsCommentsAndEmptyLines) {
  std::string path = TempPath("vkg_csv_comments.tsv");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("# header\n\nx\ty\n", f);
    std::fclose(f);
  }
  size_t count = 0;
  ASSERT_TRUE(ForEachDelimitedRow(path, '\t',
                                  [&](size_t, const auto&) {
                                    ++count;
                                    return Status::OK();
                                  })
                  .ok());
  EXPECT_EQ(count, 1u);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsIoError) {
  Status s = ForEachDelimitedRow("/nonexistent/path.tsv", '\t',
                                 [](size_t, const auto&) {
                                   return Status::OK();
                                 });
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(CsvTest, CallbackErrorAborts) {
  std::string path = TempPath("vkg_csv_abort.tsv");
  {
    DelimitedWriter w(path, '\t');
    (void)w.WriteRow({"1"});
    (void)w.WriteRow({"2"});
    (void)w.Close();
  }
  size_t seen = 0;
  Status s = ForEachDelimitedRow(path, '\t', [&](size_t, const auto&) {
    ++seen;
    return Status::InvalidArgument("stop");
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(seen, 1u);
  std::remove(path.c_str());
}

// --- serialize ------------------------------------------------------------------

TEST(SerializeTest, RoundTrip) {
  std::string path = TempPath("vkg_bin_test.bin");
  {
    BinaryWriter w(path);
    ASSERT_TRUE(w.status().ok());
    w.WriteU32(0xdeadbeef);
    w.WriteU64(1234567890123ULL);
    w.WriteF32(1.5f);
    w.WriteF64(-2.25);
    w.WriteString("hello");
    w.WriteF32Array({1.0f, 2.0f, 3.0f});
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r(path);
  ASSERT_TRUE(r.status().ok());
  EXPECT_EQ(r.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadU64(), 1234567890123ULL);
  EXPECT_EQ(r.ReadF32(), 1.5f);
  EXPECT_EQ(r.ReadF64(), -2.25);
  EXPECT_EQ(r.ReadString(), "hello");
  EXPECT_EQ(r.ReadF32Array(), (std::vector<float>{1.0f, 2.0f, 3.0f}));
  EXPECT_TRUE(r.status().ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, ShortReadIsError) {
  std::string path = TempPath("vkg_bin_short.bin");
  {
    BinaryWriter w(path);
    w.WriteU32(1);
    (void)w.Close();
  }
  BinaryReader r(path);
  r.ReadU64();  // longer than the file
  EXPECT_FALSE(r.status().ok());
  std::remove(path.c_str());
}

// A writer destroyed without Close() commits nothing: the destination
// keeps its previous bytes and no temp file is left behind.
TEST(SerializeTest, AbandonedWriterLeavesDestinationUntouched) {
  std::string path = TempPath("vkg_bin_abandoned.bin");
  {
    BinaryWriter w(path);
    w.WriteU32(7);
    ASSERT_TRUE(w.Close().ok());
  }
  {
    BinaryWriter w(path);
    w.WriteU32(8);
    w.WriteU64(9);
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  BinaryReader r(path);
  EXPECT_EQ(r.ReadU32(), 7u);
  EXPECT_EQ(r.Remaining(), 0u);
  std::remove(path.c_str());
}

// --- thread pool -----------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

// --- timer -------------------------------------------------------------------------

TEST(TimerTest, MeasuresElapsed) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), t.ElapsedSeconds());
}

TEST(TimerTest, AccumulatingTimer) {
  AccumulatingTimer t;
  t.Start();
  t.Stop();
  t.Start();
  t.Stop();
  EXPECT_GE(t.TotalSeconds(), 0.0);
  t.Reset();
  EXPECT_EQ(t.TotalSeconds(), 0.0);
}

// --- arena -------------------------------------------------------------------------

TEST(ArenaTest, AllocationsAreCacheLineAligned) {
  Arena arena;
  for (size_t bytes : {1u, 7u, 63u, 64u, 65u, 4096u}) {
    void* p = arena.Allocate(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % Arena::kAlignment, 0u)
        << "bytes=" << bytes;
  }
  // Spans inherit the alignment and don't overlap.
  std::span<double> a = arena.AllocateSpan<double>(10);
  std::span<double> b = arena.AllocateSpan<double>(10);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a.data()) % Arena::kAlignment, 0u);
  for (size_t i = 0; i < 10; ++i) a[i] = 1.0;
  for (size_t i = 0; i < 10; ++i) b[i] = 2.0;
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(a[i], 1.0);
  EXPECT_TRUE(arena.AllocateSpan<float>(0).empty());
}

TEST(ArenaTest, ResetReusesTheLargestBlock) {
  Arena arena;
  // Force growth past the first block, then some.
  arena.Allocate(Arena::kMinBlockBytes);
  arena.Allocate(4 * Arena::kMinBlockBytes);
  const size_t reserved_before = arena.bytes_reserved();
  EXPECT_GT(arena.bytes_used(), 0u);

  arena.Reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  // Only the largest block survives, and steady-state allocations out
  // of it are malloc-free: reserved bytes stay put.
  EXPECT_LE(arena.bytes_reserved(), reserved_before);
  const size_t reserved_after = arena.bytes_reserved();
  arena.Allocate(Arena::kMinBlockBytes);
  EXPECT_EQ(arena.bytes_reserved(), reserved_after);
  EXPECT_GE(arena.high_water_bytes(), 5u * Arena::kMinBlockBytes);
}

TEST(ArenaTest, GlobalStatsTrackLiveArenas) {
  const Arena::GlobalStats before = Arena::GetGlobalStats();
  {
    Arena arena;
    arena.Allocate(128);
    const Arena::GlobalStats during = Arena::GetGlobalStats();
    EXPECT_EQ(during.arenas, before.arenas + 1);
    EXPECT_GE(during.reserved_bytes,
              before.reserved_bytes + Arena::kMinBlockBytes);
    EXPECT_GT(during.blocks_allocated, before.blocks_allocated);
  }
  const Arena::GlobalStats after = Arena::GetGlobalStats();
  EXPECT_EQ(after.arenas, before.arenas);
  EXPECT_EQ(after.reserved_bytes, before.reserved_bytes);
}

TEST(ArenaTest, ArenaVectorGrowsInArena) {
  Arena arena;
  ArenaVector<uint32_t> v{ArenaAllocator<uint32_t>(&arena)};
  for (uint32_t i = 0; i < 1000; ++i) v.push_back(i);
  for (uint32_t i = 0; i < 1000; ++i) ASSERT_EQ(v[i], i);
  EXPECT_GE(arena.bytes_used(), 1000 * sizeof(uint32_t));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % alignof(uint32_t), 0u);
}

TEST(ArenaTest, BlockGrowthFailpointThrowsBadAlloc) {
  Arena arena;  // fresh arena: first Allocate must take the slow path
  ASSERT_TRUE(FailPointRegistry::Instance()
                  .ConfigureSite("alloc.arena", "1*fail")
                  .ok());
  EXPECT_THROW(arena.Allocate(64), std::bad_alloc);
  FailPointRegistry::Instance().Clear();
  // Disarmed, the same arena recovers.
  EXPECT_NE(arena.Allocate(64), nullptr);
}

}  // namespace
}  // namespace vkg::util
