// Shared plumbing of the benchmark: command-line arguments, timing,
// percentiles, and the report that prints every metric by name with its
// unit and ends with the one-line JSON result.
#ifndef VKG_PERFBENCH_COMMON_H_
#define VKG_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace vkg {
namespace data {}
namespace kg {}
namespace query {}
}  // namespace vkg

namespace perfbench {

namespace data = vkg::data;
namespace kg = vkg::kg;
namespace query = vkg::query;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for cached generated inputs (created on demand).
  std::string cache_dir = ".bench_cache";
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MicrosSince(Clock::time_point start) {
  return SecondsSince(start) * 1e6;
}

/// CPU time of the calling thread. The facade does all its work on the
/// caller's thread, so this is an operation's cost without the time a
/// shared VM's vCPU was stolen or the thread was preempted (README.md,
/// "Noise").
double ThreadCpuSeconds();

/// Nearest-rank percentile (p in [0, 1]) of a copy of `samples`; 0 for
/// an empty set.
double Percentile(std::vector<double> samples, double p);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}
double Mean(const std::vector<double>& samples);

/// Collects one run's figures. Metrics go into the final JSON line;
/// notes are printed only (workload-specific figures, input sizes,
/// operation tallies), so every number a run saw is on its stdout.
class Report {
 public:
  /// A metric of the final JSON object (end-to-end in an untraced run,
  /// per-layer in a traced one).
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A figure printed as a line but kept out of the JSON object.
  void Note(const std::string& name, double value, const std::string& unit);
  /// Operations of one type: attempted and failed (an exception or an
  /// error status from the program).
  void Ops(const std::string& type, uint64_t attempted, uint64_t failed);
  /// Records a correctness violation; the run reports correct=false.
  void Violation(const std::string& what);
  bool correct() const { return violations_ == 0; }

  /// Prints notes, metrics (per-layer ones with the end-to-end metric
  /// they should move), tallies, and last the JSON line.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<Entry> notes_;
  struct Tally {
    std::string type;
    uint64_t attempted;
    uint64_t failed;
  };
  std::vector<Tally> tallies_;
  uint64_t violations_ = 0;
};

/// Seeded 64-bit mixing (splitmix64), for deriving sub-seeds.
uint64_t Mix(uint64_t x);

}  // namespace perfbench

#endif  // VKG_PERFBENCH_COMMON_H_
