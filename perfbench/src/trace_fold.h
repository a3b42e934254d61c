// Folds the program's obs::Trace span trees into per-span self times:
// a span's duration minus the part of it its direct child spans cover.
#ifndef VKG_PERFBENCH_TRACE_FOLD_H_
#define VKG_PERFBENCH_TRACE_FOLD_H_

#include <map>
#include <string>

#include "obs/trace.h"

namespace perfbench {

class SpanFold {
 public:
  /// Adds every span of one finished query trace.
  void Add(const vkg::obs::Trace& trace);

  /// Total self time of all spans called `name`, in microseconds.
  double SelfUs(const std::string& name) const;
  /// Number of spans called `name`.
  double Count(const std::string& name) const;
  /// Sum of the numeric attribute `key` over spans called `name`.
  double AttrSum(const std::string& name, const std::string& key) const;
  /// Total duration of the top-level spans (depth 0) of all traces.
  double RootUs() const { return root_us_; }

 private:
  struct Totals {
    double self_us = 0.0;
    double count = 0.0;
    std::map<std::string, double> attrs;
  };
  std::map<std::string, Totals> spans_;
  double root_us_ = 0.0;
};

}  // namespace perfbench

#endif  // VKG_PERFBENCH_TRACE_FOLD_H_
