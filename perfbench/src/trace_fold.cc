#include "trace_fold.h"

#include <vector>

namespace perfbench {

void SpanFold::Add(const vkg::obs::Trace& trace) {
  const auto& spans = trace.spans();
  // Spans are stored in pre-order with their depth, so the direct
  // children of span i are the following spans one level deeper, up to
  // the next span at i's depth or shallower.
  std::vector<double> child_us(spans.size(), 0.0);
  std::vector<size_t> open;  // stack of ancestors of the current span
  for (size_t i = 0; i < spans.size(); ++i) {
    while (!open.empty() && spans[open.back()].depth >= spans[i].depth) {
      open.pop_back();
    }
    if (!open.empty()) child_us[open.back()] += spans[i].duration_us;
    open.push_back(i);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const vkg::obs::SpanRecord& span = spans[i];
    Totals& totals = spans_[span.name];
    totals.self_us += span.duration_us - child_us[i];
    totals.count += 1.0;
    for (const vkg::obs::SpanAttr& attr : span.attrs) {
      if (!attr.is_text) totals.attrs[attr.key] += attr.num;
    }
    if (span.depth == 0) root_us_ += span.duration_us;
  }
}

double SpanFold::SelfUs(const std::string& name) const {
  auto it = spans_.find(name);
  return it == spans_.end() ? 0.0 : it->second.self_us;
}

double SpanFold::Count(const std::string& name) const {
  auto it = spans_.find(name);
  return it == spans_.end() ? 0.0 : it->second.count;
}

double SpanFold::AttrSum(const std::string& name,
                         const std::string& key) const {
  auto it = spans_.find(name);
  if (it == spans_.end()) return 0.0;
  auto a = it->second.attrs.find(key);
  return a == it->second.attrs.end() ? 0.0 : a->second;
}

}  // namespace perfbench
