// Turns the traced run's spans into per-layer times.
//
// Parents on one thread come from nesting. Across threads, a server handler
// span belongs to the foreground operation of its calling client that
// overlaps it in time; a handler that overlaps none is background work
// (prefetch or write-behind). A span's self time is its duration minus the
// part its children cover.
#ifndef DFSBENCH_ANALYSIS_H_
#define DFSBENCH_ANALYSIS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dfsbench/trace.h"

namespace dfsbench {

struct SpanSummary {
  // Durations in microseconds.
  std::vector<double> hit_op_us;   // client calls that no handler served
  std::vector<double> miss_op_us;  // client calls that sent at least one RPC
  std::vector<double> resolve_us;
  // Per client call that sent RPCs: time not covered by its handlers, per RPC.
  std::vector<double> outside_per_rpc_us;
  std::map<std::string, std::vector<double>> by_name_us;  // handler, Episode, disk spans
  std::map<std::string, uint64_t> calls;                   // handler spans by name
  uint64_t background_calls = 0;
  uint64_t episode_calls = 0;
  // Summed self times, microseconds.
  double vnode_self_us = 0;
  double server_self_us = 0;
  double episode_self_us = 0;
  double disk_us = 0;
  uint64_t spans = 0;  // spans in the window
};

// Summarises the spans that started at or after `start_ns` and ended by
// `cutoff_ns`.
SpanSummary Analyze(const Tracer& tracer, const std::vector<Span>& spans, uint64_t start_ns,
                    uint64_t cutoff_ns);

// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty. Reorders v.
template <typename T>
double Quantile(std::vector<T>& v, double q) {
  if (v.empty()) {
    return 0;
  }
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo), v.end());
  double a = static_cast<double>(v[lo]);
  if (lo + 1 >= v.size()) {
    return a;
  }
  double b = static_cast<double>(
      *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(lo) + 1, v.end()));
  return a + (b - a) * (pos - static_cast<double>(lo));
}

}  // namespace dfsbench

#endif  // DFSBENCH_ANALYSIS_H_
