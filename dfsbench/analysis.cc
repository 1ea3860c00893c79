#include "dfsbench/analysis.h"

#include <algorithm>
#include <tuple>
#include <unordered_map>

namespace dfsbench {
namespace {

double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

struct Interval {
  size_t op;  // index into the op list
  uint64_t start, end;
};

}  // namespace

SpanSummary Analyze(const Tracer& tracer, const std::vector<Span>& spans, uint64_t start_ns,
                    uint64_t cutoff_ns) {
  SpanSummary out;
  std::vector<bool> in(spans.size(), false);
  std::vector<uint64_t> child_ns(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    in[i] = s.end_ns != 0 && s.start_ns >= start_ns && s.end_ns <= cutoff_ns;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (in[i] && s.parent >= 0 && in[static_cast<size_t>(s.parent)]) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }

  // Client calls, per client, in start order (each client runs one at a time).
  std::vector<size_t> ops;
  std::unordered_map<uint32_t, std::vector<size_t>> ops_by_client;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (in[i] && spans[i].layer == Layer::kOp) {
      ops_by_client[spans[i].tag].push_back(ops.size());
      ops.push_back(i);
    }
  }
  for (auto& [client, list] : ops_by_client) {
    std::sort(list.begin(), list.end(), [&](size_t a, size_t b) {
      return spans[ops[a]].start_ns < spans[ops[b]].start_ns;
    });
  }

  std::vector<Interval> served;  // handler time inside each client call
  std::vector<uint32_t> rpcs(ops.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (!in[i]) {
      continue;
    }
    out.spans += 1;
    uint64_t dur = s.end_ns - s.start_ns;
    const std::string& name = tracer.NameOf(s.name);
    switch (s.layer) {
      case Layer::kOp:
        break;
      case Layer::kResolve:
        out.resolve_us.push_back(Us(dur));
        break;
      case Layer::kHandler: {
        out.by_name_us[name].push_back(Us(dur));
        out.calls[name] += 1;
        out.server_self_us += Us(dur - std::min(dur, child_ns[i]));
        auto it = ops_by_client.find(s.tag);
        bool attributed = false;
        if (it != ops_by_client.end()) {
          const std::vector<size_t>& list = it->second;
          // The last call of this client that started before the handler ended.
          auto pos = std::upper_bound(list.begin(), list.end(), s.end_ns,
                                      [&](uint64_t t, size_t op) {
                                        return t < spans[ops[op]].start_ns;
                                      });
          if (pos != list.begin()) {
            size_t op = *(pos - 1);
            const Span& o = spans[ops[op]];
            if (o.end_ns >= s.start_ns) {
              served.push_back(
                  {op, std::max(o.start_ns, s.start_ns), std::min(o.end_ns, s.end_ns)});
              rpcs[op] += 1;
              attributed = true;
            }
          }
        }
        if (!attributed) {
          out.background_calls += 1;
        }
        break;
      }
      case Layer::kEpisode:
        out.episode_calls += 1;
        out.by_name_us[name].push_back(Us(dur));
        out.episode_self_us += Us(dur - std::min(dur, child_ns[i]));
        break;
      case Layer::kDisk:
        out.by_name_us[name].push_back(Us(dur));
        out.disk_us += Us(dur);
        break;
    }
  }

  // Union of each call's handler intervals (parallel RPCs may overlap).
  std::sort(served.begin(), served.end(), [](const Interval& a, const Interval& b) {
    return std::tie(a.op, a.start) < std::tie(b.op, b.start);
  });
  std::vector<uint64_t> covered(ops.size(), 0);
  for (size_t i = 0; i < served.size();) {
    size_t op = served[i].op;
    uint64_t cur_start = served[i].start, cur_end = served[i].end;
    for (++i; i < served.size() && served[i].op == op; ++i) {
      if (served[i].start > cur_end) {
        covered[op] += cur_end - cur_start;
        cur_start = served[i].start;
      }
      cur_end = std::max(cur_end, served[i].end);
    }
    covered[op] += cur_end - cur_start;
  }
  for (size_t op = 0; op < ops.size(); ++op) {
    const Span& o = spans[ops[op]];
    uint64_t dur = o.end_ns - o.start_ns;
    uint64_t self = dur - std::min(dur, covered[op]);
    out.vnode_self_us += Us(self);
    if (rpcs[op] == 0) {
      out.hit_op_us.push_back(Us(dur));
    } else {
      out.miss_op_us.push_back(Us(dur));
      out.outside_per_rpc_us.push_back(Us(self) / rpcs[op]);
    }
  }
  return out;
}

}  // namespace dfsbench
