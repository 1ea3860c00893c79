// The DFS benchmark: one closed-loop workload over the whole stack in one
// process, end to end (--trace 0) or layer by layer (--trace 1).
//
//   dfsbench --workload <hot_read|shared_write|stream> --seed <n> --seconds <s>
//            --trace <0|1> [--trace-out <file.csv>]
//
// --trace 0 sets the deployment up kSetups times (the median is setup_s), runs
// the timed phase on the last one, and reports the end-to-end metrics.
// --trace 1 splits the seconds between an untraced phase, for the per-layer
// counts (the public Stats of each module, read at both ends of the timed
// phase), and a traced phase on a fresh deployment, for the per-layer times;
// the difference in ops_per_s between the two is the tracing overhead.
//
// Both read every written file back through a fresh client and check all
// contents (checker.h). Report lines go to stdout first; the last line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/prctl.h>

#include "dfsbench/analysis.h"
#include "dfsbench/checker.h"
#include "dfsbench/rig.h"
#include "dfsbench/trace.h"
#include "dfsbench/workloads.h"

namespace dfsbench {
namespace {

constexpr size_t kTraceCapacity = 2'000'000;
constexpr int kSetups = 5;
constexpr size_t kMinSamplesForP99 = 1000;  // ten samples beyond the 99th percentile

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(v);
    } else if (key == "--trace") {
      a->trace = std::atoi(v);
    } else if (key == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

uint64_t ClientSeed(uint64_t seed, int index) {
  return dfs::Rng(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(index) + 1).Next();
}

// A set-up deployment. Declaration order is teardown order reversed: client
// contexts and the workload hold vnodes of the rig's clients.
struct Deployment {
  std::unique_ptr<Rig> rig;
  std::unique_ptr<Workload> wl;
  std::vector<std::unique_ptr<ClientCtx>> clients;
  Checker chk;
  Checker errors;
  OpNames names;
  double setup_s = 0;

  std::vector<dfs::CacheManager*> cms() const {
    std::vector<dfs::CacheManager*> out;
    for (const auto& c : clients) {
      out.push_back(c->cm);
    }
    return out;
  }
};

// Format, export, populate and warm.
std::unique_ptr<Deployment> SetUp(const Args& args, Tracer* tracer, std::string* error) {
  auto d = std::make_unique<Deployment>();
  uint64_t t0 = NowNs();
  d->wl = MakeWorkload(args.workload, args.seed);
  if (d->wl == nullptr) {
    *error = "unknown workload " + args.workload;
    return nullptr;
  }
  if (tracer != nullptr) {
    for (size_t cls = 0; cls < kClasses; ++cls) {
      d->names.op[cls] = tracer->Name(std::string("vnode.") + kClassNames[cls]);
    }
    d->names.resolve = tracer->Name("vfs.resolve");
  }
  RigOptions ropts = d->wl->rig_options();
  ropts.tracer = tracer;
  d->rig = Rig::Create(ropts);
  if (d->rig == nullptr) {
    *error = "rig set-up failed";
    return nullptr;
  }
  if (dfs::Status s = d->wl->Populate(d->rig->local_volume()); !s.ok()) {
    *error = "populate: " + s.ToString();
    return nullptr;
  }
  for (int i = 0; i < d->wl->clients(); ++i) {
    auto c = std::make_unique<ClientCtx>();
    c->index = i;
    c->cm = d->rig->NewClient("alice", d->wl->client_options());
    if (c->cm == nullptr) {
      *error = "client set-up failed";
      return nullptr;
    }
    c->node = c->cm->node();
    auto vfs = c->cm->MountVolume("home");
    if (!vfs.ok()) {
      *error = "mount: " + vfs.status().ToString();
      return nullptr;
    }
    c->vfs = *vfs;
    c->rng = dfs::Rng(ClientSeed(args.seed, i));
    c->tracer = tracer;
    c->names = d->names;
    c->chk = &d->chk;
    c->errors = &d->errors;
    for (auto& v : c->rec.latency_ns) {
      v.reserve(1 << 18);
    }
    if (dfs::Status s = d->wl->Warm(*c); !s.ok()) {
      *error = "warm: " + s.ToString();
      return nullptr;
    }
    d->clients.push_back(std::move(c));
  }
  d->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  return d;
}

struct PhaseResult {
  uint64_t start_ns = 0;
  double elapsed_s = 0;
  std::vector<double> window_ops_per_s;  // one per whole second of the phase
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::array<std::vector<uint32_t>, kClasses> latency_ns;  // all clients merged
  std::array<uint64_t, kClasses> busy_ns{};
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  Counters delta;
  std::vector<uint64_t> op_end_ns;  // traced phase only
};

// The timed phase: every client thread runs its closed loop until `seconds`
// have passed (or the tracer is full).
PhaseResult RunPhase(Deployment& d, double seconds, Tracer* tracer) {
  PhaseResult res;
  std::vector<dfs::CacheManager*> cms = d.cms();
  Counters before = d.rig->Snapshot(cms);
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<uint64_t> end_ns(d.clients.size(), 0);
  // Completed operations per client, sampled once a second by this thread.
  std::vector<std::atomic<uint64_t>> done(d.clients.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < d.clients.size(); ++i) {
    threads.emplace_back([&, i] {
      ClientCtx& c = *d.clients[i];
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      while (!stop.load(std::memory_order_relaxed)) {
        d.wl->Step(c);
        c.rec.ops += 1;
        done[i].store(c.rec.ops, std::memory_order_relaxed);
        if (tracer != nullptr) {
          c.rec.op_end_ns.push_back(NowNs());
          if (tracer->full()) {
            break;
          }
        }
      }
      end_ns[i] = NowNs();
    });
  }
  if (tracer != nullptr) {
    tracer->Enable(true);
  }
  res.start_ns = NowNs();
  go.store(true, std::memory_order_release);
  uint64_t limit = res.start_ns + static_cast<uint64_t>(seconds * 1e9);
  uint64_t window_start = res.start_ns;
  uint64_t window_ops = 0;
  for (uint64_t now = res.start_ns; now < limit && (tracer == nullptr || !tracer->full());
       now = NowNs()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (now - window_start >= 1'000'000'000ull) {
      uint64_t ops = 0;
      for (const auto& n : done) {
        ops += n.load(std::memory_order_relaxed);
      }
      res.window_ops_per_s.push_back(static_cast<double>(ops - window_ops) * 1e9 /
                                     static_cast<double>(now - window_start));
      window_start = now;
      window_ops = ops;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) {
    t.join();
  }
  if (tracer != nullptr) {
    tracer->Enable(false);
  }
  res.elapsed_s =
      static_cast<double>(*std::max_element(end_ns.begin(), end_ns.end()) - res.start_ns) / 1e9;
  res.delta = Delta(before, d.rig->Snapshot(cms));
  for (auto& cp : d.clients) {
    Recorder& r = cp->rec;
    res.ops += r.ops;
    res.failed += r.failed;
    res.read_bytes += r.read_bytes;
    res.write_bytes += r.write_bytes;
    for (size_t cls = 0; cls < kClasses; ++cls) {
      res.latency_ns[cls].insert(res.latency_ns[cls].end(), r.latency_ns[cls].begin(),
                                 r.latency_ns[cls].end());
      res.busy_ns[cls] += r.busy_ns[cls];
    }
    res.op_end_ns.insert(res.op_end_ns.end(), r.op_end_ns.begin(), r.op_end_ns.end());
    r = Recorder();
  }
  return res;
}

// Reads everything back through a fresh client, counting what fails in d.chk.
void VerifyFresh(Deployment& d) {
  dfs::CacheManager* cm = d.rig->NewClient("alice", d.wl->client_options());
  auto vfs = cm == nullptr ? dfs::Result<dfs::VfsRef>(dfs::Status(dfs::ErrorCode::kInternal,
                                                                  "no client"))
                           : cm->MountVolume("home");
  if (!vfs.ok()) {
    d.chk.Fail("final read-back: " + vfs.status().ToString());
    return;
  }
  d.wl->Verify(**vfs, d.chk);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Metrics in report order, printed as lines and as the final JSON object.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    if (!std::isfinite(value)) {
      value = 0;
    }
    rows_.push_back({name, value, unit, note});
  }
  // A ratio, printed with its numerator and denominator.
  void AddRatio(const std::string& name, double num, double den, const std::string& unit,
                const std::string& num_name, const std::string& den_name) {
    char note[160];
    std::snprintf(note, sizeof(note), "%s %.0f / %s %.0f", num_name.c_str(), num,
                  den_name.c_str(), den);
    Add(name, Ratio(num, den), unit, note);
  }

  void PrintLines() const {
    for (const Row& r : rows_) {
      std::printf("%-40s %16.6f %-9s %s\n", r.name.c_str(), r.value, r.unit.c_str(),
                  r.note.c_str());
    }
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < rows_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i ? ", " : "", rows_[i].name.c_str(), rows_[i].value,
                    rows_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Row> rows_;
};

void PrintConfig(const Args& args, const Workload& wl) {
  std::printf("# dfsbench workload=%s seed=%llu seconds=%g trace=%d setups=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, kSetups);
  for (const auto& [key, value] : wl.config()) {
    std::printf("# config %s: %s\n", key.c_str(), value.c_str());
  }
}

void PrintPhase(const char* label, const PhaseResult& r) {
  std::printf("# %s phase: %llu ops in %.3f s (%zu one-second windows), %llu failed "
              "(error_rate %.6f); samples",
              label, static_cast<unsigned long long>(r.ops), r.elapsed_s,
              r.window_ops_per_s.size(),
              static_cast<unsigned long long>(r.failed), Ratio(r.failed, r.ops));
  for (size_t cls = 0; cls < kClasses; ++cls) {
    std::printf(" %s=%zu", kClassNames[cls], r.latency_ns[cls].size());
  }
  std::printf("\n# %s ops_per_s by second:", label);
  for (double w : r.window_ops_per_s) {
    std::printf(" %.0f", w);
  }
  std::printf("\n");
  for (size_t cls = 0; cls < kClasses; ++cls) {
    size_t n = r.latency_ns[cls].size();
    if (n < kMinSamplesForP99) {
      std::printf("# warning: only %zu %s samples; fewer than ten lie beyond the p99\n", n,
                  kClassNames[cls]);
    }
  }
}

void PrintChecks(const char* label, const Deployment& d) {
  std::printf("# %s checks: %llu content violations, %llu failed operations\n", label,
              static_cast<unsigned long long>(d.chk.violations()),
              static_cast<unsigned long long>(d.errors.violations()));
  for (const std::string& m : d.chk.messages()) {
    std::printf("#   violation: %s\n", m.c_str());
  }
  for (const std::string& m : d.errors.messages()) {
    std::printf("#   error: %s\n", m.c_str());
  }
}

void EndToEnd(PhaseResult& r, double setup_s, Metrics& m) {
  double ops = static_cast<double>(r.ops);
  m.Add("setup_s", setup_s, "s", "median of the set-ups in this run");
  std::vector<double> windows = r.window_ops_per_s;
  if (windows.empty()) {
    windows.push_back(Ratio(ops, r.elapsed_s));  // a phase shorter than a second
  }
  m.Add("ops_per_s", Quantile(windows, 0.5), "1/s",
        "median of " + std::to_string(windows.size()) + " one-second windows; " +
            std::to_string(Ratio(ops, r.elapsed_s)) + " over the whole phase");
  for (size_t cls = 0; cls < kClasses; ++cls) {
    std::string n = kClassNames[cls];
    std::string count = std::to_string(r.latency_ns[cls].size()) + " samples";
    m.Add(n + "_p50_us", Quantile(r.latency_ns[cls], 0.50) / 1e3, "us", count);
    m.Add(n + "_p99_us", Quantile(r.latency_ns[cls], 0.99) / 1e3, "us", count);
  }
  // Payload per second of time spent in the calls; writes include fsyncs.
  m.AddRatio("read_MBps", static_cast<double>(r.read_bytes),
             static_cast<double>(r.busy_ns[kRead]) / 1e3, "MB/s", "bytes", "read_us");
  m.AddRatio("write_MBps", static_cast<double>(r.write_bytes),
             static_cast<double>(r.busy_ns[kWrite] + r.busy_ns[kFsync]) / 1e3, "MB/s", "bytes",
             "write_and_fsync_us");
  m.AddRatio("rpcs_per_op", static_cast<double>(r.delta.c2s.calls), ops, "calls/op", "calls",
             "ops");
  m.AddRatio("wire_bytes_per_op", static_cast<double>(r.delta.c2s.bytes + r.delta.s2c.bytes),
             ops, "B/op", "bytes", "ops");
}

// Per-layer counts from the untraced phase (public Stats deltas).
void LayerCounts(const PhaseResult& r, Metrics& m) {
  const Counters& c = r.delta;
  double ops = static_cast<double>(r.ops);
  auto per_op = [&](const std::string& name, uint64_t count, const std::string& what) {
    m.AddRatio(name, static_cast<double>(count), ops, "1/op", what, "ops");
  };
  double reads = static_cast<double>(c.data_hits + c.data_misses);
  m.AddRatio("client.data_hit_ratio", static_cast<double>(c.data_hits), reads, "ratio",
             "hits", "reads");
  per_op("client.attr_hits_per_op", c.attr_hits, "attr_hits");
  per_op("client.lookup_hits_per_op", c.lookup_hits, "lookup_hits");
  per_op("client.evictions_per_op", c.evictions, "evictions");
  m.AddRatio("client.prefetch_hit_ratio", static_cast<double>(c.prefetch_hits), reads, "ratio",
             "prefetch_hits", "reads");
  per_op("client.prefetch_wasted_per_op", c.prefetch_wasted, "wasted_blocks");
  per_op("client.split_rpcs_per_op", c.split_rpcs, "split_transfers");
  m.Add("client.inflight_highwater", static_cast<double>(c.inflight_highwater), "calls",
        "max concurrent data RPCs of one client");
  m.AddRatio("client.copy_ratio", static_cast<double>(c.client_bytes_copied),
             static_cast<double>(c.client_bytes_moved), "ratio", "copied", "moved");
  per_op("client.revocations_per_op", c.revocations, "revocations");
  per_op("client.revocations_deferred_per_op", c.revocations_deferred, "deferred");
  per_op("client.revocation_stores_per_op", c.revocation_stores, "revocation_stores");
  per_op("client.dirty_stores_per_op", c.dirty_stores, "dirty_stores");

  per_op("rpc.c2s_calls_per_op", c.c2s.calls, "calls");
  per_op("rpc.s2c_calls_per_op", c.s2c.calls, "calls");
  m.AddRatio("rpc.c2s_bytes_per_op", static_cast<double>(c.c2s.bytes), ops, "B/op", "bytes",
             "ops");
  m.AddRatio("rpc.s2c_bytes_per_op", static_cast<double>(c.s2c.bytes), ops, "B/op", "bytes",
             "ops");

  per_op("tokens.grants_per_op", c.tokens.grants, "grants");
  per_op("tokens.revocations_per_op", c.tokens.revocations, "revocations");
  per_op("tokens.deferred_per_op", c.tokens.deferred_returns, "deferred");
  per_op("tokens.refusals_per_op", c.tokens.refusals, "refusals");
  per_op("tokens.fanout_batches_per_op", c.tokens.fanout_batches, "fanout_batches");
  m.AddRatio("tokens.shard_contention", static_cast<double>(c.tokens.lock_contended),
             static_cast<double>(c.tokens.lock_acquisitions), "ratio", "contended",
             "acquisitions");

  m.AddRatio("buf.hit_ratio", static_cast<double>(c.buf.hits),
             static_cast<double>(c.buf.hits + c.buf.misses), "ratio", "hits", "lookups");
  per_op("buf.evictions_per_op", c.buf.evictions, "evictions");
  per_op("buf.writebacks_per_op", c.buf.writebacks, "writebacks");

  per_op("wal.commits_per_op", c.wal.commits, "commits");
  per_op("wal.records_per_op", c.wal.records, "records");
  per_op("wal.flushes_per_op", c.wal.log_flushes, "flushes");
  m.AddRatio("wal.log_bytes_per_op", static_cast<double>(c.wal.log_bytes_flushed), ops, "B/op",
             "bytes", "ops");
  per_op("wal.checkpoints_per_op", c.wal.checkpoints, "checkpoints");

  per_op("blockdev.reads_per_op", c.disk.reads, "reads");
  per_op("blockdev.writes_per_op", c.disk.writes, "writes");
  per_op("blockdev.flushes_per_op", c.disk.flushes, "flushes");
  m.AddRatio("blockdev.random_write_share", static_cast<double>(c.disk.random_writes),
             static_cast<double>(c.disk.random_writes + c.disk.sequential_writes), "ratio",
             "random", "writes");
  m.AddRatio("blockdev.modeled_us_per_op", static_cast<double>(c.disk.ModeledTimeUs()), ops,
             "us/op", "modeled_us", "ops");
}

const char* const kServerProcs[] = {"fetch_data", "store_data", "fetch_status", "get_token",
                                    "return_token", "lookup", "create", "remove", "read_dir",
                                    "sync_volume"};
const char* const kCountedProcs[] = {"fetch_data", "store_data", "fetch_status", "get_token",
                                     "return_token", "lookup", "create", "remove", "read_dir",
                                     "sync_volume", "revocation_store"};
const char* const kEpisodeOps[] = {"read", "write", "create", "lookup", "unlink", "readdir",
                                   "sync"};

// Per-layer times from the traced phase.
void LayerTimes(SpanSummary& s, double ops, Metrics& m) {
  auto p = [&](const std::string& name, std::vector<double>& v, double q) {
    m.Add(name, Quantile(v, q), "us", std::to_string(v.size()) + " spans");
  };
  p("vnode.hit_op_us.p50", s.hit_op_us, 0.5);
  p("vnode.miss_op_us.p50", s.miss_op_us, 0.5);
  p("vfs.resolve_us.p50", s.resolve_us, 0.5);
  m.AddRatio("vnode.self_us_per_op", s.vnode_self_us, ops, "us/op", "self_us", "ops");
  p("rpc.outside_handler_us.p50", s.outside_per_rpc_us, 0.5);
  m.AddRatio("rpc.background_calls_per_op", static_cast<double>(s.background_calls), ops,
             "1/op", "calls", "ops");
  for (const char* proc : kCountedProcs) {
    m.AddRatio(std::string("rpc.calls.") + proc + "_per_op",
               static_cast<double>(s.calls[std::string("rpc.") + proc]), ops, "1/op", "calls",
               "ops");
  }
  for (const char* proc : kServerProcs) {
    std::vector<double>& v = s.by_name_us[std::string("rpc.") + proc];
    p(std::string("server.handle_us.") + proc + ".p50", v, 0.5);
    p(std::string("server.handle_us.") + proc + ".p99", v, 0.99);
  }
  m.AddRatio("server.self_us_per_op", s.server_self_us, ops, "us/op", "self_us", "ops");
  for (const char* op : kEpisodeOps) {
    p(std::string("episode.op_us.") + op + ".p50", s.by_name_us[std::string("episode.") + op],
      0.5);
  }
  m.AddRatio("episode.calls_per_op", static_cast<double>(s.episode_calls), ops, "1/op", "calls",
             "ops");
  m.AddRatio("episode.self_us_per_op", s.episode_self_us, ops, "us/op", "self_us", "ops");
  m.AddRatio("blockdev.io_us_per_op", s.disk_us, ops, "us/op", "io_us", "ops");
}

void WriteSpans(const std::string& path, const Tracer& tracer, const std::vector<Span>& spans,
                uint64_t start_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("# warning: cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "index,start_us,end_us,parent,tag,name\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns == 0 || s.start_ns < start_ns) {
      continue;
    }
    std::fprintf(f, "%zu,%.3f,%.3f,%d,%u,%s\n", i, (s.start_ns - start_ns) / 1e3,
                 (s.end_ns - start_ns) / 1e3, s.parent, s.tag, tracer.NameOf(s.name).c_str());
  }
  std::fclose(f);
  std::printf("# spans written to %s\n", path.c_str());
}

int Run(const Args& args) {
  std::string error;
  Metrics m;
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  if (args.trace == 0) {
    std::unique_ptr<Deployment> d;
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
      d.reset();
      d = SetUp(args, nullptr, &error);
      if (d == nullptr) {
        std::fprintf(stderr, "dfsbench: %s\n", error.c_str());
        return 1;
      }
      setups.push_back(d->setup_s);
    }
    PrintConfig(args, *d->wl);
    PhaseResult r = RunPhase(*d, args.seconds, nullptr);
    VerifyFresh(*d);
    PrintPhase("timed", r);
    PrintChecks("timed", *d);
    EndToEnd(r, Quantile(setups, 0.5), m);
    correct = d->chk.violations() == 0 && r.failed == 0;
    attempted = r.ops;
    failed = r.failed;
  } else {
    // Untraced phase: counts and the reference ops_per_s. It runs on the last
    // of kSetups deployments, like the end-to-end run, so both phases see a
    // process whose allocator and page tables are already warm.
    std::unique_ptr<Deployment> d;
    for (int i = 0; i < kSetups; ++i) {
      d.reset();
      d = SetUp(args, nullptr, &error);
      if (d == nullptr) {
        break;
      }
    }
    if (d == nullptr) {
      std::fprintf(stderr, "dfsbench: %s\n", error.c_str());
      return 1;
    }
    PrintConfig(args, *d->wl);
    PhaseResult plain = RunPhase(*d, args.seconds / 2, nullptr);
    VerifyFresh(*d);
    PrintPhase("untraced", plain);
    PrintChecks("untraced", *d);
    correct = d->chk.violations() == 0 && plain.failed == 0;
    d.reset();

    // Traced phase on a fresh deployment: times.
    Tracer tracer(kTraceCapacity);
    d = SetUp(args, &tracer, &error);
    if (d == nullptr) {
      std::fprintf(stderr, "dfsbench: %s\n", error.c_str());
      return 1;
    }
    PhaseResult traced = RunPhase(*d, args.seconds / 2, &tracer);
    VerifyFresh(*d);
    PrintPhase("traced", traced);
    PrintChecks("traced", *d);
    correct = correct && d->chk.violations() == 0 && traced.failed == 0;
    d.reset();  // joins every pool: no span is still being written

    uint64_t cutoff = tracer.full_at_ns() != 0 ? tracer.full_at_ns() : UINT64_MAX;
    uint64_t traced_ops = static_cast<uint64_t>(
        std::count_if(traced.op_end_ns.begin(), traced.op_end_ns.end(),
                      [&](uint64_t t) { return t <= cutoff; }));
    double traced_s = cutoff == UINT64_MAX
                          ? traced.elapsed_s
                          : static_cast<double>(cutoff - traced.start_ns) / 1e9;
    std::vector<Span> spans = tracer.Spans();
    SpanSummary summary = Analyze(tracer, spans, traced.start_ns, cutoff);
    if (!args.trace_out.empty()) {
      WriteSpans(args.trace_out, tracer, spans, traced.start_ns);
    }

    LayerCounts(plain, m);
    LayerTimes(summary, static_cast<double>(traced_ops), m);
    double plain_rate = Ratio(static_cast<double>(plain.ops), plain.elapsed_s);
    double traced_rate = Ratio(static_cast<double>(traced_ops), traced_s);
    m.Add("trace.ops_per_s_untraced", plain_rate, "1/s");
    m.Add("trace.ops_per_s_traced", traced_rate, "1/s",
          std::to_string(traced_ops) + " ops in " + std::to_string(traced_s) + " s");
    m.Add("trace.overhead_pct", 100 * Ratio(plain_rate - traced_rate, plain_rate), "%");
    m.Add("trace.spans", static_cast<double>(summary.spans), "count",
          tracer.full() ? "span buffer filled; phase cut short" : "");
    attempted = plain.ops + traced.ops;
    failed = plain.failed + traced.failed;
  }
  m.PrintLines();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace dfsbench

int main(int argc, char** argv) {
  dfsbench::Args args;
  if (!dfsbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dfsbench --workload <hot_read|shared_write|stream> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  // Simulated wire legs are sleeps on the server's workers; the default 50 us
  // timer slack would stretch each 200 us leg by a varying amount. Threads
  // inherit the slack, so set it before the deployment starts any.
  (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  return dfsbench::Run(args);
}
