// E14 — Parallel revoke-before-grant (Sections 5, 6.3–6.4). N hosts cache one
// hot file under read tokens; a writer then requests a conflicting write-open
// grant, forcing the manager to revoke from every holder before granting.
// Each Revoke models a client round-trip (writeback + reply latency), so the
// serial ablation pays N round-trips per grant while the fan-out pays ~1.
//
// Measures p50/p99 write-open grant latency and revocations/sec for both
// modes, plus a disjoint-volume sharding sweep (median of 9, with min and
// max). Emits BENCH_revoke_fanout.json.
//
//   bench_revoke_fanout [--serial-only|--parallel-only] [hosts] [iters]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/report.h"
#include "src/tokens/token_manager.h"

using namespace dfs;
using Clock = std::chrono::steady_clock;

namespace {

// Round-trip cost of one revocation callback: the holder writes back dirty
// state and replies. Modeled as a sleep so the bench isolates the manager's
// dispatch structure from RPC-substrate noise.
constexpr auto kRevokeRoundTrip = std::chrono::microseconds(500);

struct CachingHost : TokenHost {
  Status Revoke(const Token&, uint32_t) override {
    std::this_thread::sleep_for(kRevokeRoundTrip);
    return Status::Ok();  // relinquished after writeback
  }
  std::string name() const override { return "caching-host"; }
};

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * (v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

struct RunResult {
  double p50 = 0;
  double p99 = 0;
  double revocations_per_s = 0;
};

// One configuration: `hosts` holders cache the hot file, then a writer takes
// `iters` conflicting write-open grants (returning each so the holders can
// re-cache between rounds).
RunResult RunGrantStorm(size_t fanout_threads, size_t hosts, int iters) {
  TokenManager::Options opt;
  opt.revoke_fanout_threads = fanout_threads;
  TokenManager mgr(opt);
  std::vector<CachingHost> holders(hosts);
  for (size_t i = 0; i < hosts; ++i) {
    mgr.RegisterHost(i + 1, &holders[i]);
  }
  HostId writer = hosts + 1;
  CachingHost writer_host;
  mgr.RegisterHost(writer, &writer_host);

  Fid hot{1, 2, 3};
  std::vector<double> latencies;
  latencies.reserve(iters);
  auto bench_start = Clock::now();
  for (int it = 0; it < iters; ++it) {
    // Re-establish the N cached copies.
    for (size_t i = 0; i < hosts; ++i) {
      auto g = mgr.Grant(i + 1, hot, kTokenDataRead | kTokenStatusRead, ByteRange::All());
      if (!g.ok()) {
        std::fprintf(stderr, "read grant failed: %s\n", g.status().ToString().c_str());
        return {};
      }
    }
    auto start = Clock::now();
    auto g = mgr.Grant(writer, hot,
                       kTokenOpenWrite | kTokenDataWrite | kTokenStatusWrite,
                       ByteRange::All());
    auto end = Clock::now();
    if (!g.ok()) {
      std::fprintf(stderr, "write grant failed: %s\n", g.status().ToString().c_str());
      return {};
    }
    latencies.push_back(Ms(end - start));
    (void)mgr.Return(g->id, g->types);
  }
  double wall_s =
      std::chrono::duration<double>(Clock::now() - bench_start).count();
  RunResult r;
  r.p50 = Percentile(latencies, 0.50);
  r.p99 = Percentile(latencies, 0.99);
  r.revocations_per_s = static_cast<double>(mgr.stats().revocations) / wall_s;
  return r;
}

// Disjoint-volume grants: with per-volume-hash shards, concurrent grant
// streams on unrelated volumes never touch the same lock.
double RunShardSweep(size_t threads, int per_thread) {
  TokenManager mgr;  // default: sharded
  std::vector<CachingHost> hosts(threads);
  for (size_t i = 0; i < threads; ++i) {
    mgr.RegisterHost(i + 1, &hosts[i]);
  }
  auto start = Clock::now();
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&mgr, t, per_thread] {
      for (int i = 0; i < per_thread; ++i) {
        Fid fid{100 + t, static_cast<uint64_t>(i + 1), 1};
        auto g = mgr.Grant(t + 1, fid, kTokenDataRead, ByteRange::All());
        if (g.ok()) {
          (void)mgr.Return(g->id, g->types);
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  double wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return static_cast<double>(threads * per_thread) / wall_s / 1000.0;  // kops/s
}

}  // namespace

int main(int argc, char** argv) {
  bool run_serial = true;
  bool run_parallel = true;
  size_t hosts = 16;
  int iters = 40;
  int argi = 1;
  if (argi < argc && std::strcmp(argv[argi], "--serial-only") == 0) {
    run_parallel = false;
    ++argi;
  } else if (argi < argc && std::strcmp(argv[argi], "--parallel-only") == 0) {
    run_serial = false;
    ++argi;
  }
  if (argi < argc) {
    hosts = static_cast<size_t>(std::stoul(argv[argi++]));
  }
  if (argi < argc) {
    iters = std::stoi(argv[argi++]);
  }
  size_t fanout_threads = TokenManager::Options().revoke_fanout_threads;

  std::printf("E14 — revoke-before-grant fan-out: %zu hosts cache one hot file;\n"
              "a writer's conflicting open must revoke from all of them first\n"
              "(modeled revocation round-trip: %lld us)\n\n",
              hosts, static_cast<long long>(kRevokeRoundTrip.count()));

  bench::Report report("revoke_fanout");
  report.Config("hosts", static_cast<long long>(hosts));
  report.Config("iters", iters);
  report.Config("fanout_threads", static_cast<long long>(fanout_threads));
  report.Config("revoke_round_trip_us", kRevokeRoundTrip.count());

  std::printf("%-22s %12s %12s %16s\n", "mode", "p50 (ms)", "p99 (ms)", "revocations/s");
  RunResult serial, parallel;
  if (run_serial) {
    serial = RunGrantStorm(/*fanout_threads=*/0, hosts, iters);
    std::printf("%-22s %12.3f %12.3f %16.0f\n", "serial (ablation)", serial.p50, serial.p99,
                serial.revocations_per_s);
    report.Metric("serial_grant_p50", serial.p50, "ms");
    report.Metric("serial_grant_p99", serial.p99, "ms");
    report.Metric("serial_revocations_per_s", serial.revocations_per_s, "1/s");
  }
  if (run_parallel) {
    parallel = RunGrantStorm(fanout_threads, hosts, iters);
    std::printf("%-22s %12.3f %12.3f %16.0f\n", "parallel fan-out", parallel.p50,
                parallel.p99, parallel.revocations_per_s);
    report.Metric("parallel_grant_p50", parallel.p50, "ms");
    report.Metric("parallel_grant_p99", parallel.p99, "ms");
    report.Metric("parallel_revocations_per_s", parallel.revocations_per_s, "1/s");
  }
  if (run_serial && run_parallel && parallel.p50 > 0) {
    double speedup = serial.p50 / parallel.p50;
    std::printf("\nwrite-open grant p50 speedup (serial/parallel): %.1fx\n", speedup);
    report.Metric("grant_p50_speedup", speedup, "x");
  }

  // One short sweep spreads 3x from run to run on an idle host, so the rate
  // is the median of kShardSweeps sweeps, with their spread beside it.
  constexpr int kShardSweeps = 9;
  std::vector<double> kops;
  for (int i = 0; i < kShardSweeps; ++i) {
    kops.push_back(RunShardSweep(/*threads=*/4, /*per_thread=*/2000));
  }
  std::sort(kops.begin(), kops.end());
  std::printf("\ndisjoint-volume grants, 4 threads (sharded manager), %d sweeps: "
              "median %.0f kops/s (min %.0f, max %.0f)\n",
              kShardSweeps, kops[kShardSweeps / 2], kops.front(), kops.back());
  report.Config("shard_sweeps", kShardSweeps);
  report.Metric("disjoint_volume_grant_rate", kops[kShardSweeps / 2], "kops/s");
  report.Metric("disjoint_volume_grant_rate_min", kops.front(), "kops/s");
  report.Metric("disjoint_volume_grant_rate_max", kops.back(), "kops/s");
  return 0;
}
