// E16 — the asynchronous data path: background readahead and pipelined bulk
// transfer vs the synchronous one-chunk ablation.
//
// A WAN-ish link (per-message propagation latency + per-byte bandwidth,
// simulated as real sleeps on the server's workers) makes RPC round-trips the
// dominant cost, as on any real wide-area deployment. Two workloads:
//
//   - sequential scan: a cold 1 MiB file read in 16 KiB chunks. The ablation
//     pays the fetch latency in the reader's own Read calls (synchronous
//     readahead inflation); the pipelined path fetches only the asked-for
//     range and sends doubling readahead windows from the reading thread,
//     as many as the cache-bounded lead allows (at most 8 in flight), with
//     one pool thread harvesting the replies: readahead depth does not
//     follow prefetch_threads. The in-flight high-water mark is reported.
//   - large write: 1 MiB written locally, then pushed by one fsync (the push
//     is what's timed — the local write is identical either way). The ablation
//     (max_rpc_bytes = 0) stores it as one chunk whose 1 MiB payload
//     serializes on the link; the pipelined push splits it into
//     max_rpc_bytes sub-ranges that the fsync's own thread keeps on the wire
//     up to 8 at a time, overlapping their transfer time. No prefetch pool
//     runs either push: push depth does not follow prefetch_threads.
//
// Reported as scan MB/s of the pipelined path and the ablation, the write
// MB/s of the pipelined push against the one-chunk ablation (the
// paper-adjacent claims: >= 2x scan, >= 1.5x write), the end-to-end copy
// ratio (bytes memcpy'd anywhere on the path / payload bytes that crossed
// the wire — the zero-copy work drives it toward 1), and a 64-client
// saturation phase (everyone scanning the same file through the slice path).
// A re-scan phase records the server's token count for a file one
// synchronous-path reader with a quarter-file cache scans 8 times: every
// pass refetches evicted blocks, and the count shows whether refetches
// match held tokens or mint new ones (a deterministic counter).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/report.h"
#include "src/vfs/path.h"
#include "tests/dfs_rig.h"

using namespace dfs;

namespace {

constexpr uint64_t kFileBlocks = 256;  // 1 MiB
constexpr uint64_t kFileBytes = kFileBlocks * kBlockSize;
constexpr size_t kReadChunk = 4 * kBlockSize;  // 16 KiB
constexpr uint64_t kSimLatencyUs = 800;
constexpr uint64_t kSimBandwidth = 50ull * 1000 * 1000;
constexpr uint64_t kMaxRpcBytes = 16 * kBlockSize;  // 64 KiB sub-ranges
constexpr int kRepeats = 2;  // best-of to shed scheduler noise

double MBps(uint64_t bytes, std::chrono::steady_clock::duration d) {
  double secs = std::chrono::duration<double>(d).count();
  return secs > 0 ? bytes / secs / 1e6 : 0.0;
}

// Seeds `path` with kFileBytes of data and returns all tokens, so every
// measured client starts cold.
bool Seed(DfsRig& rig, const std::string& path) {
  CacheManager* setup = rig.NewClient("root");
  auto vfs = setup->MountVolume("home");
  if (!vfs.ok()) {
    return false;
  }
  if (!WriteFileAt(**vfs, path, std::string(kFileBytes, 'd'), Cred{0, {0}}).ok()) {
    return false;
  }
  return setup->SyncAll().ok() && setup->ReturnAllTokens().ok();
}

// Copied/moved accounting over one measured phase: client counters plus the
// server-side delta, so the ratio covers every memcpy on the path.
struct CopyStats {
  uint64_t copied = 0;
  uint64_t moved = 0;
  double ratio() const { return moved > 0 ? double(copied) / double(moved) : 0.0; }
};

// What one scan measured besides its throughput.
struct ScanStats {
  CopyStats copy;
  uint64_t inflight_highwater = 0;  // data RPCs the reader had in flight at once
};

// Cold sequential scan of `path` in kReadChunk slice reads; returns MB/s.
// The scan consumes data through ReadSlices — the zero-copy consumer API —
// and folds every byte into a checksum so the reads cannot be elided.
double ScanOnce(DfsRig& rig, const std::string& path, size_t prefetch_threads,
                ScanStats* scan_stats) {
  CacheManager::Options opts;
  opts.diskless = true;  // MemoryCacheStore: the region-sharing store
  opts.prefetch_threads = prefetch_threads;
  opts.readahead_min_blocks = 8;
  opts.readahead_max_blocks = 64;
  if (prefetch_threads > 0) {
    opts.max_rpc_bytes = kMaxRpcBytes;
  }
  CacheManager* reader = rig.NewClient("alice", opts);
  auto vfs = reader->MountVolume("home");
  if (!vfs.ok()) {
    return 0;
  }
  auto f = ResolvePath(**vfs, path);
  if (!f.ok()) {
    return 0;
  }
  FileServer::Stats sbefore = rig.server->stats();
  uint64_t sum = 0;
  auto start = std::chrono::steady_clock::now();
  for (uint64_t off = 0; off < kFileBytes; off += kReadChunk) {
    auto slices = (*f)->ReadSlices(off, kReadChunk);
    if (!slices.ok()) {
      return 0;
    }
    size_t got = 0;
    for (const BufferSlice& s : *slices) {
      got += s.size();
      for (uint8_t b : s.span()) {
        sum += b;
      }
    }
    if (got != kReadChunk) {
      return 0;
    }
  }
  auto elapsed = std::chrono::steady_clock::now() - start;
  if (sum == 0) {
    return 0;  // impossible for 'd'-filled data; defeats dead-code elimination
  }
  CacheManager::Stats cs = reader->stats();
  FileServer::Stats ss = rig.server->stats();
  scan_stats->copy.copied = cs.bytes_copied + (ss.bytes_copied - sbefore.bytes_copied);
  scan_stats->copy.moved = cs.bytes_moved;
  scan_stats->inflight_highwater = cs.inflight_highwater;
  (void)reader->ReturnAllTokens();
  return MBps(kFileBytes, elapsed);
}

// Writes kFileBytes locally, then times the fsync push, cut into chunks of
// `max_rpc_bytes` (0: one chunk); returns MB/s.
double WriteOnce(DfsRig& rig, const std::string& path, uint64_t max_rpc_bytes) {
  CacheManager::Options opts;
  opts.diskless = true;
  opts.max_rpc_bytes = max_rpc_bytes;
  CacheManager* writer = rig.NewClient("alice", opts);
  auto vfs = writer->MountVolume("home");
  if (!vfs.ok()) {
    return 0;
  }
  std::string data(kFileBytes, 'w');
  if (!WriteFileAt(**vfs, path, data, Cred{100, {100}}).ok()) {
    return 0;
  }
  auto start = std::chrono::steady_clock::now();
  if (!writer->SyncAll().ok()) {
    return 0;
  }
  auto elapsed = std::chrono::steady_clock::now() - start;
  (void)writer->ReturnAllTokens();
  return MBps(kFileBytes, elapsed);
}

double Best(double a, double b) { return a > b ? a : b; }

// Scans `path` kRescanPasses times with one synchronous-path reader whose
// cache holds a quarter of the file; returns the server's token count for
// the file after the first pass and after the last, or nullopt on failure.
constexpr int kRescanPasses = 8;
std::optional<std::pair<size_t, size_t>> RescanTokens(DfsRig& rig, const std::string& path) {
  CacheManager::Options opts;
  opts.diskless = true;
  opts.max_cached_blocks = kFileBlocks / 4;
  CacheManager* reader = rig.NewClient("alice", opts);
  auto vfs = reader->MountVolume("home");
  if (!vfs.ok()) {
    return std::nullopt;
  }
  auto f = ResolvePath(**vfs, path);
  if (!f.ok()) {
    return std::nullopt;
  }
  size_t first = 0;
  for (int pass = 1; pass <= kRescanPasses; ++pass) {
    for (uint64_t off = 0; off < kFileBytes; off += kReadChunk) {
      if (!(*f)->ReadSlices(off, kReadChunk).ok()) {
        return std::nullopt;
      }
    }
    if (pass == 1) {
      first = rig.server->tokens().TokensForFid((*f)->fid()).size();
    }
  }
  size_t last = rig.server->tokens().TokensForFid((*f)->fid()).size();
  (void)reader->ReturnAllTokens();
  return std::make_pair(first, last);
}

}  // namespace

int main() {
  std::printf("E16 — asynchronous data path vs synchronous one-chunk ablation\n");
  std::printf("link: %llu us/leg latency, %llu MB/s; file %llu KiB, reads %zu KiB, "
              "rpc split %llu KiB\n\n",
              (unsigned long long)kSimLatencyUs, (unsigned long long)(kSimBandwidth / 1000000),
              (unsigned long long)(kFileBytes / 1024), kReadChunk / 1024,
              (unsigned long long)(kMaxRpcBytes / 1024));

  DfsRig::Options ropts;
  ropts.server.rpc.worker_threads = 16;  // sleeping sim-delay workers must not starve
  ropts.server.rpc.sim_latency_us = kSimLatencyUs;
  ropts.server.rpc.sim_bandwidth_bytes_per_sec = kSimBandwidth;
  auto rig = DfsRig::Create(ropts);
  if (rig == nullptr) {
    return 1;
  }

  bench::Report report("datapath");
  report.Config("file_bytes", (long long)kFileBytes);
  report.Config("read_chunk_bytes", (long long)kReadChunk);
  report.Config("sim_latency_us", (long long)kSimLatencyUs);
  report.Config("sim_bandwidth_bytes_per_sec", (long long)kSimBandwidth);
  report.Config("max_rpc_bytes", (long long)kMaxRpcBytes);

  std::printf("%10s | %12s | %18s\n", "readahead", "scan_MBps", "inflight_highwater");

  int file_seq = 0;
  // Best of kRepeats cold scans; `stats` comes from the last of them.
  auto measure_scan = [&](size_t threads, ScanStats* stats) -> double {
    double scan = 0;
    for (int r = 0; r < kRepeats; ++r) {
      std::string rpath = "/scan" + std::to_string(file_seq++);
      if (!Seed(*rig, rpath)) {
        return 0;
      }
      scan = Best(scan, ScanOnce(*rig, rpath, threads, stats));
    }
    return scan;
  };

  ScanStats sync_stats;
  double sync_scan = measure_scan(0, &sync_stats);
  std::printf("%10s | %12.1f | %18llu\n", "sync", sync_scan,
              (unsigned long long)sync_stats.inflight_highwater);
  report.Metric("scan_MBps_sync", sync_scan, "MB/s");
  // One harvest thread: the windows go out from the reading thread.
  ScanStats scan_stats;
  double pipelined_scan = measure_scan(1, &scan_stats);
  std::printf("%10s | %12.1f | %18llu\n", "pipelined", pipelined_scan,
              (unsigned long long)scan_stats.inflight_highwater);
  report.Metric("scan_MBps_pipelined", pipelined_scan, "MB/s");
  report.Metric("scan_inflight_highwater", (double)scan_stats.inflight_highwater, "calls");
  const CopyStats& scan_copy = scan_stats.copy;

  auto measure_write = [&](uint64_t max_rpc_bytes) -> double {
    double write = 0;
    for (int r = 0; r < kRepeats; ++r) {
      write = Best(write, WriteOnce(*rig, "/write" + std::to_string(file_seq++), max_rpc_bytes));
    }
    return write;
  };
  double one_chunk_write = measure_write(0);
  double pipelined_write = measure_write(kMaxRpcBytes);
  std::printf("\n%10s | %12s\n", "push", "write_MBps");
  std::printf("%10s | %12.1f\n", "one chunk", one_chunk_write);
  std::printf("%10s | %12.1f\n", "pipelined", pipelined_write);
  report.Metric("write_MBps_one_chunk", one_chunk_write, "MB/s");
  report.Metric("write_MBps_pipelined", pipelined_write, "MB/s");

  double scan_speedup = sync_scan > 0 ? pipelined_scan / sync_scan : 0;
  double write_speedup = one_chunk_write > 0 ? pipelined_write / one_chunk_write : 0;
  std::printf("\nspeedup: pipelined scan %.2fx (target >= 2x), pipelined "
              "write %.2fx (target >= 1.5x)\n",
              scan_speedup, write_speedup);
  report.Metric("scan_speedup_pipelined", scan_speedup, "x");
  report.Metric("write_speedup_pipelined", write_speedup, "x");

  std::printf("copy ratio of the pipelined scan: %.2f copied/moved "
              "(%llu copied / %llu moved; target <= 1.5)\n",
              scan_copy.ratio(), (unsigned long long)scan_copy.copied,
              (unsigned long long)scan_copy.moved);
  report.Metric("scan_bytes_copied_pipelined", (double)scan_copy.copied, "bytes");
  report.Metric("scan_bytes_moved_pipelined", (double)scan_copy.moved, "bytes");
  report.Metric("scan_copy_ratio_pipelined", scan_copy.ratio(), "copied/moved");

  std::string rpath = "/rescan";
  if (!Seed(*rig, rpath)) {
    return 1;
  }
  auto rescan = RescanTokens(*rig, rpath);
  if (!rescan.has_value()) {
    return 1;
  }
  std::printf("re-scan: %d passes, %llu-block cache: server tokens for the file %zu after "
              "pass 1, %zu after pass %d (expected: no growth)\n",
              kRescanPasses, (unsigned long long)(kFileBlocks / 4), rescan->first,
              rescan->second, kRescanPasses);
  report.Metric("rescan_tokens_after_pass_1", (double)rescan->first, "tokens");
  report.Metric("rescan_tokens_after_pass_" + std::to_string(kRescanPasses),
                (double)rescan->second, "tokens");

  // --- 64-client saturation: everyone scans the same file through the slice
  // path. Read tokens are shared, so this
  // saturates the server's data plane rather than the token manager; the
  // aggregate MB/s and the phase-wide copy ratio are what matter.
  constexpr int kSatClients = 64;
  std::string spath = "/saturate";
  if (!Seed(*rig, spath)) {
    return 1;
  }
  std::vector<CacheManager*> sat_clients;
  std::vector<VnodeRef> sat_files;
  for (int i = 0; i < kSatClients; ++i) {
    CacheManager::Options sopts;
    sopts.diskless = true;
    sopts.prefetch_threads = 2;
    sopts.readahead_min_blocks = 8;
    sopts.readahead_max_blocks = 64;
    sopts.max_rpc_bytes = kMaxRpcBytes;
    CacheManager* c = rig->NewClient("alice", sopts);
    auto vfs = c->MountVolume("home");
    if (!vfs.ok()) {
      return 1;
    }
    auto f = ResolvePath(**vfs, spath);
    if (!f.ok()) {
      return 1;
    }
    sat_clients.push_back(c);
    sat_files.push_back(*f);
  }
  FileServer::Stats sat_sbefore = rig->server->stats();
  std::atomic<int> sat_failures{0};
  auto sat_start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kSatClients; ++i) {
      threads.emplace_back([&, i] {
        uint64_t sum = 0;
        for (uint64_t off = 0; off < kFileBytes; off += kReadChunk) {
          auto slices = sat_files[i]->ReadSlices(off, kReadChunk);
          if (!slices.ok()) {
            sat_failures.fetch_add(1);
            return;
          }
          for (const BufferSlice& s : *slices) {
            sum += s.empty() ? 0 : s.data()[0];
          }
        }
        if (sum == 0) {
          sat_failures.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
  }
  auto sat_elapsed = std::chrono::steady_clock::now() - sat_start;
  CopyStats sat_copy;
  for (CacheManager* c : sat_clients) {
    CacheManager::Stats cs = c->stats();
    sat_copy.copied += cs.bytes_copied;
    sat_copy.moved += cs.bytes_moved;
    (void)c->ReturnAllTokens();
  }
  sat_copy.copied += rig->server->stats().bytes_copied - sat_sbefore.bytes_copied;
  double sat_mbps = MBps(uint64_t{kSatClients} * kFileBytes, sat_elapsed);
  std::printf("\nsaturation: %d clients x %llu KiB, %d failures, %.1f MB/s "
              "aggregate, copy ratio %.2f\n",
              kSatClients, (unsigned long long)(kFileBytes / 1024),
              sat_failures.load(), sat_mbps, sat_copy.ratio());
  report.Metric("sat_clients", kSatClients, "clients");
  report.Metric("sat_failures", sat_failures.load(), "clients");
  report.Metric("sat_aggregate_MBps", sat_mbps, "MB/s");
  report.Metric("sat_copy_ratio", sat_copy.ratio(), "copied/moved");
  return sat_failures.load() == 0 ? 0 : 1;
}
