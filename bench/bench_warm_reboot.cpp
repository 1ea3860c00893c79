// E17 — warm reboot with a persistent client cache: a client reads a working
// set, is killed, and reboots on the same cache medium. The cold boot pays
// one kFetchData per block plus the full transfer volume; the warm boot
// replays its token journal, revalidates the on-disk index, and re-reads the
// same working set from local disk. Reported: blocks re-fetched, client->
// server RPCs, bytes moved, and time-to-first-byte for both boots. The
// paper's AFS lineage keeps caches on local disk exactly for this reboot
// behavior; the acceptance bar is a warm re-read moving <10% of the cold
// bytes.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench/report.h"
#include "src/vfs/path.h"
#include "tests/dfs_rig.h"

using namespace dfs;

namespace {
constexpr int kFiles = 16;
constexpr int kBlocksPerFile = 8;

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - t0)
             .count() /
         1000.0;
}

// Reads every file once; returns false on any failure.
bool ReadWorkingSet(Vfs& vfs) {
  for (int i = 0; i < kFiles; ++i) {
    auto r = ReadFileAt(vfs, "/f" + std::to_string(i));
    if (!r.ok() || r->size() != size_t(kBlocksPerFile) * kBlockSize) {
      return false;
    }
  }
  return true;
}
}  // namespace

int main() {
  std::printf("E17 — cold vs warm reboot of a client cache (%d files x %d blocks)\n\n",
              kFiles, kBlocksPerFile);

  SimDisk cache_disk(4096);
  auto rig = DfsRig::Create();
  if (rig == nullptr) {
    return 1;
  }
  Cred cred{100, {100}};
  CacheManager::Options copts;
  copts.persistent_cache_disk = &cache_disk;
  copts.node = kFirstClientNode;

  // Seed the volume through a throwaway in-memory writer on its own node, so
  // the measured clients only ever read and the cache disk starts virgin. It
  // returns its tokens before dying so the cold reads below pay no
  // revoke-to-a-dead-host detours.
  {
    CacheManager::Options wopts;
    wopts.node = kFirstClientNode + 50;
    CacheManager* writer = rig->NewClient("alice", wopts);
    auto vfs = writer->MountVolume("home");
    if (!vfs.ok()) {
      return 1;
    }
    std::string contents(size_t(kBlocksPerFile) * kBlockSize, 'e');
    for (int i = 0; i < kFiles; ++i) {
      if (!CreateFileAt(**vfs, "/f" + std::to_string(i), 0644, cred).ok() ||
          !WriteFileAt(**vfs, "/f" + std::to_string(i), contents, cred).ok()) {
        return 1;
      }
    }
    if (!writer->SyncAll().ok() || !writer->ReturnAllTokens().ok()) {
      return 1;
    }
    vfs->reset();
    rig->clients.back().reset();
  }

  // --- Cold boot: everything comes over the wire ---
  auto before_cold = rig->net.StatsBetween(kFirstClientNode, kServerNode);
  auto server_before_cold = rig->server->stats();
  CacheManager* cold = rig->NewClient("alice", copts);
  auto cold_vfs = cold->MountVolume("home");
  if (!cold_vfs.ok()) {
    return 1;
  }
  auto t0 = std::chrono::steady_clock::now();
  auto first = ReadFileAt(**cold_vfs, "/f0");
  double cold_ttfb_ms = MsSince(t0);
  if (!first.ok() || !ReadWorkingSet(**cold_vfs)) {
    return 1;
  }
  double cold_total_ms = MsSince(t0);
  auto after_cold = rig->net.StatsBetween(kFirstClientNode, kServerNode);
  uint64_t cold_fetches =
      rig->server->stats().fetch_data_calls - server_before_cold.fetch_data_calls;
  uint64_t cold_calls = after_cold.calls - before_cold.calls;
  uint64_t cold_bytes = after_cold.bytes - before_cold.bytes;

  // kill -9 and reboot on the same medium.
  cold->persistent_store()->CrashNow();
  cold_vfs->reset();
  rig->clients.back().reset();

  // --- Warm boot: recover from the cache disk, then re-read ---
  auto before_warm = rig->net.StatsBetween(kFirstClientNode, kServerNode);
  auto server_before_warm = rig->server->stats();
  CacheManager* warm = rig->NewClient("alice", copts);
  auto tr = std::chrono::steady_clock::now();
  if (!warm->Recover().ok()) {
    return 1;
  }
  double recover_ms = MsSince(tr);
  auto warm_vfs = warm->MountVolume("home");
  if (!warm_vfs.ok()) {
    return 1;
  }
  auto t1 = std::chrono::steady_clock::now();
  first = ReadFileAt(**warm_vfs, "/f0");
  double warm_ttfb_ms = MsSince(t1);
  if (!first.ok() || !ReadWorkingSet(**warm_vfs)) {
    return 1;
  }
  double warm_total_ms = MsSince(t1);
  auto after_warm = rig->net.StatsBetween(kFirstClientNode, kServerNode);
  uint64_t warm_fetches =
      rig->server->stats().fetch_data_calls - server_before_warm.fetch_data_calls;
  uint64_t warm_calls = after_warm.calls - before_warm.calls;
  uint64_t warm_bytes = after_warm.bytes - before_warm.bytes;
  auto wstats = warm->stats();

  std::printf("%8s | %12s %12s %12s %12s %12s\n", "boot", "fetch_rpcs", "rpcs", "bytes",
              "ttfb_ms", "total_ms");
  std::printf("%8s | %12llu %12llu %12llu %12.2f %12.2f\n", "cold",
              (unsigned long long)cold_fetches, (unsigned long long)cold_calls,
              (unsigned long long)cold_bytes, cold_ttfb_ms, cold_total_ms);
  std::printf("%8s | %12llu %12llu %12llu %12.2f %12.2f\n", "warm",
              (unsigned long long)warm_fetches, (unsigned long long)warm_calls,
              (unsigned long long)warm_bytes, warm_ttfb_ms, warm_total_ms);
  std::printf(
      "\nwarm recovery: %.2f ms (%llu tokens reasserted, %llu blocks revalidated, "
      "%llu dropped, %llu attr revalidations skipped)\n",
      recover_ms, (unsigned long long)wstats.warm_tokens_recovered,
      (unsigned long long)wstats.warm_blocks_recovered,
      (unsigned long long)wstats.warm_blocks_dropped,
      (unsigned long long)wstats.warm_attr_hits);
  double refetch_pct = cold_bytes ? 100.0 * double(warm_bytes) / double(cold_bytes) : 0.0;
  std::printf("warm boot moved %.1f%% of the cold boot's bytes (acceptance: <10%%)\n",
              refetch_pct);

  bench::Report breport("warm_reboot");
  breport.Config("files", kFiles);
  breport.Config("blocks_per_file", kBlocksPerFile);
  breport.Metric("cold_fetch_rpcs", double(cold_fetches), "rpcs");
  breport.Metric("cold_rpcs", double(cold_calls), "rpcs");
  breport.Metric("cold_bytes", double(cold_bytes), "bytes");
  breport.Metric("cold_ttfb_ms", cold_ttfb_ms, "ms");
  breport.Metric("cold_total_ms", cold_total_ms, "ms");
  breport.Metric("warm_fetch_rpcs", double(warm_fetches), "rpcs");
  breport.Metric("warm_rpcs", double(warm_calls), "rpcs");
  breport.Metric("warm_bytes", double(warm_bytes), "bytes");
  breport.Metric("warm_ttfb_ms", warm_ttfb_ms, "ms");
  breport.Metric("warm_total_ms", warm_total_ms, "ms");
  breport.Metric("recover_ms", recover_ms, "ms");
  breport.Metric("warm_refetch_pct", refetch_pct, "%");
  breport.Metric("warm_attr_hits", double(wstats.warm_attr_hits), "files");

  if (warm_fetches != 0 || refetch_pct >= 10.0) {
    std::printf("\nFAIL: warm boot re-fetched data it should have had on disk\n");
    return 1;
  }
  std::printf(
      "\nexpected shape: the warm row's fetch_rpcs is zero and its bytes are an order\n"
      "of magnitude below cold — the cache (and the tokens vouching for it) came back\n"
      "from the local disk, not the wire.\n");
  return 0;
}
