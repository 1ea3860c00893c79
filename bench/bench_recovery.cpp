// E4 — Section 2.2's recovery claim: time spent in recovery is proportional
// to the active portion of the log, not (as with fsck) to the size of the
// file system.
//
// The same modest workload runs on aggregates of increasing size; each is
// crashed and recovered. Episode's recovery reads stay flat (the active log);
// FFS's fsck reads grow with the disk (inode table + bitmap + directories).
// E15 — consistency-layer crash recovery: a file server is killed while a
// client holds write tokens with dirty data, restarted under a new epoch with
// varying grace periods, and the time until the client has reasserted its
// tokens and flushed is measured. The client is the only host on the dead
// incarnation's lease roster, so its reassertion closes the grace window
// early, and the flush's stores then ride the write tokens it reasserted:
// the phase measures reassertion plus flush cost, not the grace window.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "bench/report.h"
#include "src/episode/aggregate.h"
#include "src/ffs/ffs.h"
#include "src/vfs/path.h"
#include "tests/dfs_rig.h"

using namespace dfs;

namespace {
constexpr int kFiles = 60;

void Workload(Vfs& vfs, const Cred& cred) {
  for (int i = 0; i < kFiles; ++i) {
    (void)WriteFileAt(vfs, "/f" + std::to_string(i), "recovery workload data", cred);
  }
  for (int i = 0; i < kFiles / 3; ++i) {
    (void)UnlinkAt(vfs, "/f" + std::to_string(i));
  }
  (void)vfs.Sync();
}
}  // namespace

int main() {
  std::printf("E4 — crash-recovery cost vs file-system size (fixed workload: %d files)\n\n",
              kFiles);
  std::printf("%12s %12s | %14s %14s | %14s %14s\n", "disk_blocks", "disk_MiB",
              "episode_reads", "episode_ms", "fsck_reads", "fsck_ms");

  bench::Report breport("recovery");
  breport.Config("files", kFiles);
  Cred cred{100, {100}};
  for (uint64_t blocks : {16384ull, 65536ull, 131072ull}) {
    uint64_t episode_reads = 0, episode_us = 0, fsck_reads = 0, fsck_us = 0;
    {
      SimDisk disk(blocks);
      auto agg = Aggregate::Format(disk, {});
      if (!agg.ok()) {
        return 1;
      }
      auto vid = (*agg)->CreateVolume("bench");
      auto vfs = (*agg)->MountVolume(*vid);
      Workload(**vfs, cred);
      (*agg)->CrashNow();
      vfs->reset();
      agg->reset();
      disk.ResetStats();
      auto remounted = Aggregate::Mount(disk, {});
      if (!remounted.ok()) {
        return 1;
      }
      episode_reads = disk.stats().reads;
      episode_us = disk.stats().ModeledTimeUs();
    }
    {
      SimDisk disk(blocks);
      FfsVfs::Options opts;
      opts.inode_count = blocks / 8;  // the inode table scales with the disk
      auto ffs = FfsVfs::Format(disk, opts);
      if (!ffs.ok()) {
        return 1;
      }
      Workload(**ffs, cred);
      (*ffs)->CrashNow();
      disk.ResetStats();
      auto mounted = FfsVfs::Mount(disk, opts);
      if (!mounted.ok()) {
        return 1;
      }
      auto report = (*mounted)->Fsck(/*repair=*/true);
      if (!report.ok()) {
        return 1;
      }
      fsck_reads = report->blocks_read;
      fsck_us = disk.stats().ModeledTimeUs();
    }
    std::printf("%12llu %12llu | %14llu %14.1f | %14llu %14.1f\n",
                (unsigned long long)blocks, (unsigned long long)(blocks * 4096 / (1 << 20)),
                (unsigned long long)episode_reads, episode_us / 1000.0,
                (unsigned long long)fsck_reads, fsck_us / 1000.0);
    std::string k = "blocks" + std::to_string(blocks);
    breport.Metric(k + "_episode_ms", episode_us / 1000.0, "ms");
    breport.Metric(k + "_fsck_ms", fsck_us / 1000.0, "ms");
  }
  std::printf(
      "\nexpected shape: the episode column is flat (active log only); the fsck column\n"
      "grows with the disk. The crossover is exactly the paper's argument for logging.\n");

  // --- E15: server-restart token reassertion ---
  constexpr int kDirtyFiles = 8;
  std::printf(
      "\nE15 — token recovery after a server restart (%d dirty files held by the client)\n\n",
      kDirtyFiles);
  std::printf("%10s | %16s %18s %18s\n", "grace_ms", "reassert_ms", "reasserted_tokens",
              "recovering_retries");
  for (uint32_t grace_ms : {0u, 50u, 200u}) {
    auto rig = DfsRig::Create();
    if (rig == nullptr) {
      return 1;
    }
    CacheManager* client = rig->NewClient();
    auto vfs = client->MountVolume("home");
    if (!vfs.ok()) {
      return 1;
    }
    for (int i = 0; i < kDirtyFiles; ++i) {
      std::string path = "/r" + std::to_string(i);
      if (!CreateFileAt(**vfs, path, 0644, cred).ok() ||
          !WriteFileAt(**vfs, path, "dirty at restart time", cred).ok()) {
        return 1;
      }
    }
    rig->RestartServer(grace_ms);

    // Drive the virtual clock so lease/grace time passes while the client
    // spins on kRecovering answers.
    std::atomic<bool> done{false};
    std::thread driver([&] {
      while (!done.load(std::memory_order_relaxed)) {
        rig->clock.AdvanceMillis(5);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
    auto t0 = std::chrono::steady_clock::now();
    Status synced = client->SyncAll();
    double reassert_ms = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count() /
                         1000.0;
    done.store(true, std::memory_order_relaxed);
    driver.join();
    if (!synced.ok()) {
      return 1;
    }
    auto cstats = client->stats();
    std::printf("%10u | %16.2f %18llu %18llu\n", grace_ms, reassert_ms,
                (unsigned long long)cstats.reasserted_tokens,
                (unsigned long long)cstats.recovering_retries);
    std::string g = "grace" + std::to_string(grace_ms);
    breport.Metric(g + "_reassert_ms", reassert_ms, "ms");
    breport.Metric(g + "_reasserted_tokens", (double)cstats.reasserted_tokens, "tokens");
  }
  std::printf(
      "\nexpected shape: flat in the grace period, with 0 recovering retries. The sync\n"
      "rides write tokens the client already holds: it reasserts them first, which\n"
      "closes the window (it is the only host on the lease roster), so it never waits\n"
      "out grace. The reasserted-token count is flat too.\n");
  return 0;
}
