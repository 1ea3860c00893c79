// Consistency-layer crash recovery (token lifetimes, host liveness, and
// server-restart token reassertion): lease expiry garbage-collects a silent
// host's tokens, a restarted server runs a reassertion grace period under a
// new incarnation epoch, surviving clients keep their tokens (and their dirty
// data), and absent clients lose theirs — the paper's client-crash contract
// applied from the server's side.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/tokens/token_manager.h"
#include "src/vfs/path.h"
#include "tests/dfs_rig.h"
#include "tests/test_util.h"

namespace dfs {
namespace {

// Creates (mode 0666, so any principal may write) and fills a shared file.
Status WriteShared(Vfs& vfs, const std::string& path, std::string_view contents,
                   const Cred& cred) {
  if (!ResolvePath(vfs, path).ok()) {
    RETURN_IF_ERROR(CreateFileAt(vfs, path, 0666, cred).status());
  }
  return WriteFileAt(vfs, path, contents, cred);
}

// Drives the rig's virtual clock forward while a recovery-era operation spins
// on kRecovering retries, so grace periods end in bounded real time.
class ClockDriver {
 public:
  explicit ClockDriver(DfsRig* rig) : rig_(rig) {
    thread_ = std::thread([this] {
      while (!done_.load(std::memory_order_relaxed)) {
        rig_->clock.AdvanceMillis(20);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  ~ClockDriver() { Stop(); }
  void Stop() {
    if (thread_.joinable()) {
      done_.store(true, std::memory_order_relaxed);
      thread_.join();
    }
  }

 private:
  DfsRig* rig_;
  std::atomic<bool> done_{false};
  std::thread thread_;
};

// A host that answers revocations with a scripted status and counts how they
// arrived (singly or batched).
class CountingHost : public TokenHost {
 public:
  explicit CountingHost(std::string name) : name_(std::move(name)) {}

  Status Revoke(const Token& token, uint32_t types) override {
    (void)token;
    (void)types;
    single_calls_.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  }
  std::vector<Status> RevokeBatch(const std::vector<RevokeItem>& items) override {
    batch_calls_.fetch_add(1, std::memory_order_relaxed);
    batched_items_.fetch_add(items.size(), std::memory_order_relaxed);
    return std::vector<Status>(items.size(), Status::Ok());
  }
  std::string name() const override { return name_; }

  size_t single_calls() const { return single_calls_.load(std::memory_order_relaxed); }
  size_t batch_calls() const { return batch_calls_.load(std::memory_order_relaxed); }
  size_t batched_items() const { return batched_items_.load(std::memory_order_relaxed); }

 private:
  std::string name_;
  std::atomic<size_t> single_calls_{0};
  std::atomic<size_t> batch_calls_{0};
  std::atomic<size_t> batched_items_{0};
};

// --- The acceptance scenario: restart with dirty writers ---

TEST(RecoveryTest, ServerRestartReassertAndGraceDrop) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* alice = rig->NewClient("alice");
  CacheManager* bob = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef avfs, alice->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef bvfs, bob->MountVolume("home"));

  // Both clients hold write tokens with dirty, unstored data.
  ASSERT_OK(WriteShared(*avfs, "/a", "alice dirty data", TestCred()));
  ASSERT_OK(WriteShared(*bvfs, "/b", "bob dirty data", TestCred(101)));

  // Bob drops off the network; he will miss the whole grace window.
  rig->net.Partition(bob->node(), kServerNode, true);

  // Kill the server (token state and host registrations die; the disk
  // survives) and bring it back under epoch 2 with a reassertion grace.
  rig->RestartServer(/*grace_period_ms=*/200);
  EXPECT_EQ(rig->server->epoch(), 2u);
  EXPECT_TRUE(rig->server->in_grace());

  // (a) Alice's next store trips kStaleEpoch, reasserts her tokens (admitted
  // during grace), waits out the remaining grace on kRecovering answers, and
  // flushes her dirty data.
  {
    ClockDriver driver(rig.get());
    ASSERT_OK(alice->SyncAll());
  }
  auto astats = alice->stats();
  EXPECT_GE(astats.stale_epoch_retries, 1u);
  EXPECT_GE(astats.reasserted_tokens, 1u);
  EXPECT_EQ(astats.reassert_rejected, 0u);
  auto rstats = rig->server->recovery_stats();
  EXPECT_EQ(rstats.reasserting_hosts, 1u);
  EXPECT_GE(rstats.stale_epoch_rejections, 1u);
  EXPECT_FALSE(rig->server->in_grace());

  // (b) Bob never reasserted: his tokens died with the old incarnation, so a
  // conflicting grant on his file succeeds without waiting on him.
  ASSERT_OK(WriteShared(*avfs, "/b", "alice overwrites", TestCred()));

  // Bob comes back. His reassertion now loses to Alice's conflicting grant:
  // his tokens are rejected, his dirty data is discarded, and the loss is
  // surfaced as an I/O error instead of silently pushing stale bytes.
  rig->net.Partition(bob->node(), kServerNode, false);
  Status bob_sync = bob->SyncAll();
  EXPECT_EQ(bob_sync.code(), ErrorCode::kIoError) << bob_sync.message();
  auto bstats = bob->stats();
  EXPECT_GE(bstats.reassert_rejected, 1u);

  // Bob refetches and sees Alice's version — his lost write never landed.
  ASSERT_OK_AND_ASSIGN(std::string b_now, ReadFileAt(*bvfs, "/b"));
  EXPECT_EQ(b_now, "alice overwrites");
  // Alice's reasserted write did land.
  ASSERT_OK_AND_ASSIGN(std::string a_now, ReadFileAt(*bvfs, "/a"));
  EXPECT_EQ(a_now, "alice dirty data");
}

TEST(RecoveryTest, NoStaleDataServedDuringGrace) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  // The client mirrors the server lease: after 100 virtual ms without
  // contact it stops trusting its own tokens.
  CacheManager::Options copts;
  copts.client_lease_ttl_ms = 100;
  CacheManager* alice = rig->NewClient("alice", copts);
  ASSERT_OK_AND_ASSIGN(VfsRef avfs, alice->MountVolume("home"));
  ASSERT_OK(WriteShared(*avfs, "/f", "committed", TestCred()));
  ASSERT_OK(alice->SyncAll());
  // Warm the cache: this read is served locally afterwards.
  ASSERT_OK_AND_ASSIGN(std::string warm, ReadFileAt(*avfs, "/f"));
  EXPECT_EQ(warm, "committed");

  // A second host in the lease roster who stays silent after the restart:
  // with him outstanding the grace window cannot close early on roster
  // completion, so the server must keep answering kRecovering below.
  CacheManager* bob = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef bvfs, bob->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(std::string bwarm, ReadFileAt(*bvfs, "/f"));
  EXPECT_EQ(bwarm, "committed");

  rig->RestartServer(/*grace_period_ms=*/200);

  // The client lease has lapsed, so the next read goes to the server instead
  // of trusting cached tokens — and the server answers kRecovering until the
  // grace period ends. Run the read with the virtual clock FROZEN mid-grace:
  // the window cannot close, so the read can only spin on kRecovering, which
  // both sides must observe before we let time move again. No stale data is
  // served from either side.
  rig->clock.AdvanceMillis(150);  // lease expired; 50 ms of grace remain
  std::string after;
  Status read_status(ErrorCode::kInternal, "read did not run");
  std::atomic<bool> reader_done{false};
  std::thread reader([&] {
    auto r = ReadFileAt(*avfs, "/f");
    read_status = r.status();
    if (r.ok()) {
      after = *r;
    }
    reader_done.store(true, std::memory_order_release);
  });
  while (!reader_done.load(std::memory_order_acquire) &&
         (alice->stats().recovering_retries < 1 ||
          rig->server->recovery_stats().recovering_rejections < 1)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The read finishing while the clock was frozen would mean data was served
  // inside the grace window — exactly the bug this test exists to catch.
  EXPECT_FALSE(reader_done.load(std::memory_order_acquire));
  EXPECT_GE(alice->stats().recovering_retries, 1u);
  EXPECT_GE(rig->server->recovery_stats().recovering_rejections, 1u);
  {
    ClockDriver driver(rig.get());
    reader.join();
  }
  ASSERT_OK(read_status);
  EXPECT_EQ(after, "committed");
  EXPECT_GE(alice->stats().stale_epoch_retries, 1u);
}

TEST(RecoveryTest, VldbEpochAvoidsStaleEpochBounce) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* alice = rig->NewClient("alice");
  ASSERT_NE(alice, nullptr);
  ASSERT_OK_AND_ASSIGN(VfsRef avfs, alice->MountVolume("home"));
  ASSERT_OK(WriteShared(*avfs, "/f", "committed", TestCred()));
  ASSERT_OK(alice->SyncAll());

  rig->RestartServer();  // no grace; the VLDB entry now carries epoch 2

  // A client that tracks the restart (or a volume move) through the VLDB
  // re-fetches the location entry, sees an epoch ahead of the one it learned
  // at connect time, and reasserts proactively — the data call that follows
  // never eats a kStaleEpoch bounce.
  alice->vldb().InvalidateCache(rig->volume_id);
  ASSERT_OK(WriteShared(*avfs, "/g", "after restart", TestCred()));
  auto stats = alice->stats();
  EXPECT_EQ(stats.stale_epoch_retries, 0u);
  EXPECT_GE(stats.reasserted_tokens, 1u);
  // The pre-restart cache is still intact and served locally.
  ASSERT_OK_AND_ASSIGN(std::string now, ReadFileAt(*avfs, "/f"));
  EXPECT_EQ(now, "committed");
}

TEST(RecoveryTest, GraceEndsEarlyOnceRosterReasserts) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* alice = rig->NewClient("alice");
  ASSERT_NE(alice, nullptr);
  ASSERT_OK_AND_ASSIGN(VfsRef avfs, alice->MountVolume("home"));
  ASSERT_OK(WriteShared(*avfs, "/f", "committed", TestCred()));
  ASSERT_OK(alice->SyncAll());

  // Alice is the entire lease roster. Restart with a grace period far longer
  // than the test: with the virtual clock frozen, the window can only close
  // by roster completion.
  rig->RestartServer(/*grace_period_ms=*/60'000);
  EXPECT_TRUE(rig->server->in_grace());

  // Her next call bounces kStaleEpoch, reasserts, and completes the roster —
  // ending grace immediately, no clock advance needed.
  ASSERT_OK(WriteShared(*avfs, "/g", "post restart", TestCred()));
  EXPECT_FALSE(rig->server->in_grace());
  EXPECT_GE(alice->stats().reasserted_tokens, 1u);

  // A different host's fresh grant is admitted well before grace_period_ms.
  CacheManager* bob = rig->NewClient("bob");
  ASSERT_NE(bob, nullptr);
  ASSERT_OK_AND_ASSIGN(VfsRef bvfs, bob->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(std::string now, ReadFileAt(*bvfs, "/f"));
  EXPECT_EQ(now, "committed");
}

TEST(RecoveryTest, DoubleRestartMidGrace) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* alice = rig->NewClient("alice");
  ASSERT_OK_AND_ASSIGN(VfsRef avfs, alice->MountVolume("home"));
  ASSERT_OK(WriteShared(*avfs, "/f", "survives two restarts", TestCred()));

  // Two restarts back to back: the second lands while the first's grace
  // period is still open. Clients must end up reasserted against epoch 3.
  rig->RestartServer(/*grace_period_ms=*/200);
  rig->RestartServer(/*grace_period_ms=*/200);
  EXPECT_EQ(rig->server->epoch(), 3u);

  {
    ClockDriver driver(rig.get());
    ASSERT_OK(alice->SyncAll());
  }
  EXPECT_GE(alice->stats().reasserted_tokens, 1u);
  EXPECT_EQ(rig->server->recovery_stats().reasserting_hosts, 1u);

  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*avfs, "/f"));
  EXPECT_EQ(back, "survives two restarts");
}

// --- Lease expiry: a silent host cannot wedge the fan-out ---

TEST(RecoveryTest, LeaseExpiryUnblocksFanout) {
  DfsRig::Options opts;
  opts.server.recovery.lease_ttl_ms = 100;
  auto rig = DfsRig::Create(opts);
  ASSERT_NE(rig, nullptr);
  CacheManager* alice = rig->NewClient("alice");
  CacheManager* bob = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef avfs, alice->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef bvfs, bob->MountVolume("home"));

  // Alice holds write tokens on /f, then goes silent behind a partition.
  ASSERT_OK(WriteShared(*avfs, "/f", "alice was here", TestCred()));
  ASSERT_OK(alice->SyncAll());
  rig->net.Partition(alice->node(), kServerNode, true);

  // Her lease lapses (virtual time; nothing else advances it).
  rig->clock.AdvanceMillis(250);

  // Bob's conflicting write must not block on revocation RPCs to a host the
  // server already knows is gone: the lease hook garbage-collects her tokens
  // during conflict resolution.
  ASSERT_OK(WriteShared(*bvfs, "/f", "bob moves on", TestCred(101)));
  ASSERT_OK(bob->SyncAll());
  EXPECT_GE(rig->server->tokens().stats().lease_expired_drops, 1u);

  ASSERT_OK_AND_ASSIGN(std::string now, ReadFileAt(*bvfs, "/f"));
  EXPECT_EQ(now, "bob moves on");
}

// --- Reassertion racing a concurrent conflicting grant ---

TEST(RecoveryTest, ReassertRacesConcurrentGrant) {
  const Fid fid{1, 2, 3};
  for (int round = 0; round < 20; ++round) {
    TokenManager tm;
    CountingHost survivor("survivor");
    CountingHost newcomer("newcomer");
    tm.RegisterHost(1, &survivor);
    tm.RegisterHost(2, &newcomer);

    // The token the survivor held under the previous incarnation, with the
    // id that incarnation minted for this volume.
    TokenManager previous;
    ASSERT_OK_AND_ASSIGN(Token minted,
                         previous.Grant(1, fid, kTokenDataRead, ByteRange::All()));
    Token old_token;
    old_token.id = minted.id;
    old_token.fid = fid;
    old_token.types = kTokenDataWrite | kTokenStatusWrite;
    old_token.range = ByteRange::All();
    old_token.host = 1;

    Status reassert = Status::Ok();
    Result<Token> grant = Status::Ok();
    std::thread t1([&] { reassert = tm.Reassert(old_token); });
    std::thread t2([&] { grant = tm.Grant(2, fid, kTokenDataWrite, ByteRange::All()); });
    t1.join();
    t2.join();

    // Whichever side won, the surviving token set must be conflict-free:
    // either the grant got there first (reassertion rejected), or the
    // reassertion landed and the grant revoked it.
    std::vector<Token> tokens = tm.TokensForFid(fid);
    for (size_t i = 0; i < tokens.size(); ++i) {
      for (size_t j = i + 1; j < tokens.size(); ++j) {
        if (tokens[i].host == tokens[j].host) {
          continue;
        }
        EXPECT_TRUE(TokensCompatible(tokens[i].types, tokens[i].range, tokens[j].types,
                                     tokens[j].range))
            << "round " << round << ": conflicting tokens survived the race";
      }
    }
    if (!reassert.ok()) {
      EXPECT_EQ(reassert.code(), ErrorCode::kConflict);
      EXPECT_GE(tm.stats().reassert_conflicts, 1u);
    }
    ASSERT_OK(grant.status());
  }
}

TEST(RecoveryTest, ReassertIsIdempotentAndBindsToHolder) {
  TokenManager tm;
  CountingHost a("a");
  CountingHost b("b");
  tm.RegisterHost(1, &a);
  tm.RegisterHost(2, &b);

  // An id the previous incarnation minted for this volume.
  TokenManager previous;
  ASSERT_OK_AND_ASSIGN(Token minted,
                       previous.Grant(1, Fid{1, 2, 3}, kTokenDataRead, ByteRange::All()));
  Token t;
  t.id = minted.id;
  t.fid = Fid{1, 2, 3};
  t.types = kTokenDataRead | kTokenStatusRead;
  t.range = ByteRange::All();
  t.host = 1;
  ASSERT_OK(tm.Reassert(t));
  // The same holder reasserting again (a retried batch) is a no-op success.
  ASSERT_OK(tm.Reassert(t));
  EXPECT_EQ(tm.TokensForFid(t.fid).size(), 1u);

  // Another host claiming the same token id is rejected.
  Token thief = t;
  thief.host = 2;
  Status s = tm.Reassert(thief);
  EXPECT_EQ(s.code(), ErrorCode::kConflict);

  // Fresh grants never collide with the reasserted id space.
  ASSERT_OK_AND_ASSIGN(Token fresh, tm.Grant(1, Fid{1, 7, 7}, kTokenDataRead,
                                             ByteRange::All()));
  EXPECT_GT(fresh.id, t.id);
}

// --- Per-host revocation batching ---

TEST(RecoveryTest, RevokeBatchCoalescesPerHost) {
  TokenManager tm;
  CountingHost holder("holder");
  CountingHost writer("writer");
  tm.RegisterHost(1, &holder);
  tm.RegisterHost(2, &writer);

  // Host 1 caches three files of the same volume.
  for (uint64_t vnode = 2; vnode <= 4; ++vnode) {
    ASSERT_OK(tm.Grant(1, Fid{1, vnode, 1}, kTokenDataRead | kTokenStatusRead,
                       ByteRange::All())
                  .status());
  }
  // A whole-volume write grant conflicts with all three at once: one fan-out
  // round, one host, one RevokeBatch callback carrying all three items.
  ASSERT_OK(tm.Grant(2, Fid{1, 0, 0}, kTokenDataWrite | kTokenWholeVolume,
                     ByteRange::All())
                .status());
  EXPECT_EQ(holder.batch_calls(), 1u);
  EXPECT_EQ(holder.batched_items(), 3u);
  EXPECT_EQ(holder.single_calls(), 0u);
  EXPECT_GE(tm.stats().host_batches, 1u);
}

TEST(RecoveryTest, RevokeBatchEndToEnd) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* alice = rig->NewClient("alice");
  CacheManager* bob = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef avfs, alice->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef bvfs, bob->MountVolume("home"));

  // Alice caches three files (data + status read tokens on each).
  for (const char* path : {"/f1", "/f2", "/f3"}) {
    ASSERT_OK(WriteShared(*avfs, path, "cached at alice", TestCred()));
  }
  ASSERT_OK(alice->SyncAll());
  // Bob connects (registering his host module with the server).
  ASSERT_OK_AND_ASSIGN(std::string unused, ReadFileAt(*bvfs, "/f1"));
  (void)unused;
  uint64_t batches_before = alice->stats().revocation_batches;

  // A whole-volume write grant to Bob's host revokes all of Alice's tokens
  // in one fan-out round — which must reach her as a single batched RPC, not
  // one call per token.
  ASSERT_OK(rig->server->tokens()
                .Grant(bob->node(), Fid{rig->volume_id, 0, 0},
                       kTokenDataWrite | kTokenWholeVolume, ByteRange::All())
                .status());
  EXPECT_GE(alice->stats().revocation_batches, batches_before + 1);
  EXPECT_GE(rig->server->tokens().stats().host_batches, 1u);
}

// --- Shard-lock contention counters ---

TEST(RecoveryTest, ShardLockCountersAccumulate) {
  TokenManager tm;
  CountingHost h("h");
  tm.RegisterHost(1, &h);
  for (uint64_t vnode = 1; vnode <= 8; ++vnode) {
    ASSERT_OK(tm.Grant(1, Fid{1, vnode, 1}, kTokenDataRead, ByteRange::All()).status());
  }
  auto stats = tm.stats();
  EXPECT_GT(stats.lock_acquisitions, 0u);
  EXPECT_LE(stats.lock_contended, stats.lock_acquisitions);
}

// --- Keep-alive daemon ---

TEST(RecoveryTest, KeepAliveDetectsRestartWithoutForegroundTraffic) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager::Options copts;
  copts.keepalive_interval_ms = 5;
  CacheManager* alice = rig->NewClient("alice", copts);
  ASSERT_OK_AND_ASSIGN(VfsRef avfs, alice->MountVolume("home"));
  ASSERT_OK(WriteShared(*avfs, "/f", "pre-restart", TestCred()));
  ASSERT_OK(alice->SyncAll());

  rig->RestartServer();  // no grace: reassertions land immediately

  // With no foreground calls at all, the keep-alive daemon notices the new
  // incarnation (its ping fails against the forgotten host registration) and
  // reasserts the client's tokens in the background.
  for (int i = 0; i < 400 && alice->stats().reasserted_tokens == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(alice->stats().reasserted_tokens, 1u);
  EXPECT_GE(alice->stats().keepalives_sent, 1u);
  EXPECT_EQ(rig->server->recovery_stats().reasserting_hosts, 1u);

  // The reasserted tokens are live: the next read is served without error.
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*avfs, "/f"));
  EXPECT_EQ(back, "pre-restart");
}

}  // namespace
}  // namespace dfs
