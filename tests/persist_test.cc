// Persistent client cache (src/client/persist): the disk-backed block store
// with its token journal, and CacheManager::Recover()'s warm-reboot path —
// a killed client reopens the same medium, reasserts journaled tokens, and
// serves its pre-crash working set without re-fetching a byte. Crash-point
// sweeps prove the store recovers from any prefix of its write path, and a
// double-crash (a crash during recovery itself) neither duplicates tokens
// nor resurrects data a peer overwrote in the meantime.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/client/persist/persistent_cache.h"
#include "src/vfs/path.h"
#include "tests/cache_store_util.h"
#include "tests/dfs_rig.h"
#include "tests/test_util.h"

namespace dfs {
namespace {

using JournalOp = PersistentCacheStore::JournalOp;
using JournalRecord = PersistentCacheStore::JournalRecord;

// Creates (mode 0666, so any principal may write) and fills a shared file.
Status WriteShared(Vfs& vfs, const std::string& path, std::string_view contents,
                   const Cred& cred) {
  if (!ResolvePath(vfs, path).ok()) {
    RETURN_IF_ERROR(CreateFileAt(vfs, path, 0666, cred).status());
  }
  return WriteFileAt(vfs, path, contents, cred);
}

std::vector<uint8_t> Fill(uint8_t byte) { return std::vector<uint8_t>(kBlockSize, byte); }

// True if every byte of the block is `byte` — a torn write would mix values.
bool Uniform(std::span<const uint8_t> data, uint8_t byte) {
  for (uint8_t b : data) {
    if (b != byte) {
      return false;
    }
  }
  return true;
}

Token MakeToken(TokenId id, const Fid& fid, uint32_t types, HostId host = 7) {
  Token t;
  t.id = id;
  t.fid = fid;
  t.types = types;
  t.host = host;
  return t;
}

// --- Store-level unit tests ---

TEST(PersistentStoreTest, RoundTripAndWarmReopen) {
  auto disk = std::make_unique<SimDisk>(1024);
  Fid f{1, 7, 3};
  {
    ASSERT_OK_AND_ASSIGN(auto store, PersistentCacheStore::Open(disk.get()));
    EXPECT_FALSE(store->recovered().recovered);  // virgin disk was formatted
    ASSERT_OK(store->PutBlock(f, 0, Fill(0x11), /*dirty=*/false, /*stamp=*/100,
                              /*data_version=*/5, /*file_size=*/3 * kBlockSize));
    ASSERT_OK(store->PutBlock(f, 2, Fill(0x22), /*dirty=*/true, 100, 5, 3 * kBlockSize));
    std::vector<uint8_t> out(kBlockSize);
    ASSERT_OK(GetBytes(*store, f, 0, out));
    EXPECT_TRUE(Uniform(out, 0x11));
    EXPECT_GT(store->bytes_used(), 0u);
    ASSERT_OK(store->Journal(JournalOp::kGrant,
                             MakeToken(9, f, kTokenDataRead | kTokenStatusRead), /*epoch=*/4));
    // Clean shutdown: the destructor syncs the WAL and index.
  }
  ASSERT_OK_AND_ASSIGN(auto store, PersistentCacheStore::Open(disk.get()));
  ASSERT_TRUE(store->recovered().recovered);
  ASSERT_EQ(store->recovered().files.size(), 1u);
  const auto& rf = store->recovered().files[0];
  EXPECT_EQ(rf.fid, f);
  ASSERT_EQ(rf.blocks.size(), 2u);
  std::map<uint64_t, PersistentCacheStore::RecoveredBlock> by_block;
  for (const auto& b : rf.blocks) {
    by_block[b.block] = b;
  }
  ASSERT_EQ(by_block.count(0), 1u);
  EXPECT_FALSE(by_block[0].dirty);
  EXPECT_EQ(by_block[0].stamp, 100u);
  EXPECT_EQ(by_block[0].data_version, 5u);
  ASSERT_EQ(by_block.count(2), 1u);
  EXPECT_TRUE(by_block[2].dirty);
  ASSERT_EQ(store->recovered().tokens.size(), 1u);
  EXPECT_EQ(store->recovered().tokens[0].token.id, 9u);
  EXPECT_EQ(store->recovered().tokens[0].token.types, kTokenDataRead | kTokenStatusRead);
  EXPECT_EQ(store->recovered().tokens[0].epoch, 4u);
  // The data survived the reboot too.
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_OK(GetBytes(*store, f, 0, out));
  EXPECT_TRUE(Uniform(out, 0x11));
  ASSERT_OK(GetBytes(*store, f, 2, out));
  EXPECT_TRUE(Uniform(out, 0x22));
}

TEST(PersistentStoreTest, MarkCleanAndEraseSurviveReopen) {
  auto disk = std::make_unique<SimDisk>(1024);
  Fid f{1, 8, 1};
  {
    ASSERT_OK_AND_ASSIGN(auto store, PersistentCacheStore::Open(disk.get()));
    ASSERT_OK(store->PutBlock(f, 0, Fill(0x31), /*dirty=*/true, 10, 1, 2 * kBlockSize));
    ASSERT_OK(store->PutBlock(f, 1, Fill(0x32), /*dirty=*/true, 10, 1, 2 * kBlockSize));
    ASSERT_OK(store->MarkClean(f, 0, /*stamp=*/11, /*data_version=*/2, 2 * kBlockSize));
    store->Erase(f, 1);
  }
  ASSERT_OK_AND_ASSIGN(auto store, PersistentCacheStore::Open(disk.get()));
  ASSERT_TRUE(store->recovered().recovered);
  ASSERT_EQ(store->recovered().files.size(), 1u);
  const auto& rf = store->recovered().files[0];
  ASSERT_EQ(rf.blocks.size(), 1u);
  EXPECT_EQ(rf.blocks[0].block, 0u);
  EXPECT_FALSE(rf.blocks[0].dirty);
  EXPECT_EQ(rf.blocks[0].stamp, 11u);
  EXPECT_EQ(rf.blocks[0].data_version, 2u);
}

TEST(PersistentStoreTest, ClampFileSizesSurvivesReopen) {
  auto disk = std::make_unique<SimDisk>(1024);
  Fid f{1, 9, 2};
  Fid other{1, 10, 4};
  {
    ASSERT_OK_AND_ASSIGN(auto store, PersistentCacheStore::Open(disk.get()));
    ASSERT_OK(store->PutBlock(f, 0, Fill(0x41), /*dirty=*/true, /*stamp=*/10,
                              /*data_version=*/3, /*file_size=*/3 * kBlockSize));
    ASSERT_OK(store->PutBlock(f, 1, Fill(0x42), /*dirty=*/false, 10, 3, 3 * kBlockSize));
    ASSERT_OK(store->PutBlock(other, 0, Fill(0x43), /*dirty=*/false, 10, 7, 5 * kBlockSize));
    // The file shrank to one block: every surviving entry must stop claiming
    // the pre-truncate size.
    ASSERT_OK(store->ClampFileSizes(f, kBlockSize));
  }
  ASSERT_OK_AND_ASSIGN(auto store, PersistentCacheStore::Open(disk.get()));
  ASSERT_TRUE(store->recovered().recovered);
  for (const auto& rf : store->recovered().files) {
    for (const auto& b : rf.blocks) {
      if (rf.fid == f) {
        EXPECT_LE(b.file_size, kBlockSize) << "block " << b.block;
      } else {
        EXPECT_EQ(b.file_size, 5 * kBlockSize);  // other files untouched
      }
    }
  }
}

TEST(PersistentStoreTest, JournalEraseUpdateAndCheckpointCompaction) {
  auto disk = std::make_unique<SimDisk>(2048);
  Fid f{1, 9, 1};
  {
    ASSERT_OK_AND_ASSIGN(auto store, PersistentCacheStore::Open(disk.get()));
    // Re-granting the same id updates the record in place (revocations that
    // narrow a token do this); enough appends to force at least one in-place
    // compaction of the active half.
    for (int round = 0; round < 1200; ++round) {
      TokenId id = 1 + (round % 10);
      uint32_t types = (round % 2) ? kTokenDataRead : (kTokenDataRead | kTokenDataWrite);
      ASSERT_OK(store->Journal(JournalOp::kGrant, MakeToken(id, f, types), /*epoch=*/2));
    }
    for (TokenId id : {2, 4, 6}) {
      ASSERT_OK(store->Journal(JournalOp::kErase, MakeToken(id, f, kTokenDataRead), 2));
    }
  }
  ASSERT_OK_AND_ASSIGN(auto store, PersistentCacheStore::Open(disk.get()));
  ASSERT_TRUE(store->recovered().recovered);
  std::set<TokenId> live;
  for (const auto& rec : store->recovered().tokens) {
    EXPECT_EQ(rec.op, JournalOp::kGrant);
    live.insert(rec.token.id);
  }
  EXPECT_EQ(live, (std::set<TokenId>{1, 3, 5, 7, 8, 9, 10}));

  // An explicit checkpoint replaces the live set wholesale.
  std::vector<JournalRecord> survivors{{JournalOp::kGrant, MakeToken(3, f, kTokenDataRead), 5}};
  ASSERT_OK(store->CheckpointJournal(survivors));
  store.reset();
  ASSERT_OK_AND_ASSIGN(auto reopened, PersistentCacheStore::Open(disk.get()));
  ASSERT_EQ(reopened->recovered().tokens.size(), 1u);
  EXPECT_EQ(reopened->recovered().tokens[0].token.id, 3u);
  EXPECT_EQ(reopened->recovered().tokens[0].epoch, 5u);
}

TEST(PersistentStoreTest, EvictionStaysWithinCapacity) {
  auto disk = std::make_unique<SimDisk>(512);
  ASSERT_OK_AND_ASSIGN(auto store, PersistentCacheStore::Open(disk.get()));
  uint64_t slots = store->data_slots();
  ASSERT_GT(slots, 0u);
  Fid f{1, 11, 1};
  for (uint64_t b = 0; b < slots + 8; ++b) {
    ASSERT_OK(store->PutBlock(f, b, Fill(uint8_t(b & 0xFF)), false, 1, 1, 0));
  }
  EXPECT_LE(store->bytes_used(), slots * kBlockSize);
  // The most recent put always survives.
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_OK(GetBytes(*store, f, slots + 7, out));
  EXPECT_TRUE(Uniform(out, uint8_t((slots + 7) & 0xFF)));
}

TEST(PersistentStoreTest, PrivateStoreWritesOnlyDataAndKeepsDirtySlots) {
  // A private disk dies with its client, so its store writes data slots and
  // nothing else: no format, no index WAL, no token journal.
  ASSERT_OK_AND_ASSIGN(auto store, PersistentCacheStore::CreatePrivate(512));
  const uint64_t slots = store->data_slots();
  ASSERT_GT(slots, 1u);
  EXPECT_EQ(store->device_writes(), 0u);
  Fid f{1, 12, 1};
  // Every slot dirty but the last.
  for (uint64_t b = 0; b < slots; ++b) {
    ASSERT_OK(store->PutBlock(f, b, Fill(uint8_t(b & 0xFF)), /*dirty=*/b + 1 < slots, 1, 1, 0));
  }
  ASSERT_OK(store->Journal(JournalOp::kGrant, MakeToken(3, f, kTokenDataRead), /*epoch=*/1));
  ASSERT_OK(store->Sync());
  EXPECT_EQ(store->device_writes(), slots);
  EXPECT_EQ(store->journal_appends_since_checkpoint(), 0u);
  EXPECT_EQ(store->recovered().recovered, false);

  // A full store recycles only its clean slot; then it has no victim left.
  ASSERT_OK(store->PutBlock(f, slots, Fill(0xEE), /*dirty=*/true, 1, 1, 0));
  std::vector<uint8_t> out(kBlockSize);
  EXPECT_EQ(GetBytes(*store, f, slots - 1, out).code(), ErrorCode::kNotFound);
  for (uint64_t b = 0; b + 1 < slots; ++b) {
    ASSERT_OK(GetBytes(*store, f, b, out));
    ASSERT_TRUE(Uniform(out, uint8_t(b & 0xFF))) << "dirty block " << b;
  }
  EXPECT_EQ(store->PutBlock(f, slots + 1, Fill(0xEF), false, 1, 1, 0).code(),
            ErrorCode::kNoSpace);
  // A store-back marks a dirty block clean, which makes it a victim again.
  ASSERT_OK(store->MarkClean(f, 0, 2, 2, 0));
  ASSERT_OK(store->PutBlock(f, slots + 1, Fill(0xEF), /*dirty=*/false, 1, 1, 0));
  EXPECT_EQ(GetBytes(*store, f, 0, out).code(), ErrorCode::kNotFound);
  ASSERT_OK(GetBytes(*store, f, 1, out));
  EXPECT_TRUE(Uniform(out, 1));
}

// --- Crash-point sweep: every prefix of the write path must recover ---

TEST(PersistentStoreTest, CrashPointSweepRecoversFromAnyPrefix) {
  Fid a{1, 20, 1};
  Token t1 = MakeToken(1, a, kTokenDataRead);
  Token t2 = MakeToken(2, a, kTokenDataRead | kTokenDataWrite);
  JournalRecord ckpt_rec;
  ckpt_rec.op = JournalOp::kGrant;
  ckpt_rec.token = t2;
  ckpt_rec.epoch = 1;
  std::vector<JournalRecord> checkpoint{ckpt_rec};

  // The scripted op sequence; `acked[i]` records which ops returned Ok before
  // the injected crash cut the device off.
  auto run_script = [&](PersistentCacheStore& s, std::array<bool, 8>& acked) {
    acked[0] = s.PutBlock(a, 0, Fill(0xA1), /*dirty=*/false, 1, 1, 2 * kBlockSize).ok();
    acked[1] = s.PutBlock(a, 1, Fill(0xA2), /*dirty=*/true, 1, 1, 2 * kBlockSize).ok();
    acked[2] = s.Journal(JournalOp::kGrant, t1, 1).ok();
    acked[3] = s.PutBlock(a, 0, Fill(0xA3), /*dirty=*/false, 2, 2, 2 * kBlockSize).ok();  // overwrite
    acked[4] = s.MarkClean(a, 1, 3, 3, 2 * kBlockSize).ok();
    acked[5] = s.Journal(JournalOp::kGrant, t2, 1).ok();
    acked[6] = s.Journal(JournalOp::kErase, t1, 1).ok();
    acked[7] = s.CheckpointJournal(checkpoint).ok();
  };

  // Baseline run (no crash) to learn how many device writes the script costs.
  uint64_t total_writes = 0;
  {
    auto disk = std::make_unique<SimDisk>(1024);
    ASSERT_OK_AND_ASSIGN(auto store, PersistentCacheStore::Open(disk.get()));
    uint64_t before = store->device_writes();
    std::array<bool, 8> acked{};
    run_script(*store, acked);
    for (bool ok : acked) {
      ASSERT_TRUE(ok);
    }
    total_writes = store->device_writes() - before;
  }
  ASSERT_GT(total_writes, 0u);

  for (uint64_t n = 0; n <= total_writes; ++n) {
    SCOPED_TRACE("crash after " + std::to_string(n) + " of " +
                 std::to_string(total_writes) + " writes");
    auto disk = std::make_unique<SimDisk>(1024);
    std::array<bool, 8> acked{};
    {
      ASSERT_OK_AND_ASSIGN(auto store, PersistentCacheStore::Open(disk.get()));
      store->CrashAfterWrites(n);
      run_script(*store, acked);
    }
    // Reopen MUST succeed from any prefix of the medium.
    ASSERT_OK_AND_ASSIGN(auto store, PersistentCacheStore::Open(disk.get()));
    ASSERT_TRUE(store->recovered().recovered);

    std::map<uint64_t, PersistentCacheStore::RecoveredBlock> blocks;
    for (const auto& rf : store->recovered().files) {
      ASSERT_EQ(rf.fid, a);
      for (const auto& b : rf.blocks) {
        blocks[b.block] = b;
      }
    }
    std::vector<uint8_t> out(kBlockSize);

    // Block (a, 0): acked overwrite → exactly the new bytes; otherwise the
    // old acked value or durably invalidated — never torn, never mixed-up
    // metadata.
    if (acked[3]) {
      ASSERT_EQ(blocks.count(0), 1u);
      EXPECT_FALSE(blocks[0].dirty);
      EXPECT_EQ(blocks[0].data_version, 2u);
      ASSERT_OK(GetBytes(*store, a, 0, out));
      EXPECT_TRUE(Uniform(out, 0xA3));
    } else if (blocks.count(0) != 0) {
      EXPECT_FALSE(blocks[0].dirty);
      ASSERT_OK(GetBytes(*store, a, 0, out));
      if (blocks[0].data_version == 2) {
        EXPECT_TRUE(Uniform(out, 0xA3));  // commit landed, ack did not
      } else {
        EXPECT_EQ(blocks[0].data_version, 1u);
        EXPECT_TRUE(Uniform(out, 0xA1));
      }
    }

    // Block (a, 1): either the dirty put, the acked mark-clean, or absent.
    if (acked[4]) {
      ASSERT_EQ(blocks.count(1), 1u);
      EXPECT_FALSE(blocks[1].dirty);
      EXPECT_EQ(blocks[1].data_version, 3u);
    } else if (blocks.count(1) != 0) {
      EXPECT_TRUE(blocks[1].dirty || blocks[1].data_version == 3);
    }
    if (blocks.count(1) != 0) {
      ASSERT_OK(GetBytes(*store, a, 1, out));
      EXPECT_TRUE(Uniform(out, 0xA2));
    }
    if (acked[1] && !acked[3]) {
      // An acked put is durable (the overwrite of block 0 may later have
      // invalidated that slot, but block 1 is untouched after its put).
      EXPECT_EQ(blocks.count(1), 1u);
    }

    // Token journal: the live set must be one of the states the op history
    // passes through — a crash rewinds, it never invents or tears.
    std::set<TokenId> live;
    for (const auto& rec : store->recovered().tokens) {
      live.insert(rec.token.id);
    }
    if (acked[6] || acked[7]) {
      EXPECT_EQ(live, (std::set<TokenId>{2}));
    } else if (acked[5]) {
      EXPECT_TRUE(live == (std::set<TokenId>{1, 2}) || live == (std::set<TokenId>{2}));
    } else if (acked[2]) {
      EXPECT_TRUE(live == (std::set<TokenId>{1}) || live == (std::set<TokenId>{1, 2}));
    } else {
      EXPECT_LE(live.size(), 1u);
    }

    // And the reopened store is fully usable.
    Fid b{1, 21, 1};
    ASSERT_OK(store->PutBlock(b, 0, Fill(0x55), false, 9, 9, kBlockSize));
    ASSERT_OK(GetBytes(*store, b, 0, out));
    EXPECT_TRUE(Uniform(out, 0x55));
  }
}

// --- Full-stack warm reboot (the PR's acceptance scenario) ---

CacheManager::Options PersistentClientOptions(SimDisk* disk) {
  CacheManager::Options copts;
  copts.persistent_cache_disk = disk;
  copts.node = kFirstClientNode;  // reboots keep the host identity
  return copts;
}

TEST(WarmRebootTest, ServesWorkingSetWithZeroFetchDataRpcs) {
  // The cache medium outlives the rig: client stores sync to it on teardown.
  SimDisk cache_disk(2048);
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* alice = rig->NewClient("alice", PersistentClientOptions(&cache_disk));
  ASSERT_NE(alice, nullptr);
  ASSERT_NE(alice->persistent_store(), nullptr);
  ASSERT_OK_AND_ASSIGN(VfsRef avfs, alice->MountVolume("home"));
  std::string contents(3 * kBlockSize + 100, 'w');
  ASSERT_OK(WriteShared(*avfs, "/warm", contents, TestCred()));
  ASSERT_OK(alice->SyncAll());
  ASSERT_OK_AND_ASSIGN(std::string read1, ReadFileAt(*avfs, "/warm"));
  ASSERT_EQ(read1, contents);

  // kill -9: no clean shutdown, the medium keeps exactly what it has.
  alice->persistent_store()->CrashNow();
  avfs.reset();
  rig->clients[0].reset();

  auto server_before = rig->server->stats();
  CacheManager* warm = rig->NewClient("alice", PersistentClientOptions(&cache_disk));
  ASSERT_NE(warm, nullptr);
  ASSERT_NE(warm->persistent_store(), nullptr);
  ASSERT_TRUE(warm->persistent_store()->recovered().recovered);
  ASSERT_OK(warm->Recover());

  auto wstats = warm->stats();
  EXPECT_GE(wstats.warm_tokens_recovered, 1u);
  EXPECT_GE(wstats.warm_blocks_recovered, 4u);  // the whole working set came back
  EXPECT_EQ(wstats.warm_dirty_resumed, 0u);     // everything was synced pre-crash

  ASSERT_OK_AND_ASSIGN(VfsRef wvfs, warm->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(std::string read2, ReadFileAt(*wvfs, "/warm"));
  EXPECT_EQ(read2, contents);

  // The acceptance bar: ZERO kFetchData RPCs for the clean cached blocks, and
  // no client-side data miss either.
  auto server_after = rig->server->stats();
  EXPECT_EQ(server_after.fetch_data_calls, server_before.fetch_data_calls);
  EXPECT_EQ(warm->stats().data_cache_misses, 0u);
}

TEST(WarmRebootTest, DirtyBlocksResumeAndFlushAfterReboot) {
  // The cache medium outlives the rig: client stores sync to it on teardown.
  SimDisk cache_disk(2048);
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* alice = rig->NewClient("alice", PersistentClientOptions(&cache_disk));
  ASSERT_NE(alice, nullptr);
  ASSERT_OK_AND_ASSIGN(VfsRef avfs, alice->MountVolume("home"));
  // Establish the file (and its base data_version) at the server, then leave
  // a second write dirty in the cache when the client dies.
  ASSERT_OK(WriteShared(*avfs, "/dirty", std::string(kBlockSize, 'a'), TestCred()));
  ASSERT_OK(alice->SyncAll());
  ASSERT_OK(WriteShared(*avfs, "/dirty", std::string(kBlockSize, 'b'), TestCred()));
  alice->persistent_store()->CrashNow();
  avfs.reset();
  rig->clients[0].reset();

  CacheManager* warm = rig->NewClient("alice", PersistentClientOptions(&cache_disk));
  ASSERT_NE(warm, nullptr);
  ASSERT_TRUE(warm->persistent_store()->recovered().recovered);
  ASSERT_OK(warm->Recover());
  EXPECT_GE(warm->stats().warm_dirty_resumed, 1u);

  // The resumed dirty data flushes to the server like any write-behind data.
  ASSERT_OK(warm->SyncAll());
  CacheManager* bob = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef bvfs, bob->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(std::string now, ReadFileAt(*bvfs, "/dirty"));
  EXPECT_EQ(now, std::string(kBlockSize, 'b'));
}

// A truncate must reach the cache medium: surviving entries written before
// the truncate recorded the old (larger) file size, and a warm reboot that
// trusted them could re-extend a file the server has since shrunk.
TEST(WarmRebootTest, TruncateClampsPersistedSizes) {
  // The cache medium outlives the rig: client stores sync to it on teardown.
  SimDisk cache_disk(2048);
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* alice = rig->NewClient("alice", PersistentClientOptions(&cache_disk));
  ASSERT_NE(alice, nullptr);
  ASSERT_OK_AND_ASSIGN(VfsRef avfs, alice->MountVolume("home"));
  ASSERT_OK(WriteShared(*avfs, "/trunc", std::string(3 * kBlockSize, 't'), TestCred()));
  ASSERT_OK(alice->SyncAll());  // blocks 0..2 persisted with file_size = 3 blocks
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*avfs, "/trunc"));
  Fid fid = f->fid();
  ASSERT_OK(f->Truncate(kBlockSize));
  f.reset();
  avfs.reset();
  rig->clients[0].reset();  // clean shutdown syncs the store

  // The medium itself must agree with the truncate: no surviving entry of the
  // file may record a size beyond it.
  {
    ASSERT_OK_AND_ASSIGN(auto store, PersistentCacheStore::Open(&cache_disk));
    ASSERT_TRUE(store->recovered().recovered);
    bool saw_block = false;
    for (const auto& rf : store->recovered().files) {
      if (!(rf.fid == fid)) {
        continue;
      }
      for (const auto& b : rf.blocks) {
        saw_block = true;
        EXPECT_LT(b.block, 1u) << "tail block survived the truncate";
        EXPECT_LE(b.file_size, kBlockSize) << "stale pre-truncate size persisted";
      }
    }
    EXPECT_TRUE(saw_block);  // block 0 must still be cached
  }

  // And a warm-rebooted client must not re-extend the file.
  CacheManager* warm = rig->NewClient("alice", PersistentClientOptions(&cache_disk));
  ASSERT_NE(warm, nullptr);
  ASSERT_OK(warm->Recover());
  ASSERT_OK_AND_ASSIGN(VfsRef wvfs, warm->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef wf, ResolvePath(*wvfs, "/trunc"));
  ASSERT_OK_AND_ASSIGN(FileAttr attr, wf->GetAttr());
  EXPECT_EQ(attr.size, kBlockSize);
}

// The keep-alive daemon doubles as the journal's maintenance timer: once
// enough raw appends pile up, a pass compacts them into a fresh baseline.
TEST(WarmRebootTest, KeepAliveCheckpointsTokenJournal) {
  SimDisk cache_disk(2048);
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager::Options copts = PersistentClientOptions(&cache_disk);
  copts.keepalive_interval_ms = 5;
  copts.journal_checkpoint_appends = 4;
  CacheManager* alice = rig->NewClient("alice", copts);
  ASSERT_NE(alice, nullptr);
  ASSERT_OK_AND_ASSIGN(VfsRef avfs, alice->MountVolume("home"));
  // Each file's tokens append grant records; comfortably exceed the
  // threshold so the next keep-alive pass must compact.
  for (int i = 0; i < 6; ++i) {
    ASSERT_OK(WriteShared(*avfs, "/ka" + std::to_string(i), "x", TestCred()));
  }
  // A pass may already have compacted mid-loop; either way raw appends keep
  // accumulating, so poll for the real postcondition — the daemon drains the
  // backlog below the threshold (not merely "some checkpoint happened").
  for (int i = 0;
       i < 400 && alice->persistent_store()->journal_appends_since_checkpoint() >= 4u; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(alice->stats().journal_checkpoints, 1u);
  EXPECT_LT(alice->persistent_store()->journal_appends_since_checkpoint(), 4u);
}

TEST(WarmRebootTest, PersistenceOffByDefaultStaysCold) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager::Options copts;  // defaults: no persistent cache
  copts.node = kFirstClientNode;
  CacheManager* alice = rig->NewClient("alice", copts);
  ASSERT_NE(alice, nullptr);
  // The default path is pinned to the in-memory/process-local store: no
  // persistent store object exists and Recover() is an explicit no-op.
  EXPECT_EQ(alice->persistent_store(), nullptr);
  ASSERT_OK(alice->Recover());
  EXPECT_EQ(alice->stats().warm_tokens_recovered, 0u);

  ASSERT_OK_AND_ASSIGN(VfsRef avfs, alice->MountVolume("home"));
  std::string contents(2 * kBlockSize, 'c');
  ASSERT_OK(WriteShared(*avfs, "/cold", contents, TestCred()));
  ASSERT_OK(alice->SyncAll());
  ASSERT_OK_AND_ASSIGN(std::string read1, ReadFileAt(*avfs, "/cold"));
  ASSERT_EQ(read1, contents);
  avfs.reset();
  rig->clients[0].reset();

  // A rebooted default client starts cold: the re-read goes to the server.
  auto server_before = rig->server->stats();
  CacheManager* reboot = rig->NewClient("alice", copts);
  ASSERT_NE(reboot, nullptr);
  ASSERT_OK(reboot->Recover());
  ASSERT_OK_AND_ASSIGN(VfsRef rvfs, reboot->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(std::string read2, ReadFileAt(*rvfs, "/cold"));
  EXPECT_EQ(read2, contents);
  auto server_after = rig->server->stats();
  EXPECT_GT(server_after.fetch_data_calls, server_before.fetch_data_calls);
  EXPECT_GT(reboot->stats().data_cache_misses, 0u);
}

// A crash in the middle of Recover() itself: the third boot must still come
// up, must not resurrect data a peer overwrote while the node was down, and
// must leave the server's token state consistent (no duplicated grants).
TEST(WarmRebootTest, DoubleCrashDoesNotResurrectStaleData) {
  // The cache medium outlives the rig: client stores sync to it on teardown.
  SimDisk cache_disk(2048);
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* alice = rig->NewClient("alice", PersistentClientOptions(&cache_disk));
  ASSERT_NE(alice, nullptr);
  ASSERT_OK_AND_ASSIGN(VfsRef avfs, alice->MountVolume("home"));
  std::string old_contents(2 * kBlockSize, 'o');
  ASSERT_OK(WriteShared(*avfs, "/dc", old_contents, TestCred()));
  ASSERT_OK(alice->SyncAll());
  ASSERT_OK_AND_ASSIGN(std::string read1, ReadFileAt(*avfs, "/dc"));
  ASSERT_EQ(read1, old_contents);
  alice->persistent_store()->CrashNow();
  avfs.reset();
  rig->clients[0].reset();

  // Second boot crashes partway through Recover()'s own journal writes.
  CacheManager* second = rig->NewClient("alice", PersistentClientOptions(&cache_disk));
  ASSERT_NE(second, nullptr);
  ASSERT_TRUE(second->persistent_store()->recovered().recovered);
  second->persistent_store()->CrashAfterWrites(2);
  (void)second->Recover();  // journal/checkpoint writes fail mid-flight
  rig->clients[1].reset();

  // While the node is down a peer overwrites the file (the server tears down
  // the unreachable host's tokens to grant the conflicting write).
  CacheManager* bob = rig->NewClient("bob");
  ASSERT_NE(bob, nullptr);
  ASSERT_OK_AND_ASSIGN(VfsRef bvfs, bob->MountVolume("home"));
  std::string new_contents(2 * kBlockSize, 'n');
  ASSERT_OK(WriteShared(*bvfs, "/dc", new_contents, TestCred()));
  ASSERT_OK(bob->SyncAll());

  // Third boot: recovery completes. The journaled tokens either reassert or
  // lose to bob's conflicting grant — either way the cached blocks fail the
  // data_version check and are dropped, never served.
  CacheManager* third = rig->NewClient("alice", PersistentClientOptions(&cache_disk));
  ASSERT_NE(third, nullptr);
  ASSERT_TRUE(third->persistent_store()->recovered().recovered);
  ASSERT_OK(third->Recover());
  auto tstats = third->stats();
  EXPECT_GE(tstats.warm_blocks_dropped, 2u);
  EXPECT_EQ(tstats.warm_dirty_resumed, 0u);

  ASSERT_OK_AND_ASSIGN(VfsRef tvfs, third->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(std::string now, ReadFileAt(*tvfs, "/dc"));
  EXPECT_EQ(now, new_contents);  // bob's version, not the pre-crash cache

  // The token state is healthy: the recovered node can still write (a fresh
  // grant, revoking bob), and bob then reads it back.
  std::string final_contents(2 * kBlockSize, 'f');
  ASSERT_OK(WriteShared(*tvfs, "/dc", final_contents, TestCred()));
  ASSERT_OK(third->SyncAll());
  ASSERT_OK_AND_ASSIGN(std::string check, ReadFileAt(*bvfs, "/dc"));
  EXPECT_EQ(check, final_contents);
}

}  // namespace
}  // namespace dfs
