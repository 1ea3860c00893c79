// End-to-end durability and client cache-capacity tests: fsync pushes data to
// the server *and* forces the Episode log; a bounded client cache evicts
// clean blocks LRU and refetches them on demand.
#include <gtest/gtest.h>

#include "src/vfs/path.h"
#include "tests/dfs_rig.h"
#include "tests/test_util.h"

namespace dfs {
namespace {

TEST(DurabilityTest, FsyncSurvivesServerCrash) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* client = rig->NewClient();
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  ASSERT_OK(WriteFileAt(*vfs, "/precious", "must survive", TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/precious"));
  Fid fid = f->fid();
  ASSERT_OK(client->Fsync(fid));

  // The server machine crashes: its caches die, the disk survives. Bring the
  // file server back on the same aggregate.
  ASSERT_OK(rig->CrashServer());

  // The client reconnects transparently; the fsynced file is there with its
  // metadata (name, size) intact — the Section 2.2 fsync contract (the log).
  ASSERT_OK(client->ReturnAllTokens());
  ASSERT_OK_AND_ASSIGN(VnodeRef f2, ResolvePath(*vfs, "/precious"));
  ASSERT_OK_AND_ASSIGN(FileAttr attr, f2->GetAttr());
  EXPECT_EQ(attr.size, 12u);
  EXPECT_EQ(f2->fid(), fid) << "FIDs are stable across a server restart";
}

// A 64-block file whose fsync push goes out as 16 four-block stores.
constexpr uint64_t kFileBlocks = 64;
constexpr uint64_t kChunkBytes = 4 * kBlockSize;

CacheManager::Options ChunkedClient() {
  CacheManager::Options opts;
  opts.max_rpc_bytes = kChunkBytes;
  return opts;
}

TEST(DurabilityTest, MultiChunkFsyncSurvivesServerCrash) {
  // Every one of the push's 16 store transactions is durable when fsync
  // returns: after a crash the file is there with the size and data version
  // the server had at that moment. (The file's bytes are not logged; they
  // reach the disk at the server's next checkpoint or buffer eviction.)
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* client = rig->NewClient("alice", ChunkedClient());
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  ASSERT_OK(CreateFileAt(*vfs, "/multi", 0666, TestCred()).status());
  ASSERT_OK(WriteFileAt(*vfs, "/multi", std::string(kFileBlocks * kBlockSize, 'm'), TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/multi"));
  Fid fid = f->fid();
  ASSERT_OK(client->Fsync(fid));
  ASSERT_OK_AND_ASSIGN(FileAttr synced, rig->AggregateAttr(fid));
  ASSERT_EQ(synced.size, kFileBlocks * kBlockSize);

  ASSERT_OK(rig->CrashServer());
  ASSERT_OK_AND_ASSIGN(FileAttr recovered, rig->AggregateAttr(fid));
  EXPECT_EQ(recovered.size, synced.size);
  EXPECT_EQ(recovered.data_version, synced.data_version);
  ASSERT_OK(client->ReturnAllTokens());
  ASSERT_OK_AND_ASSIGN(VnodeRef f2, ResolvePath(*vfs, "/multi"));
  EXPECT_EQ(f2->fid(), fid);
}

TEST(DurabilityTest, FsyncSendsOnlyItsStores) {
  // An fsync that pushes N chunks sends N calls: each store forces the
  // server's log as it answers, so no kSyncVolume follows. An fsync with
  // nothing dirty sends exactly one call, the kSyncVolume.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* client = rig->NewClient("alice", ChunkedClient());
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  ASSERT_OK(CreateFileAt(*vfs, "/calls", 0666, TestCred()).status());
  ASSERT_OK(WriteFileAt(*vfs, "/calls", std::string(kFileBlocks * kBlockSize, 'c'), TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/calls"));

  LinkStats before = rig->net.StatsBetween(client->node(), kServerNode);
  ASSERT_OK(client->Fsync(f->fid()));
  LinkStats pushed = rig->net.StatsBetween(client->node(), kServerNode);
  EXPECT_EQ(pushed.calls - before.calls, kFileBlocks * kBlockSize / kChunkBytes);

  ASSERT_OK(client->Fsync(f->fid()));
  EXPECT_EQ(rig->net.StatsBetween(client->node(), kServerNode).calls - pushed.calls, 1u);
}

TEST(DurabilityTest, UnsyncedCreateLostOnServerCrash) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* client = rig->NewClient();
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  ASSERT_OK(WriteFileAt(*vfs, "/synced", "kept", TestCred()));
  ASSERT_OK(client->Fsync(ResolvePath(*vfs, "/synced").value()->fid()));
  // This create reaches the server but is never fsynced: batched in its log.
  ASSERT_OK(WriteFileAt(*vfs, "/unsynced", "lost", TestCred()));

  ASSERT_OK(rig->CrashServer());
  ASSERT_OK(client->ReturnAllTokens());

  EXPECT_OK(ResolvePath(*vfs, "/synced").status());
  EXPECT_EQ(ResolvePath(*vfs, "/unsynced").code(), ErrorCode::kNotFound)
      << "UNIX semantics: unsynced metadata may be lost at a crash";
  ASSERT_OK_AND_ASSIGN(auto report, rig->agg->Salvage(false));
  EXPECT_TRUE(report.clean());
}

TEST(EvictionTest, BoundedCacheEvictsCleanBlocksLru) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager::Options opts;
  opts.diskless = true;
  opts.max_cached_blocks = 8;
  CacheManager* client = rig->NewClient("alice", opts);
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  ASSERT_OK(CreateFileAt(*vfs, "/big", 0666, TestCred()).status());
  ASSERT_OK(WriteFileAt(*vfs, "/big", std::string(32 * kBlockSize, 'e'), TestCred()));
  ASSERT_OK(client->Fsync(ResolvePath(*vfs, "/big").value()->fid()));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/big"));

  // Touch every block; far more than fit. Evictions must kick in.
  std::vector<uint8_t> buf(kBlockSize);
  for (uint64_t b = 0; b < 32; ++b) {
    ASSERT_OK(f->Read(b * kBlockSize, buf).status());
    EXPECT_EQ(buf[0], 'e');
  }
  EXPECT_GT(client->stats().cache_evictions, 0u);
  // Evicted blocks are refetched correctly on demand.
  ASSERT_OK(f->Read(0, buf).status());
  EXPECT_EQ(buf[0], 'e');
}

TEST(EvictionTest, DirtyBlocksAreNeverEvicted) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager::Options opts;
  opts.diskless = true;
  opts.max_cached_blocks = 4;
  CacheManager* client = rig->NewClient("alice", opts);
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  ASSERT_OK(CreateFileAt(*vfs, "/d", 0666, TestCred()).status());
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/d"));

  // Dirty 8 blocks against a 4-block cap: all dirty data must survive locally
  // (eviction skips it) and reach the server intact on fsync.
  std::string data(8 * kBlockSize, 'D');
  ASSERT_OK(f->Write(0, std::span<const uint8_t>(
                            reinterpret_cast<const uint8_t*>(data.data()), data.size()))
                .status());
  std::vector<uint8_t> buf(kBlockSize);
  for (uint64_t b = 0; b < 8; ++b) {
    ASSERT_OK(f->Read(b * kBlockSize, buf).status());
    EXPECT_EQ(buf[0], 'D') << "dirty block " << b << " must not have been dropped";
  }
  ASSERT_OK(client->Fsync(f->fid()));
  // Verify server-side through the glue layer.
  Cred root_cred{0, {0}};
  ASSERT_OK_AND_ASSIGN(VfsRef local, rig->server->LocalMount(rig->volume_id, root_cred));
  ASSERT_OK_AND_ASSIGN(std::string server_view, ReadFileAt(*local, "/d"));
  EXPECT_EQ(server_view.size(), data.size());
  EXPECT_EQ(server_view, data);
}

}  // namespace
}  // namespace dfs
