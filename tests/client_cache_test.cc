// Unit-level tests of the client cache layer: cache stores, token-coverage
// logic as observed through traffic, whole-file token mode, open handles,
// ReturnAllTokens, and directory-listing caching.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "src/vfs/path.h"
#include "tests/cache_store_util.h"
#include "tests/dfs_rig.h"
#include "tests/test_util.h"

namespace dfs {
namespace {

// --- CacheStore implementations ---

template <typename T>
std::unique_ptr<CacheStore> MakeStore();

template <>
std::unique_ptr<CacheStore> MakeStore<MemoryCacheStore>() {
  return std::make_unique<MemoryCacheStore>();
}

// The disk store a default client gets: slots on a private disk.
struct DiskTag {};
template <>
std::unique_ptr<CacheStore> MakeStore<DiskTag>() {
  auto r = PersistentCacheStore::CreatePrivate(CacheManager::Options().cache_disk_blocks);
  EXPECT_TRUE(r.ok());
  return std::move(*r);
}

template <typename T>
class CacheStoreTest : public ::testing::Test {};

using StoreTypes = ::testing::Types<MemoryCacheStore, DiskTag>;
TYPED_TEST_SUITE(CacheStoreTest, StoreTypes);

TYPED_TEST(CacheStoreTest, PutGetRoundTrip) {
  auto store = MakeStore<TypeParam>();
  Fid fid{1, 2, 3};
  std::vector<uint8_t> block(kBlockSize, 0x5C);
  ASSERT_OK(PutBytes(*store, fid, 7, block));
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_OK(GetBytes(*store, fid, 7, out));
  EXPECT_EQ(out, block);
}

TYPED_TEST(CacheStoreTest, DistinctFidsAndBlocksAreIsolated) {
  auto store = MakeStore<TypeParam>();
  Fid a{1, 2, 3};
  Fid b{1, 2, 4};
  std::vector<uint8_t> block_a(kBlockSize, 0xAA);
  std::vector<uint8_t> block_b(kBlockSize, 0xBB);
  ASSERT_OK(PutBytes(*store, a, 0, block_a));
  ASSERT_OK(PutBytes(*store, b, 0, block_b));
  ASSERT_OK(PutBytes(*store, a, 1, block_b));
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_OK(GetBytes(*store, a, 0, out));
  EXPECT_EQ(out[0], 0xAA);
  ASSERT_OK(GetBytes(*store, b, 0, out));
  EXPECT_EQ(out[0], 0xBB);
  ASSERT_OK(GetBytes(*store, a, 1, out));
  EXPECT_EQ(out[0], 0xBB);
}

TYPED_TEST(CacheStoreTest, EraseKeepsOtherBlocksAndPutRecreates) {
  auto store = MakeStore<TypeParam>();
  Fid fid{1, 2, 3};
  std::vector<uint8_t> block(kBlockSize, 5);
  ASSERT_OK(PutBytes(*store, fid, 0, block));
  ASSERT_OK(PutBytes(*store, fid, 1, block));
  store->Erase(fid, 0);
  std::vector<uint8_t> out(kBlockSize);
  EXPECT_EQ(GetBytes(*store, fid, 0, out).code(), ErrorCode::kNotFound);
  ASSERT_OK(GetBytes(*store, fid, 1, out));
  EXPECT_EQ(out, block);
  EXPECT_EQ(store->bytes_used(), kBlockSize);
  // Erasing the last block drops the file (its slots are freed); the next
  // Put starts it afresh.
  store->Erase(fid, 1);
  EXPECT_EQ(GetBytes(*store, fid, 1, out).code(), ErrorCode::kNotFound);
  EXPECT_EQ(store->bytes_used(), 0u);
  ASSERT_OK(PutBytes(*store, fid, 4, block));
  ASSERT_OK(GetBytes(*store, fid, 4, out));
  EXPECT_EQ(out, block);
}

TYPED_TEST(CacheStoreTest, OverwriteReplaces) {
  auto store = MakeStore<TypeParam>();
  Fid fid{1, 2, 3};
  std::vector<uint8_t> v1(kBlockSize, 1);
  std::vector<uint8_t> v2(kBlockSize, 2);
  ASSERT_OK(PutBytes(*store, fid, 0, v1));
  ASSERT_OK(PutBytes(*store, fid, 0, v2));
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_OK(GetBytes(*store, fid, 0, out));
  EXPECT_EQ(out[0], 2);
}

TEST(MemoryCacheStoreTest, EraseAndEraseFile) {
  MemoryCacheStore store;
  Fid fid{1, 2, 3};
  std::vector<uint8_t> block(kBlockSize, 9);
  ASSERT_OK(PutBytes(store, fid, 0, block));
  ASSERT_OK(PutBytes(store, fid, 1, block));
  store.Erase(fid, 0);
  std::vector<uint8_t> out(kBlockSize);
  EXPECT_EQ(GetBytes(store, fid, 0, out).code(), ErrorCode::kNotFound);
  ASSERT_OK(GetBytes(store, fid, 1, out));
  store.EraseFile(fid);
  EXPECT_EQ(GetBytes(store, fid, 1, out).code(), ErrorCode::kNotFound);
  EXPECT_EQ(store.bytes_used(), 0u);
}

TEST(PrivateDiskStoreTest, EraseFreesSlots) {
  // A client that caches and drops many more distinct files than the disk
  // has slots must get every slot back: Erase frees the block's slot.
  auto store = PersistentCacheStore::CreatePrivate(CacheManager::Options().cache_disk_blocks);
  ASSERT_OK(store.status());
  std::vector<uint8_t> block(kBlockSize, 7);
  for (uint64_t i = 0; i < 10'000; ++i) {
    Fid fid{1, 1 + i, 1};
    Status put = PutBytes(**store, fid, i % 3, block);
    ASSERT_TRUE(put.ok()) << "cycle " << i << ": " << put.ToString();
    (*store)->Erase(fid, i % 3);
  }
  EXPECT_EQ((*store)->bytes_used(), 0u);
}

// --- Cache-manager behaviour through traffic ---

TEST(ClientCacheTest, CreateWriteRemoveReclaimsTheCacheDisk) {
  // Regression: each removed file left its cached blocks and its cache file
  // behind in the client's cache FFS; a few thousand create/remove cycles
  // filled it (NO_SPACE).
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* client = rig->NewClient();
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  std::string data(2 * kBlockSize, 'd');
  for (int i = 0; i < 3'000; ++i) {
    std::string path = "/spool" + std::to_string(i);
    SCOPED_TRACE(path);
    ASSERT_OK(CreateFileAt(*vfs, path, 0644, TestCred()).status());
    ASSERT_OK(WriteFileAt(*vfs, path, data, TestCred()));
    ASSERT_OK(UnlinkAt(*vfs, path));
  }
}

TEST(ClientCacheTest, SmallCacheDiskServesAnLruSizedWorkingSet) {
  // A cache disk an eighth of the default serves a working set several
  // times its size when the LRU bound fits the disk: clean blocks are
  // evicted, and each evicted block's slot is freed.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  constexpr int kFiles = 64;
  constexpr size_t kFileBlocks = 16;
  CacheManager* seeder = rig->NewClient("alice");
  ASSERT_OK_AND_ASSIGN(VfsRef svfs, seeder->MountVolume("home"));
  for (int i = 0; i < kFiles; ++i) {
    std::string path = "/ws" + std::to_string(i);
    ASSERT_OK(CreateFileAt(*svfs, path, 0644, TestCred()).status());
    ASSERT_OK(WriteFileAt(*svfs, path, std::string(kFileBlocks * kBlockSize, 'a' + i % 26),
                          TestCred()));
  }
  ASSERT_OK(seeder->SyncAll());

  CacheManager::Options opts;
  opts.cache_disk_blocks = 512;
  opts.max_cached_blocks = 128;
  CacheManager* reader = rig->NewClient("bob", opts);
  ASSERT_OK_AND_ASSIGN(VfsRef rvfs, reader->MountVolume("home"));
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < kFiles; ++i) {
      std::string path = "/ws" + std::to_string(i);
      SCOPED_TRACE(path);
      ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*rvfs, path));
      EXPECT_EQ(back, std::string(kFileBlocks * kBlockSize, 'a' + i % 26));
    }
  }
  CacheManager::Stats s = reader->stats();
  EXPECT_GE(s.cache_evictions, 2 * kFiles * kFileBlocks - 2 * opts.max_cached_blocks);
  // The disk store copies on every put and get, so copies run well past the
  // one copy-out per byte a sharing memory store would cost.
  EXPECT_GE(s.bytes_copied, 2 * s.bytes_moved);
}

// Bytes that differ from block to block and within each block, so a block
// served from the wrong slot or offset cannot pass for the right one.
std::string Patterned(size_t len, uint32_t seed) {
  std::string s(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    s[i] = static_cast<char>((i * 31 + i / kBlockSize * 7 + seed) % 251);
  }
  return s;
}

// Reads the whole file in `chunk`-byte reads and compares each with `want`.
void ExpectChunkedRead(Vnode& f, const std::string& want, size_t chunk) {
  std::vector<uint8_t> buf(chunk);
  for (size_t off = 0; off < want.size(); off += chunk) {
    SCOPED_TRACE("offset " + std::to_string(off));
    ASSERT_OK_AND_ASSIGN(size_t n, f.Read(off, buf));
    ASSERT_EQ(n, std::min(chunk, want.size() - off));
    ASSERT_EQ(0, std::memcmp(buf.data(), want.data() + off, n));
  }
}

TEST(ClientCacheTest, DefaultClientWritesAndRereadsFourMiB) {
  // Regression: the default disk store kept one cache file per fid in a
  // private FFS whose files stop at about 2 MiB, so a default client could
  // not write (INVALID_ARGUMENT: file too large for FFS) a bigger file.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* client = rig->NewClient();
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  const std::string data = Patterned(4 << 20, 1);
  ASSERT_OK_AND_ASSIGN(VnodeRef f, CreateFileAt(*vfs, "/big", 0644, TestCred()));
  ASSERT_OK(WriteFileAt(*vfs, "/big", data, TestCred()));
  ASSERT_OK(client->Fsync(f->fid()));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*vfs, "/big"));
  EXPECT_TRUE(back == data);
}

TEST(ClientCacheTest, DefaultClientRereadsAFileLargerThanItsCache) {
  // A 32 MiB file is twice the default disk store's 3,936 slots: both
  // passes stream it through the cache, and every byte must match.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  const std::string data = Patterned(32 << 20, 2);
  CacheManager::Options wopts;
  wopts.diskless = true;
  CacheManager* writer = rig->NewClient("alice", wopts);
  ASSERT_OK_AND_ASSIGN(VfsRef wvfs, writer->MountVolume("home"));
  ASSERT_OK(CreateFileAt(*wvfs, "/huge", 0644, TestCred()).status());
  ASSERT_OK(WriteFileAt(*wvfs, "/huge", data, TestCred()));
  ASSERT_OK(writer->SyncAll());

  CacheManager* reader = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef rvfs, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*rvfs, "/huge"));
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    ExpectChunkedRead(*f, data, 256 << 10);
  }
  EXPECT_GT(reader->stats().cache_evictions, 0u);
}

TEST(ClientCacheTest, DiskStoreFullOfCleanBlocksIsEvictedByTheManager) {
  // Regression: the manager's LRU bound ignored the disk store's slot count,
  // so the store silently recycled slots the manager still listed as cached
  // (cache_evictions stayed 0). The bound is now capped at the slot count,
  // on a caller-owned disk and on a private one alike.
  constexpr uint64_t kDiskBlocks = 512;
  constexpr size_t kFileBlocks = 512;
  SimDisk cache_disk(kDiskBlocks);  // outlives the rig and its clients
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  const std::string data = Patterned(kFileBlocks * kBlockSize, 3);
  CacheManager* seeder = rig->NewClient("alice");
  ASSERT_OK_AND_ASSIGN(VfsRef svfs, seeder->MountVolume("home"));
  ASSERT_OK(CreateFileAt(*svfs, "/span", 0644, TestCred()).status());
  ASSERT_OK(WriteFileAt(*svfs, "/span", data, TestCred()));
  ASSERT_OK(seeder->SyncAll());

  for (bool caller_owned : {true, false}) {
    SCOPED_TRACE(caller_owned ? "caller-owned disk" : "private disk");
    CacheManager::Options opts;
    if (caller_owned) {
      opts.persistent_cache_disk = &cache_disk;
    } else {
      opts.cache_disk_blocks = kDiskBlocks;
    }
    CacheManager* reader = rig->NewClient("bob", opts);
    ASSERT_OK_AND_ASSIGN(auto slots, PersistentCacheStore::CreatePrivate(kDiskBlocks));
    const uint64_t data_slots = slots->data_slots();
    ASSERT_LT(data_slots, kFileBlocks);
    ASSERT_OK_AND_ASSIGN(VfsRef rvfs, reader->MountVolume("home"));
    ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*rvfs, "/span"));
    ExpectChunkedRead(*f, data, 64 << 10);
    // Every block read past the slot count pushed one out through the LRU.
    EXPECT_GE(reader->stats().cache_evictions, kFileBlocks - data_slots);
    ExpectChunkedRead(*f, data, 64 << 10);
  }
}

TEST(ClientCacheTest, PartialWriteRefetchesABlockTheStoreRecycled) {
  // Blocks written under a token already held enter the store but not the
  // manager's LRU, so reading another file can make a full slot store
  // recycle them while the manager still lists them as cached. A partial
  // overwrite of such a block finds it gone and fetches it again.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  constexpr size_t kFileBlocks = 300;  // two of these overfill 407 slots
  const std::string theirs = Patterned(kFileBlocks * kBlockSize, 4);
  CacheManager* seeder = rig->NewClient("alice");
  ASSERT_OK_AND_ASSIGN(VfsRef svfs, seeder->MountVolume("home"));
  ASSERT_OK(CreateFileAt(*svfs, "/theirs", 0644, TestCred()).status());
  ASSERT_OK(WriteFileAt(*svfs, "/theirs", theirs, TestCred()));
  ASSERT_OK(seeder->SyncAll());

  CacheManager::Options opts;
  opts.cache_disk_blocks = 512;
  opts.whole_file_data_tokens = true;  // the first write's grant covers the rest
  CacheManager* client = rig->NewClient("bob", opts);
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  std::string mine = Patterned(kFileBlocks * kBlockSize, 5);
  ASSERT_OK_AND_ASSIGN(VnodeRef f, CreateFileAt(*vfs, "/mine", 0644, TestCred()));
  auto bytes = [](std::string_view v) {
    return std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(v.data()), v.size());
  };
  ASSERT_OK(f->Write(0, bytes(std::string_view(mine).substr(0, kBlockSize))).status());
  ASSERT_OK(f->Write(kBlockSize, bytes(std::string_view(mine).substr(kBlockSize))).status());
  ASSERT_OK(client->Fsync(f->fid()));
  ASSERT_OK_AND_ASSIGN(VnodeRef t, ResolvePath(*vfs, "/theirs"));
  ExpectChunkedRead(*t, theirs, 64 << 10);

  const std::string patch = "patched";
  ASSERT_OK_AND_ASSIGN(size_t n, f->Write(5 * kBlockSize + 100, bytes(patch)));
  EXPECT_EQ(n, patch.size());
  mine.replace(5 * kBlockSize + 100, patch.size(), patch);
  ExpectChunkedRead(*f, mine, 64 << 10);
  ExpectChunkedRead(*t, theirs, 64 << 10);
}

TEST(ClientCacheTest, AlternatingReaderAndWriterDoNotStackStatusTokens) {
  // Regression: a read miss asked for status-read again although the reader
  // still held it. The writer's data-write grant revokes only the reader's
  // data token, so every round stranded one more status-read token at the
  // server. The reader uses whole-file data tokens so that a write to a
  // disjoint block still revokes its data token each round.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager::Options ropts;
  ropts.whole_file_data_tokens = true;
  CacheManager* reader = rig->NewClient("alice", ropts);
  CacheManager* writer = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef rv, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef wv, writer->MountVolume("home"));
  ASSERT_OK(CreateFileAt(*wv, "/shared", 0666, TestCred()).status());
  ASSERT_OK(WriteFileAt(*wv, "/shared", std::string(8 * kBlockSize, '.'), TestCred()));
  ASSERT_OK(writer->SyncAll());
  ASSERT_OK_AND_ASSIGN(VnodeRef rf, ResolvePath(*rv, "/shared"));
  ASSERT_OK_AND_ASSIGN(VnodeRef wf, ResolvePath(*wv, "/shared"));

  std::vector<uint8_t> buf(kBlockSize);
  uint64_t revocations = reader->stats().revocations_handled;
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK(rf->Read(0, buf).status());
    ASSERT_OK(wf->Write(4 * kBlockSize, std::vector<uint8_t>(kBlockSize, 'a' + i % 26))
                  .status());
  }
  EXPECT_GE(reader->stats().revocations_handled - revocations, 200u)
      << "each write must revoke the reader's data token";
  size_t status_tokens = 0;
  for (const Token& t : rig->server->tokens().TokensForFid(rf->fid())) {
    if (t.host == reader->node() && (t.types & kTokenStatusRead) != 0) {
      ++status_tokens;
    }
  }
  EXPECT_LE(status_tokens, 2u);
}

TEST(ClientCacheTest, WholeFileTokenModeFetchesOnceThenPingPongs) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager::Options opts;
  opts.whole_file_data_tokens = true;
  CacheManager* a = rig->NewClient("alice", opts);
  CacheManager::Options opts_b = opts;
  CacheManager* b = rig->NewClient("bob", opts_b);
  ASSERT_OK_AND_ASSIGN(VfsRef av, a->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef bv, b->MountVolume("home"));
  ASSERT_OK(CreateFileAt(*av, "/big", 0666, TestCred()).status());
  ASSERT_OK(WriteFileAt(*av, "/big", std::string(4 * kBlockSize, '.'), TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef af, ResolvePath(*av, "/big"));
  ASSERT_OK_AND_ASSIGN(VnodeRef bf, ResolvePath(*bv, "/big"));

  // Disjoint single-block writes: whole-file tokens force mutual revocation
  // every round (the E6 ablation at unit scale).
  std::vector<uint8_t> one(kBlockSize, 'x');
  uint64_t before = a->stats().revocations_handled + b->stats().revocations_handled;
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK(af->Write(0, one).status());
    ASSERT_OK(bf->Write(3 * kBlockSize, one).status());
  }
  uint64_t after = a->stats().revocations_handled + b->stats().revocations_handled;
  EXPECT_GE(after - before, 4u) << "whole-file tokens must ping-pong";
}

TEST(ClientCacheTest, ReturnAllTokensDropsCachesAndServerState) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* client = rig->NewClient();
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  ASSERT_OK(WriteFileAt(*vfs, "/f", "tokenized", TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/f"));
  std::vector<uint8_t> buf(9);
  ASSERT_OK(f->Read(0, buf).status());
  EXPECT_GT(rig->server->tokens().TokensForHost(client->node()).size(), 0u);

  ASSERT_OK(client->ReturnAllTokens());
  EXPECT_EQ(rig->server->tokens().TokensForHost(client->node()).size(), 0u);
  // The dirty data was stored first: the content survives the cache drop.
  LinkStats before = rig->net.StatsBetween(client->node(), kServerNode);
  ASSERT_OK(f->Read(0, buf).status());
  EXPECT_GT(rig->net.StatsBetween(client->node(), kServerNode).calls, before.calls)
      << "after returning tokens, the next read must refetch";
  EXPECT_EQ(std::string(buf.begin(), buf.end()), "tokenized");
}

TEST(ClientCacheTest, ReadTokenRevocationKeepsDirtyBlocks) {
  // A's read token covers blocks 0-7; its write of block 2 rides a separate
  // write token. B's write of block 6 revokes only the read token, which must
  // not take A's still-dirty block 2 with it.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* a = rig->NewClient("alice");
  CacheManager* b = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef av, a->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef bv, b->MountVolume("home"));
  ASSERT_OK(CreateFileAt(*av, "/mixed", 0666, TestCred()).status());
  ASSERT_OK(WriteFileAt(*av, "/mixed", std::string(8 * kBlockSize, '.'), TestCred()));
  ASSERT_OK(a->SyncAll());
  ASSERT_OK(a->ReturnAllTokens());
  ASSERT_OK_AND_ASSIGN(VnodeRef af, ResolvePath(*av, "/mixed"));
  ASSERT_OK_AND_ASSIGN(VnodeRef bf, ResolvePath(*bv, "/mixed"));

  std::vector<uint8_t> all(8 * kBlockSize);
  ASSERT_OK_AND_ASSIGN(size_t n, af->Read(0, all));
  ASSERT_EQ(n, all.size());
  ASSERT_OK(af->Write(2 * kBlockSize, std::vector<uint8_t>(kBlockSize, 'A')).status());
  uint64_t revocations = a->stats().revocations_handled;
  ASSERT_OK(bf->Write(6 * kBlockSize, std::vector<uint8_t>(kBlockSize, 'B')).status());
  ASSERT_GT(a->stats().revocations_handled, revocations) << "B's write must revoke A's read";

  std::vector<uint8_t> block(kBlockSize);
  ASSERT_OK_AND_ASSIGN(n, af->Read(2 * kBlockSize, block));
  ASSERT_EQ(n, kBlockSize);
  EXPECT_EQ(block, std::vector<uint8_t>(kBlockSize, 'A'));

  ASSERT_OK(a->Fsync(af->fid()));
  CacheManager* c = rig->NewClient("root");
  ASSERT_OK_AND_ASSIGN(VfsRef cv, c->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*cv, "/mixed"));
  ASSERT_EQ(back.size(), 8 * kBlockSize);
  EXPECT_EQ(back.substr(2 * kBlockSize, kBlockSize), std::string(kBlockSize, 'A'));
  EXPECT_EQ(back.substr(6 * kBlockSize, kBlockSize), std::string(kBlockSize, 'B'));
  EXPECT_EQ(back.substr(0, kBlockSize), std::string(kBlockSize, '.'));
}

TEST(ClientCacheTest, ListingCachedUnderStatusToken) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* client = rig->NewClient();
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK(WriteFileAt(*vfs, "/f" + std::to_string(i), "x", TestCred()));
  }
  ASSERT_OK_AND_ASSIGN(VnodeRef root, vfs->Root());
  ASSERT_OK(root->ReadDir().status());  // fills the listing cache
  LinkStats before = rig->net.StatsBetween(client->node(), kServerNode);
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK_AND_ASSIGN(auto entries, root->ReadDir());
    EXPECT_EQ(entries.size(), 7u);
  }
  EXPECT_EQ(rig->net.StatsBetween(client->node(), kServerNode).calls, before.calls);
  // Our own create invalidates the cached listing.
  ASSERT_OK(WriteFileAt(*vfs, "/f5", "x", TestCred()));
  ASSERT_OK_AND_ASSIGN(auto entries, root->ReadDir());
  EXPECT_EQ(entries.size(), 8u);
}

TEST(ClientCacheTest, OpenHandleMoveSemantics) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* client = rig->NewClient();
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  ASSERT_OK(WriteFileAt(*vfs, "/f", "x", TestCred()));
  ASSERT_OK_AND_ASSIGN(OpenHandle h1, client->Open(*vfs, "/f", OpenMode::kRead));
  EXPECT_TRUE(h1.valid());
  OpenHandle h2 = std::move(h1);
  EXPECT_TRUE(h2.valid());
  EXPECT_FALSE(h1.valid());  // NOLINT(bugprone-use-after-move): testing the moved-from state
  ASSERT_OK(h2.Close());
  EXPECT_FALSE(h2.valid());
  ASSERT_OK(h2.Close());  // double close is a no-op
}

TEST(ClientCacheTest, TruncateDropsTailBlocks) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* client = rig->NewClient();
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  ASSERT_OK(CreateFileAt(*vfs, "/t", 0666, TestCred()).status());
  ASSERT_OK(WriteFileAt(*vfs, "/t", std::string(3 * kBlockSize, 'z'), TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/t"));
  ASSERT_OK(f->Truncate(kBlockSize / 2));
  ASSERT_OK_AND_ASSIGN(FileAttr attr, f->GetAttr());
  EXPECT_EQ(attr.size, kBlockSize / 2);
  std::vector<uint8_t> buf(3 * kBlockSize);
  ASSERT_OK_AND_ASSIGN(size_t n, f->Read(0, buf));
  EXPECT_EQ(n, kBlockSize / 2);
  // Re-extension reads zeros in the gap.
  std::string tail = "end";
  ASSERT_OK(f->Write(kBlockSize, std::span<const uint8_t>(
                                     reinterpret_cast<const uint8_t*>(tail.data()),
                                     tail.size()))
                .status());
  ASSERT_OK_AND_ASSIGN(n, f->Read(0, buf));
  ASSERT_EQ(n, kBlockSize + 3);
  EXPECT_EQ(buf[kBlockSize / 2], 0);
  EXPECT_EQ(buf[kBlockSize - 1], 0);
  EXPECT_EQ(buf[kBlockSize], 'e');
}

TEST(ClientCacheTest, AttrCacheHitsCountedAndUsed) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* client = rig->NewClient();
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  ASSERT_OK(WriteFileAt(*vfs, "/f", "attrs", TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/f"));
  ASSERT_OK(f->GetAttr().status());
  uint64_t hits = client->stats().attr_cache_hits;
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(f->GetAttr().status());
  }
  EXPECT_GE(client->stats().attr_cache_hits, hits + 20);
}

TEST(ClientCacheTest, NegativeLookupsAreCached) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* client = rig->NewClient();
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  ASSERT_OK(WriteFileAt(*vfs, "/exists", "x", TestCred()));

  // First miss goes to the server; repeats are answered from the negative
  // cache under the directory's status-read token.
  EXPECT_EQ(ResolvePath(*vfs, "/missing").code(), ErrorCode::kNotFound);
  LinkStats before = rig->net.StatsBetween(client->node(), kServerNode);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ResolvePath(*vfs, "/missing").code(), ErrorCode::kNotFound);
  }
  EXPECT_EQ(rig->net.StatsBetween(client->node(), kServerNode).calls, before.calls)
      << "repeated misses must be RPC-free";

  // Another client creating the name invalidates the negative entry.
  CacheManager* other = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef ov, other->MountVolume("home"));
  ASSERT_OK(WriteFileAt(*ov, "/missing", "now it exists", TestCred(101)));
  ASSERT_OK_AND_ASSIGN(std::string found, ReadFileAt(*vfs, "/missing"));
  EXPECT_EQ(found, "now it exists");
}

TEST(ClientCacheTest, OwnCreateOverridesNegativeEntry) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* client = rig->NewClient();
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  EXPECT_EQ(ResolvePath(*vfs, "/soon").code(), ErrorCode::kNotFound);  // cached miss
  ASSERT_OK(WriteFileAt(*vfs, "/soon", "created after the miss", TestCred()));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*vfs, "/soon"));
  EXPECT_EQ(back, "created after the miss");
}

TEST(ClientCacheTest, SequentialReadAheadCutsRpcs) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager::Options with;
  with.readahead_blocks = 8;
  CacheManager* ra = rig->NewClient("alice", with);
  CacheManager::Options without;
  without.readahead_blocks = 0;
  CacheManager* no_ra = rig->NewClient("bob", without);
  ASSERT_OK_AND_ASSIGN(VfsRef setup, ra->MountVolume("home"));
  ASSERT_OK(CreateFileAt(*setup, "/seq", 0666, TestCred()).status());
  ASSERT_OK(WriteFileAt(*setup, "/seq", std::string(64 * kBlockSize, 'q'), TestCred()));
  ASSERT_OK(ra->SyncAll());
  ASSERT_OK(ra->ReturnAllTokens());

  auto sequential_read = [&](CacheManager* cm) -> uint64_t {
    auto vfs = cm->MountVolume("home");
    EXPECT_TRUE(vfs.ok());
    auto f = ResolvePath(**vfs, "/seq");
    EXPECT_TRUE(f.ok());
    LinkStats before = rig->net.StatsBetween(cm->node(), kServerNode);
    std::vector<uint8_t> buf(kBlockSize);
    for (uint64_t b = 0; b < 64; ++b) {
      auto n = (*f)->Read(b * kBlockSize, buf);
      EXPECT_TRUE(n.ok());
      EXPECT_EQ(buf[0], 'q');
    }
    return rig->net.StatsBetween(cm->node(), kServerNode).calls - before.calls;
  };
  uint64_t rpcs_without = sequential_read(no_ra);
  uint64_t rpcs_with = sequential_read(ra);
  EXPECT_LT(rpcs_with * 3, rpcs_without)
      << "read-ahead must cut sequential-read RPCs by several x (with=" << rpcs_with
      << " without=" << rpcs_without << ")";
}

TEST(ClientCacheTest, DirtyDataLeavesOnRevocation) {
  // Without an fsync, dirty data stays local until a peer's conflicting
  // grant revokes the write token; it then travels on the revocation path.
  auto rig = DfsRig::Create();
  CacheManager* writer = rig->NewClient("alice");
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, writer->MountVolume("home"));
  ASSERT_OK(WriteFileAt(*vfs, "/plain", "never flushed early", TestCred()));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(writer->stats().dirty_stores, 0u);

  CacheManager* reader = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef rv, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*rv, "/plain"));
  EXPECT_EQ(back, "never flushed early");
  EXPECT_GT(writer->stats().revocation_stores, 0u);
}

// Overwrites merge into cached blocks over either store: a whole-block
// overwrite replaces the block outright, and a span across two blocks merges
// into both of their old bytes.
class ClientCacheOverwriteTest : public ::testing::TestWithParam<bool> {};

TEST_P(ClientCacheOverwriteTest, WholeAndPartialBlockOverwritesMerge) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager::Options opts;
  opts.diskless = GetParam();
  CacheManager* writer = rig->NewClient("alice", opts);
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, writer->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef file, CreateFileAt(*vfs, "/merge", 0666, TestCred()));

  std::string expect(3 * kBlockSize, 'a');
  ASSERT_OK(file->Write(0, std::vector<uint8_t>(expect.begin(), expect.end())).status());
  ASSERT_OK(file->Write(kBlockSize, std::vector<uint8_t>(kBlockSize, 'b')).status());
  expect.replace(kBlockSize, kBlockSize, std::string(kBlockSize, 'b'));
  const uint64_t span_off = kBlockSize + kBlockSize / 2;
  ASSERT_OK(file->Write(span_off, std::vector<uint8_t>(kBlockSize, 'c')).status());
  expect.replace(span_off, kBlockSize, std::string(kBlockSize, 'c'));
  ASSERT_OK(writer->Fsync(file->fid()));

  CacheManager* reader = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef rv, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*rv, "/merge"));
  EXPECT_EQ(back, expect);
}

INSTANTIATE_TEST_SUITE_P(StoreModes, ClientCacheOverwriteTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Diskless" : "Disk");
                         });

}  // namespace
}  // namespace dfs
