// Microbenchmarks (google-benchmark): the primitive costs underneath every
// experiment — codec round-trips, WAL commits, Episode operations, token
// grant/release, and client cached reads.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/codec.h"
#include "src/episode/aggregate.h"
#include "src/tokens/token_manager.h"
#include "src/vfs/path.h"
#include "src/vfs/wire.h"
#include "src/wal/wal.h"
#include "tests/dfs_rig.h"

namespace dfs {
namespace {

void BM_CodecAttrRoundTrip(benchmark::State& state) {
  FileAttr attr;
  attr.fid = {1, 2, 3};
  attr.size = 123456;
  attr.data_version = 42;
  for (auto _ : state) {
    Writer w;
    PutAttr(w, attr);
    Reader r(w.data());
    auto back = ReadAttr(r);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_CodecAttrRoundTrip);

void BM_WalCommit(benchmark::State& state) {
  SimDisk disk(4096);
  BufferCache cache(disk, 512);
  Wal::Options opts;
  opts.log_start_block = 1;
  opts.log_blocks = 2048;
  Wal wal(disk, cache, opts);
  cache.AttachWal(&wal);
  (void)wal.Format();
  uint8_t payload[64] = {1};
  uint64_t i = 0;
  for (auto _ : state) {
    TxnToken txn = wal.Begin();
    txn.AssertIssued();
    auto buf = cache.Get(3000 + (i++ % 512));
    (void)wal.LogUpdate(txn, *buf, 0, payload);
    (void)wal.Commit(txn);
  }
}
BENCHMARK(BM_WalCommit);

void BM_TokenGrantReturn(benchmark::State& state) {
  class NullHost : public TokenHost {
   public:
    Status Revoke(const Token&, uint32_t) override { return Status::Ok(); }
    std::string name() const override { return "null"; }
  };
  TokenManager mgr;
  NullHost host;
  mgr.RegisterHost(1, &host);
  Fid fid{1, 2, 3};
  for (auto _ : state) {
    auto token = mgr.Grant(1, fid, kTokenDataRead | kTokenStatusRead, ByteRange::All());
    (void)mgr.Return(token->id, token->types);
  }
}
BENCHMARK(BM_TokenGrantReturn);

// Grant+return on one file while the same volume holds state.range(0)
// tokens of another host on other files. With the per-file conflict index
// the cost stays flat as that population grows.
void BM_TokenGrantWithUnrelatedTokens(benchmark::State& state) {
  class NullHost : public TokenHost {
   public:
    Status Revoke(const Token&, uint32_t) override { return Status::Ok(); }
    std::string name() const override { return "null"; }
  };
  TokenManager mgr;
  NullHost a, b;
  mgr.RegisterHost(1, &a);
  mgr.RegisterHost(2, &b);
  for (int64_t i = 0; i < state.range(0); ++i) {
    Fid other{1, 1000 + static_cast<uint64_t>(i), 1};
    (void)mgr.Grant(2, other, kTokenDataRead | kTokenStatusRead, ByteRange::All());
  }
  Fid fid{1, 2, 3};
  for (auto _ : state) {
    auto token = mgr.Grant(1, fid, kTokenDataWrite | kTokenStatusWrite, ByteRange::All());
    (void)mgr.Return(token->id, token->types);
  }
}
BENCHMARK(BM_TokenGrantWithUnrelatedTokens)->Arg(0)->Arg(1'000)->Arg(10'000);

void BM_TokenConflictingGrant(benchmark::State& state) {
  class NullHost : public TokenHost {
   public:
    Status Revoke(const Token&, uint32_t) override { return Status::Ok(); }
    std::string name() const override { return "null"; }
  };
  TokenManager mgr;
  NullHost a, b;
  mgr.RegisterHost(1, &a);
  mgr.RegisterHost(2, &b);
  Fid fid{1, 2, 3};
  for (auto _ : state) {
    auto t1 = mgr.Grant(1, fid, kTokenDataWrite, ByteRange::All());
    auto t2 = mgr.Grant(2, fid, kTokenDataWrite, ByteRange::All());  // revokes t1
    (void)mgr.Return(t2->id, t2->types);
    benchmark::DoNotOptimize(t1);
  }
}
BENCHMARK(BM_TokenConflictingGrant);

void BM_EpisodeCreateUnlink(benchmark::State& state) {
  SimDisk disk(32768);
  Aggregate::Options opts;
  opts.cache_blocks = 4096;
  opts.log_blocks = 2048;
  auto agg = Aggregate::Format(disk, opts);
  auto vid = (*agg)->CreateVolume("bench");
  auto vfs = (*agg)->MountVolume(*vid);
  Cred cred{100, {100}};
  for (auto _ : state) {
    (void)CreateFileAt(**vfs, "/bench-file", 0644, cred);
    (void)UnlinkAt(**vfs, "/bench-file");
  }
}
BENCHMARK(BM_EpisodeCreateUnlink);

void BM_EpisodeWrite4K(benchmark::State& state) {
  SimDisk disk(32768);
  Aggregate::Options opts;
  opts.cache_blocks = 4096;
  opts.log_blocks = 2048;
  auto agg = Aggregate::Format(disk, opts);
  auto vid = (*agg)->CreateVolume("bench");
  auto vfs = (*agg)->MountVolume(*vid);
  Cred cred{100, {100}};
  auto file = CreateFileAt(**vfs, "/target", 0644, cred);
  std::vector<uint8_t> block(4096, 0xAB);
  uint64_t i = 0;
  for (auto _ : state) {
    (void)(*file)->Write((i++ % 64) * 4096, block);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_EpisodeWrite4K);

void BM_EpisodeRead4K(benchmark::State& state) {
  SimDisk disk(32768);
  Aggregate::Options opts;
  opts.cache_blocks = 4096;
  auto agg = Aggregate::Format(disk, opts);
  auto vid = (*agg)->CreateVolume("bench");
  auto vfs = (*agg)->MountVolume(*vid);
  Cred cred{100, {100}};
  auto file = CreateFileAt(**vfs, "/target", 0644, cred);
  std::vector<uint8_t> block(4096, 0xAB);
  for (int b = 0; b < 64; ++b) {
    (void)(*file)->Write(static_cast<uint64_t>(b) * 4096, block);
  }
  uint64_t i = 0;
  for (auto _ : state) {
    (void)(*file)->Read((i++ % 64) * 4096, block);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_EpisodeRead4K);

void BM_VolumeClone(benchmark::State& state) {
  SimDisk disk(65536);
  Aggregate::Options opts;
  opts.cache_blocks = 8192;
  opts.log_blocks = 4096;
  auto agg = Aggregate::Format(disk, opts);
  auto vid = (*agg)->CreateVolume("bench");
  auto vfs = (*agg)->MountVolume(*vid);
  Cred cred{100, {100}};
  for (int i = 0; i < 50; ++i) {
    (void)WriteFileAt(**vfs, "/f" + std::to_string(i), std::string(8192, 'c'), cred);
  }
  uint64_t n = 0;
  for (auto _ : state) {
    auto clone = (*agg)->CloneVolume(*vid, "snap" + std::to_string(n++));
    benchmark::DoNotOptimize(clone);
  }
}
BENCHMARK(BM_VolumeClone);

// Threaded cached reads through one client: 4 files of 16 blocks, all
// cached, and thread t reads 4 KiB blocks of file t, so the threads share
// only the client (its registry, LRU and store), never a file. Arg 0 is the
// default disk store, arg 1 the diskless memory store. Thread 0 builds the
// rig before the timed loop (google-benchmark starts every thread's loop
// together) and tears it down after it (every loop has ended by then).
constexpr int kCachedReadFiles = 4;
constexpr uint64_t kCachedReadBlocks = 16;

struct CachedReadRig {
  std::unique_ptr<DfsRig> rig;
  VfsRef vfs;
  std::vector<VnodeRef> files;
};
CachedReadRig* cached_read_rig = nullptr;

std::unique_ptr<CachedReadRig> MakeCachedReadRig(bool diskless) {
  auto r = std::make_unique<CachedReadRig>();
  r->rig = DfsRig::Create();
  CacheManager::Options opts;
  opts.diskless = diskless;
  CacheManager* client = r->rig->NewClient("alice", opts);
  r->vfs = *client->MountVolume("home");
  Cred cred{100, {100}};
  std::string contents(kCachedReadBlocks * kBlockSize, 'r');
  for (int f = 0; f < kCachedReadFiles; ++f) {
    std::string path = "/cached" + std::to_string(f);
    (void)WriteFileAt(*r->vfs, path, contents, cred);
    r->files.push_back(*ResolvePath(*r->vfs, path));
  }
  (void)client->SyncAll();
  std::vector<uint8_t> buf(kBlockSize);
  for (const VnodeRef& file : r->files) {
    for (uint64_t b = 0; b < kCachedReadBlocks; ++b) {
      (void)file->Read(b * kBlockSize, buf);  // warm: tokens held, blocks cached
    }
  }
  return r;
}

void BM_CachedRead(benchmark::State& state) {
  std::unique_ptr<CachedReadRig> owned;
  if (state.thread_index() == 0) {
    owned = MakeCachedReadRig(state.range(0) != 0);
    cached_read_rig = owned.get();
  }
  std::vector<uint8_t> buf(kBlockSize);
  uint64_t i = 0;
  for (auto _ : state) {
    Vnode& file = *cached_read_rig->files[state.thread_index() % kCachedReadFiles];
    auto n = file.Read((i++ % kCachedReadBlocks) * kBlockSize, buf);
    if (!n.ok()) {
      state.SkipWithError(n.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(*n);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kBlockSize);
  if (state.thread_index() == 0) {
    cached_read_rig = nullptr;
  }
}
BENCHMARK(BM_CachedRead)
    ->ArgName("diskless")
    ->Arg(0)
    ->Arg(1)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime();

}  // namespace
}  // namespace dfs

BENCHMARK_MAIN();
