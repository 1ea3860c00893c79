// Asynchronous data path (E16): background readahead, parallel bulk
// fetch/store, ablation fidelity, and the prefetch-vs-revocation race.
// Labeled CONCURRENCY: the race tests run under TSAN in the sanitizer job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/client/prefetcher.h"
#include "src/vfs/path.h"
#include "tests/dfs_rig.h"
#include "tests/test_util.h"

namespace dfs {
namespace {

// Writes a `blocks`-block file at `path` through a scratch client and pushes
// it to the server, so readers start cold.
void SeedFile(DfsRig& rig, const std::string& path, uint64_t blocks, char fill) {
  CacheManager* setup = rig.NewClient("root");
  ASSERT_NE(setup, nullptr);
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, setup->MountVolume("home"));
  ASSERT_OK(CreateFileAt(*vfs, path, 0666, TestCred()).status());
  ASSERT_OK(WriteFileAt(*vfs, path, std::string(blocks * kBlockSize, fill), TestCred()));
  ASSERT_OK(setup->SyncAll());
  ASSERT_OK(setup->ReturnAllTokens());
}

// Stands in front of the rig's file server on the network so a test can
// hold or fail chosen requests before the server sees them, or hold a reply
// after the server produced it. The server gets its own registration back
// when the gate goes away.
class ServerGate : public RpcHandler {
 public:
  // Runs on the server's worker thread for every request and may block.
  // Returns an error to fail the request with, or nullopt to pass it on.
  using Hook = std::function<std::optional<Status>(const RpcRequest&)>;
  // Runs on the server's worker thread once the server has answered a passed
  // request, before the reply leaves; it may block, holding a reply that
  // carries the server's state of that moment.
  using AfterHook = std::function<void(const RpcRequest&)>;

  ServerGate(DfsRig& rig, Hook hook, AfterHook after = nullptr)
      : rig_(rig), hook_(std::move(hook)), after_(std::move(after)) {
    rig_.net.UnregisterNode(kServerNode);
    EXPECT_OK(rig_.net.RegisterNode(kServerNode, this, rig_.server_options.rpc));
  }
  ~ServerGate() override {
    rig_.net.UnregisterNode(kServerNode);
    EXPECT_OK(rig_.net.RegisterNode(kServerNode, rig_.server.get(), rig_.server_options.rpc));
  }
  ServerGate(const ServerGate&) = delete;
  ServerGate& operator=(const ServerGate&) = delete;

  Result<WireMessage> Handle(const RpcRequest& request) override {
    if (std::optional<Status> failure = hook_(request)) {
      return EncodeErrorReply(*failure);
    }
    Result<WireMessage> reply = rig_.server->Handle(request);
    if (after_ != nullptr) {
      after_(request);
    }
    return reply;
  }
  bool IsRevocationPathProc(uint32_t proc) const override {
    return rig_.server->IsRevocationPathProc(proc);
  }

 private:
  DfsRig& rig_;
  Hook hook_;
  AfterHook after_;
};

// The byte offset a kFetchData or kStoreData request starts at.
uint64_t RequestOffset(const RpcRequest& request) {
  Reader r(request.payload);
  EXPECT_TRUE(ReadFid(r).ok());
  auto offset = r.ReadU64();
  EXPECT_TRUE(offset.ok());
  return offset.ok() ? *offset : UINT64_MAX;
}

// The byte length a kFetchData request asks for.
uint64_t RequestLength(const RpcRequest& request) {
  Reader r(request.payload);
  EXPECT_TRUE(ReadFid(r).ok());
  EXPECT_TRUE(r.ReadU64().ok());
  auto len = r.ReadU32();
  EXPECT_TRUE(len.ok());
  return len.ok() ? *len : 0;
}

// A one-way latch with a bounded wait, for hooks that park a request.
class Latch {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  // False when the latch stayed shut for 5 s.
  bool Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(5), [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(DatapathTest, BackgroundPrefetchServesSequentialReads) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  SeedFile(*rig, "/seq", 64, 'q');

  CacheManager::Options opts;
  opts.prefetch_threads = 2;
  opts.readahead_min_blocks = 4;
  opts.readahead_max_blocks = 32;
  CacheManager* reader = rig->NewClient("alice", opts);
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/seq"));

  std::vector<uint8_t> buf(kBlockSize);
  for (uint64_t b = 0; b < 64; ++b) {
    ASSERT_OK_AND_ASSIGN(size_t n, f->Read(b * kBlockSize, buf));
    ASSERT_EQ(n, kBlockSize);
    EXPECT_EQ(buf[0], 'q') << "block " << b;
    EXPECT_EQ(buf[kBlockSize - 1], 'q') << "block " << b;
    // Give the background windows a moment to land so the stream actually
    // runs ahead of the reader (the bench measures the speedup; this test
    // only asserts the mechanism works and stays correct).
    if (b % 8 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  CacheManager::Stats stats = reader->stats();
  EXPECT_GT(stats.prefetch_issued, 0u) << "sequential stream never claimed a window";
  EXPECT_GT(stats.prefetch_hits, 0u) << "no foreground read was served by the daemon";
}

TEST(DatapathTest, PrefetchDisabledReproducesSynchronousPath) {
  // The ablation contract: prefetch_threads == 0 and max_rpc_bytes == 0 must
  // leave the legacy synchronous data path untouched — no daemon activity, no
  // split RPCs, never more than one data RPC in flight from one reader.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  SeedFile(*rig, "/legacy", 32, 'l');

  CacheManager* reader = rig->NewClient("alice");  // all defaults
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/legacy"));
  std::vector<uint8_t> buf(kBlockSize);
  for (uint64_t b = 0; b < 32; ++b) {
    ASSERT_OK_AND_ASSIGN(size_t n, f->Read(b * kBlockSize, buf));
    ASSERT_EQ(n, kBlockSize);
    ASSERT_EQ(buf[0], 'l');
  }
  ASSERT_OK(WriteFileAt(*vfs, "/legacy", std::string(8 * kBlockSize, 'm'), TestCred()));
  ASSERT_OK(reader->SyncAll());

  CacheManager::Stats stats = reader->stats();
  EXPECT_EQ(stats.prefetch_issued, 0u);
  EXPECT_EQ(stats.prefetch_hits, 0u);
  EXPECT_EQ(stats.prefetch_cancelled, 0u);
  EXPECT_EQ(stats.bulk_rpcs_split, 0u);
  EXPECT_LE(stats.inflight_highwater, 1u)
      << "the synchronous path must never pipeline data RPCs";
}

TEST(DatapathTest, BulkFetchSplitsLargeReadsAndMergesCorrectly) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  constexpr uint64_t kBlocks = 64;  // 256 KiB
  SeedFile(*rig, "/big", kBlocks, 'b');

  CacheManager::Options opts;
  opts.prefetch_threads = 4;
  // 8 chunks: the token-carrying first chunk is a serial barrier, then 7 data
  // chunks overlap on 4 threads.
  opts.max_rpc_bytes = 8 * kBlockSize;
  CacheManager* reader = rig->NewClient("alice", opts);
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/big"));

  // The server holds data chunk 1 until data chunk 2 arrives, so the two are
  // on the wire together however the threads are scheduled.
  Latch chunk2_arrived;
  std::atomic<bool> chunk2_late{false};
  ServerGate gate(*rig, [&](const RpcRequest& req) -> std::optional<Status> {
    if (req.proc == kFetchData && req.from == reader->node()) {
      uint64_t offset = RequestOffset(req);
      if (offset == 16 * kBlockSize) {
        chunk2_arrived.Open();
      } else if (offset == 8 * kBlockSize && !chunk2_arrived.Wait()) {
        chunk2_late = true;
      }
    }
    return std::nullopt;
  });

  std::vector<uint8_t> buf(kBlocks * kBlockSize);
  ASSERT_OK_AND_ASSIGN(size_t n, f->Read(0, buf));
  ASSERT_EQ(n, buf.size());
  for (size_t i = 0; i < buf.size(); i += kBlockSize / 2) {
    ASSERT_EQ(buf[i], 'b') << "offset " << i;
  }
  EXPECT_FALSE(chunk2_late) << "data chunk 2 never reached the server while chunk 1 was held";
  CacheManager::Stats stats = reader->stats();
  EXPECT_GE(stats.bulk_rpcs_split, 1u);
  EXPECT_GE(stats.inflight_highwater, 2u)
      << "sub-range RPCs of a split fetch must overlap";
}

TEST(DatapathTest, BulkStoreSplitsLargeWritesAndReadsBack) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  constexpr uint64_t kBlocks = 64;

  CacheManager::Options opts;
  opts.prefetch_threads = 4;
  opts.max_rpc_bytes = 16 * kBlockSize;
  CacheManager* writer = rig->NewClient("alice", opts);
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, writer->MountVolume("home"));
  ASSERT_OK(CreateFileAt(*vfs, "/bigw", 0666, TestCred()).status());
  std::string data(kBlocks * kBlockSize, 0);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>('a' + (i / kBlockSize) % 26);
  }
  ASSERT_OK(WriteFileAt(*vfs, "/bigw", data, TestCred()));
  ASSERT_OK(writer->SyncAll());
  EXPECT_GE(writer->stats().bulk_rpcs_split, 1u);

  // A cold second client must see exactly the written bytes: the per-chunk
  // sync merges (stamp rule) may land out of order but never corrupt data.
  CacheManager* reader = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef rv, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*rv, "/bigw"));
  EXPECT_EQ(back, data);
}

// A client with no prefetch pool whose transfers split into 4-block chunks:
// every chunk of a split transfer is pipelined from the caller's thread.
CacheManager::Options PoollessFourBlockChunks() {
  CacheManager::Options opts;
  opts.prefetch_threads = 0;
  opts.max_rpc_bytes = 4 * kBlockSize;
  return opts;
}

// A file of `blocks` blocks whose every block carries its own fill byte.
std::string PatternedBlocks(uint64_t blocks) {
  std::string data(blocks * kBlockSize, 0);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>('a' + (i / kBlockSize) % 26);
  }
  return data;
}

TEST(DatapathTest, SplitStorePipelinesWithoutAPool) {
  // The server holds store chunk 0 until chunk 3 arrives, which it can only
  // do if the caller's thread put chunks 1-3 on the wire without waiting
  // for chunk 0's reply: no pool runs them.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* writer = rig->NewClient("alice", PoollessFourBlockChunks());
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, writer->MountVolume("home"));
  ASSERT_OK(CreateFileAt(*vfs, "/piped", 0666, TestCred()).status());
  std::string data = PatternedBlocks(16);
  ASSERT_OK(WriteFileAt(*vfs, "/piped", data, TestCred()));

  Latch chunk3_arrived;
  std::atomic<bool> chunk3_late{false};
  {
    ServerGate gate(*rig, [&](const RpcRequest& req) -> std::optional<Status> {
      if (req.proc == kStoreData && req.from == writer->node()) {
        uint64_t offset = RequestOffset(req);
        if (offset == 12 * kBlockSize) {
          chunk3_arrived.Open();
        } else if (offset == 0 && !chunk3_arrived.Wait()) {
          chunk3_late = true;
        }
      }
      return std::nullopt;
    });
    ASSERT_OK(writer->SyncAll());
  }
  EXPECT_FALSE(chunk3_late) << "store chunk 3 never reached the server while chunk 0 was held";
  EXPECT_GE(writer->stats().inflight_highwater, 4u);

  CacheManager* reader = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef rv, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*rv, "/piped"));
  EXPECT_EQ(back, data);
}

// Counts the requests a gate sees in flight at the server at once. Each of
// the first `kDepth` requests is held until all of them are there, then a
// little longer, so a ninth request in flight would show up in the count.
class InflightProbe {
 public:
  static constexpr int kDepth = 8;

  // Called from the gate's hook for each counted request; `index` is its
  // place in the transfer's chunk order.
  void Arrive(uint64_t index) {
    std::unique_lock<std::mutex> lock(mu_);
    now_ += 1;
    max_ = std::max(max_, now_);
    cv_.notify_all();
    if (index < kDepth) {
      if (!cv_.wait_for(lock, std::chrono::seconds(5), [this] { return max_ >= kDepth; })) {
        stuck_ = true;
      }
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  // Called from the gate's after-hook once the server answered.
  void Leave() {
    std::lock_guard<std::mutex> lock(mu_);
    now_ -= 1;
  }
  int max() {
    std::lock_guard<std::mutex> lock(mu_);
    return max_;
  }
  bool stuck() {
    std::lock_guard<std::mutex> lock(mu_);
    return stuck_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int now_ = 0;
  int max_ = 0;
  bool stuck_ = false;
};

TEST(DatapathTest, SplitTransfersKeepAtMostEightChunksInFlight) {
  // A 64-chunk fsync and a 64-chunk read, neither with a pool: the server
  // (16 workers, room for more) sees 8 of the store's chunks at once and
  // never a ninth, and the same for the read's data chunks once its
  // token-carrying first chunk has landed.
  DfsRig::Options ropts;
  ropts.server.rpc.worker_threads = 16;
  auto rig = DfsRig::Create(ropts);
  ASSERT_NE(rig, nullptr);
  constexpr uint64_t kChunkBytes = 4 * kBlockSize;
  constexpr uint64_t kBlocks = 256;
  CacheManager* writer = rig->NewClient("alice", PoollessFourBlockChunks());
  ASSERT_OK_AND_ASSIGN(VfsRef wv, writer->MountVolume("home"));
  ASSERT_OK(CreateFileAt(*wv, "/deep", 0666, TestCred()).status());
  std::string data = PatternedBlocks(kBlocks);
  ASSERT_OK(WriteFileAt(*wv, "/deep", data, TestCred()));
  {
    InflightProbe stores;
    ServerGate gate(
        *rig,
        [&](const RpcRequest& req) -> std::optional<Status> {
          if (req.proc == kStoreData && req.from == writer->node()) {
            stores.Arrive(RequestOffset(req) / kChunkBytes);
          }
          return std::nullopt;
        },
        [&](const RpcRequest& req) {
          if (req.proc == kStoreData && req.from == writer->node()) {
            stores.Leave();
          }
        });
    ASSERT_OK(writer->SyncAll());
    EXPECT_FALSE(stores.stuck()) << "8 store chunks never reached the server together";
    EXPECT_EQ(stores.max(), InflightProbe::kDepth);
  }
  ASSERT_OK(writer->ReturnAllTokens());

  CacheManager* reader = rig->NewClient("bob", PoollessFourBlockChunks());
  ASSERT_OK_AND_ASSIGN(VfsRef rv, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef rf, ResolvePath(*rv, "/deep"));
  std::vector<uint8_t> back(kBlocks * kBlockSize);
  {
    InflightProbe fetches;
    // Data chunk k (k >= 1) of the read starts at k chunks in.
    auto data_chunk = [&](const RpcRequest& req) {
      return req.proc == kFetchData && req.from == reader->node() &&
             RequestOffset(req) >= kChunkBytes;
    };
    ServerGate gate(
        *rig,
        [&](const RpcRequest& req) -> std::optional<Status> {
          if (data_chunk(req)) {
            fetches.Arrive(RequestOffset(req) / kChunkBytes - 1);
          }
          return std::nullopt;
        },
        [&](const RpcRequest& req) {
          if (data_chunk(req)) {
            fetches.Leave();
          }
        });
    ASSERT_OK_AND_ASSIGN(size_t n, rf->Read(0, back));
    ASSERT_EQ(n, back.size());
    EXPECT_FALSE(fetches.stuck()) << "8 fetch chunks never reached the server together";
    EXPECT_EQ(fetches.max(), InflightProbe::kDepth);
  }
  EXPECT_EQ(std::string(back.begin(), back.end()), data);
}

TEST(DatapathTest, SplitStoreRetriesThroughCallVolume) {
  // The server answers store chunk 2's first attempt kUnavailable. The
  // chunk is retried the way every volume call is (the location is looked
  // up afresh, counted in location_retries) and is sent exactly once more;
  // the other chunks are not sent again.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* writer = rig->NewClient("alice", PoollessFourBlockChunks());
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, writer->MountVolume("home"));
  ASSERT_OK(CreateFileAt(*vfs, "/bounce", 0666, TestCred()).status());
  std::string data = PatternedBlocks(16);
  ASSERT_OK(WriteFileAt(*vfs, "/bounce", data, TestCred()));

  uint64_t retries_before = writer->stats().location_retries;
  std::atomic<int> stores{0};
  std::atomic<bool> bounced{false};
  {
    ServerGate gate(*rig, [&](const RpcRequest& req) -> std::optional<Status> {
      if (req.proc == kStoreData && req.from == writer->node()) {
        stores += 1;
        if (RequestOffset(req) == 8 * kBlockSize && !bounced.exchange(true)) {
          return Status(ErrorCode::kUnavailable, "injected: volume not here");
        }
      }
      return std::nullopt;
    });
    ASSERT_OK(writer->SyncAll());
  }
  EXPECT_TRUE(bounced);
  EXPECT_EQ(stores.load(), 4 + 1) << "4 chunks plus one retry of chunk 2";
  EXPECT_EQ(writer->stats().location_retries, retries_before + 1);

  CacheManager* reader = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef rv, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*rv, "/bounce"));
  EXPECT_EQ(back, data);
}

TEST(DatapathTest, MultiPartStoreCommitsOneTransactionPer32Blocks) {
  // The server writes a many-part kStoreData with one vnode write, so
  // Episode commits it as a chain of short transactions of up to 32 blocks
  // (Section 2.2): one for 16 parts, two for 40.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* writer = rig->NewClient("alice");  // every store is one chunk
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, writer->MountVolume("home"));
  for (uint64_t blocks : {uint64_t{16}, uint64_t{40}}) {
    SCOPED_TRACE(std::to_string(blocks) + " blocks");
    std::string path = "/txn" + std::to_string(blocks);
    ASSERT_OK(CreateFileAt(*vfs, path, 0666, TestCred()).status());
    std::string data = PatternedBlocks(blocks);
    ASSERT_OK(WriteFileAt(*vfs, path, data, TestCred()));
    std::atomic<int> stores{0};
    std::atomic<uint64_t> commits_before{0};
    std::atomic<uint64_t> commits{0};
    {
      ServerGate gate(
          *rig,
          [&](const RpcRequest& req) -> std::optional<Status> {
            if (req.proc == kStoreData && req.from == writer->node()) {
              stores += 1;
              commits_before = rig->agg->wal().stats().commits;
            }
            return std::nullopt;
          },
          [&](const RpcRequest& req) {
            if (req.proc == kStoreData && req.from == writer->node()) {
              commits += rig->agg->wal().stats().commits - commits_before;
            }
          });
      ASSERT_OK(writer->SyncAll());
    }
    EXPECT_EQ(stores.load(), 1);
    EXPECT_EQ(commits.load(), (blocks + 31) / 32);

    CacheManager* reader = rig->NewClient("bob");
    ASSERT_OK_AND_ASSIGN(VfsRef rv, reader->MountVolume("home"));
    ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*rv, path));
    EXPECT_EQ(back, data);
  }
}

// One data path at both chunk sizes: max_rpc_bytes = 0 (every transfer is
// one chunk) and 8 blocks (16-block stores and 32-block fetches split).
class DatapathChunkTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  CacheManager::Options ClientOptions() const {
    CacheManager::Options opts;
    opts.prefetch_threads = 2;
    opts.max_rpc_bytes = GetParam();
    return opts;
  }
};

TEST_P(DatapathChunkTest, StoreBouncedAfterRevocationStoreBackSucceeds) {
  // The last chunk of A's fsync push is held at the server while B's
  // conflicting write revokes A's write token; A's revocation store-back
  // pushes the dirty blocks. The released chunk then bounces kConflict, and
  // must count as done because its blocks are already clean. With two
  // chunks, the first is stored (and forces the log) before B writes. The
  // store-back forced no log, so fsync still forces it with kSyncVolume: the
  // store-back's commit survives a server crash.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  constexpr uint64_t kBlocks = 16;
  SeedFile(*rig, "/held", kBlocks, 's');
  CacheManager* a = rig->NewClient("alice", ClientOptions());
  CacheManager* b = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef av, a->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef bv, b->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef af, ResolvePath(*av, "/held"));
  ASSERT_OK_AND_ASSIGN(VnodeRef bf, ResolvePath(*bv, "/held"));
  ASSERT_OK(af->Write(0, std::vector<uint8_t>(kBlocks * kBlockSize, 'A')).status());

  uint64_t held_offset = GetParam() == 0 ? 0 : kBlocks * kBlockSize - GetParam();
  Latch store_held;
  Latch first_stored;
  Latch release;
  std::atomic<bool> stuck{false};
  ServerGate gate(
      *rig,
      [&](const RpcRequest& req) -> std::optional<Status> {
        if (req.proc == kStoreData && req.from == a->node() &&
            RequestOffset(req) == held_offset) {
          store_held.Open();
          if (!release.Wait()) {
            stuck = true;
          }
        }
        return std::nullopt;
      },
      [&](const RpcRequest& req) {
        if (req.proc == kStoreData && req.from == a->node() && RequestOffset(req) == 0) {
          first_stored.Open();
        }
      });
  Status pushed = Status::Ok();
  std::thread fsync([&] { pushed = a->Fsync(af->fid()); });
  bool held = store_held.Wait() && (held_offset == 0 || first_stored.Wait());
  uint64_t store_backs = a->stats().revocation_stores;
  Status b_write =
      held ? bf->Write((kBlocks - 1) * kBlockSize, std::vector<uint8_t>(kBlockSize, 'B')).status()
           : Status(ErrorCode::kTimedOut, "A's store never reached the server");
  uint64_t store_backs_after = a->stats().revocation_stores;
  release.Open();
  fsync.join();
  ASSERT_OK(b_write);
  EXPECT_GT(store_backs_after, store_backs) << "B's write must revoke A's write token";
  EXPECT_FALSE(stuck);
  EXPECT_OK(pushed);
  ASSERT_OK_AND_ASSIGN(FileAttr synced, rig->AggregateAttr(af->fid()));

  CacheManager* c = rig->NewClient("root");
  ASSERT_OK_AND_ASSIGN(VfsRef cv, c->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*cv, "/held"));
  EXPECT_EQ(back, std::string((kBlocks - 1) * kBlockSize, 'A') + std::string(kBlockSize, 'B'));

  ASSERT_OK(rig->CrashServer());
  ASSERT_OK_AND_ASSIGN(FileAttr recovered, rig->AggregateAttr(af->fid()));
  EXPECT_GE(recovered.data_version, synced.data_version)
      << "A's store-back must be durable once A's fsync returned";
}

TEST(DatapathTest, FsyncForcesTheLogAfterAStoreBackOfALaterRun) {
  // A's fsync pushes two dirty runs, blocks 0-3 and 12-15 (past the server's
  // end of file), one store each. The first store's reply is held after the
  // server forced its log; meanwhile B's write into the second run revokes
  // A's write token and A's store-back pushes that run, forcing nothing.
  // Fsync then finds nothing dirty, but must still force the log: the
  // store-back's size and data version survive a server crash.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  constexpr uint64_t kSeedBlocks = 12;
  SeedFile(*rig, "/runs", kSeedBlocks, 's');
  CacheManager* a = rig->NewClient("alice");
  CacheManager* b = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef av, a->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef bv, b->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef af, ResolvePath(*av, "/runs"));
  ASSERT_OK_AND_ASSIGN(VnodeRef bf, ResolvePath(*bv, "/runs"));
  const std::vector<uint8_t> run(4 * kBlockSize, 'A');
  ASSERT_OK(af->Write(0, run).status());
  ASSERT_OK(af->Write(kSeedBlocks * kBlockSize, run).status());

  Status pushed = Status::Ok();
  Status b_write = Status::Ok();
  uint64_t store_backs = a->stats().revocation_stores;
  uint64_t store_backs_after = store_backs;
  {
    Latch first_answered;
    Latch release;
    std::atomic<bool> stuck{false};
    ServerGate gate(
        *rig, [](const RpcRequest&) -> std::optional<Status> { return std::nullopt; },
        [&](const RpcRequest& req) {
          if (req.proc == kStoreData && req.from == a->node() && RequestOffset(req) == 0) {
            first_answered.Open();
            if (!release.Wait()) {
              stuck = true;
            }
          }
        });
    std::thread fsync([&] { pushed = a->Fsync(af->fid()); });
    b_write = first_answered.Wait()
                  ? bf->Write((kSeedBlocks + 1) * kBlockSize, std::vector<uint8_t>(kBlockSize, 'B'))
                        .status()
                  : Status(ErrorCode::kTimedOut, "A's first store was never answered");
    store_backs_after = a->stats().revocation_stores;
    release.Open();
    fsync.join();
    EXPECT_FALSE(stuck);
  }
  ASSERT_OK(b_write);
  ASSERT_OK(pushed);
  EXPECT_GT(store_backs_after, store_backs) << "B's write must revoke A's write token";
  ASSERT_OK_AND_ASSIGN(FileAttr synced, rig->AggregateAttr(af->fid()));
  EXPECT_EQ(synced.size, (kSeedBlocks + 4) * kBlockSize) << "the store-back pushed the second run";

  ASSERT_OK(rig->CrashServer());
  ASSERT_OK_AND_ASSIGN(FileAttr recovered, rig->AggregateAttr(af->fid()));
  EXPECT_GE(recovered.size, synced.size);
  EXPECT_GE(recovered.data_version, synced.data_version)
      << "A's store-back must be durable once A's fsync returned";
}

TEST_P(DatapathChunkTest, FailedFetchLeavesCacheAsFound) {
  // The last chunk of a cold 32-block read fails at the server. The blocks
  // the read installed come back out; block 3, cached before the read,
  // stays; and the next read succeeds.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  constexpr uint64_t kBlocks = 32;
  SeedFile(*rig, "/flaky", kBlocks, 'f');
  CacheManager* a = rig->NewClient("alice", ClientOptions());
  ASSERT_OK_AND_ASSIGN(VfsRef av, a->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef af, ResolvePath(*av, "/flaky"));
  std::vector<uint8_t> block(kBlockSize);
  ASSERT_OK(af->Read(3 * kBlockSize, block).status());

  uint64_t fail_offset = GetParam() == 0 ? 0 : kBlocks * kBlockSize - GetParam();
  std::atomic<bool> failed{false};
  std::vector<uint8_t> all(kBlocks * kBlockSize);
  {
    ServerGate gate(*rig, [&](const RpcRequest& req) -> std::optional<Status> {
      if (req.proc == kFetchData && req.from == a->node() &&
          RequestOffset(req) == fail_offset && !failed.exchange(true)) {
        return Status(ErrorCode::kIoError, "injected chunk failure");
      }
      return std::nullopt;
    });
    auto n = af->Read(0, all);
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.code(), ErrorCode::kIoError);
  }
  ASSERT_TRUE(failed);

  CacheManager::Stats before = a->stats();
  ASSERT_OK(af->Read(3 * kBlockSize, block).status());
  EXPECT_EQ(block[0], 'f');
  EXPECT_EQ(a->stats().data_cache_hits, before.data_cache_hits + 1)
      << "a block cached before the failed read must stay cached";
  ASSERT_OK(af->Read(0, block).status());
  EXPECT_EQ(block[0], 'f');
  EXPECT_EQ(a->stats().data_cache_misses, before.data_cache_misses + 1)
      << "a block the failed read installed must be rolled back";
  ASSERT_OK_AND_ASSIGN(size_t n, af->Read(0, all));
  ASSERT_EQ(n, all.size());
  EXPECT_EQ(all, std::vector<uint8_t>(all.size(), 'f'));
}

TEST_P(DatapathChunkTest, MatchedFetchDropsBytesWhoseTokenWasRevoked) {
  // The reader holds a whole-file data-read token, so its read of blocks
  // 16-31 matches it and asks for no grant. The server reads the old bytes
  // and the reply is held. Meanwhile a writer rewrites block 20 and fsyncs,
  // which revokes the matched token. The released reply must not install:
  // its bytes predate the write. The read's retry is failed on purpose, so
  // nothing refetches the range, and a later whole-file grant taken by a
  // read of block 0 must not find old bytes of block 20 to vouch for.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  constexpr uint64_t kBlocks = 32;
  constexpr uint64_t kHeldOffset = 16 * kBlockSize;
  SeedFile(*rig, "/match", kBlocks, 'a');
  CacheManager::Options ropts = ClientOptions();
  ropts.whole_file_data_tokens = true;
  CacheManager* reader = rig->NewClient("alice", ropts);
  CacheManager* writer = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef rv, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef wv, writer->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef rf, ResolvePath(*rv, "/match"));
  ASSERT_OK_AND_ASSIGN(VnodeRef wf, ResolvePath(*wv, "/match"));
  std::vector<uint8_t> block(kBlockSize);
  ASSERT_OK(rf->Read(0, block).status());  // takes the whole-file token

  std::vector<uint8_t> range((kBlocks - 16) * kBlockSize);
  {
    Latch reply_held;
    Latch release;
    std::atomic<int> fetches{0};
    std::atomic<bool> stuck{false};
    auto held_fetch = [&](const RpcRequest& req) {
      return req.proc == kFetchData && req.from == reader->node() &&
             RequestOffset(req) == kHeldOffset;
    };
    ServerGate gate(
        *rig,
        [&](const RpcRequest& req) -> std::optional<Status> {
          if (held_fetch(req) && fetches.fetch_add(1) > 0) {
            return Status(ErrorCode::kIoError, "injected retry failure");
          }
          return std::nullopt;
        },
        [&](const RpcRequest& req) {
          if (held_fetch(req)) {
            reply_held.Open();
            if (!release.Wait()) {
              stuck = true;
            }
          }
        });
    Status first_read = Status::Ok();
    std::thread reading([&] { first_read = rf->Read(kHeldOffset, range).status(); });
    Status wrote = reply_held.Wait()
                       ? wf->Write(20 * kBlockSize, std::vector<uint8_t>(kBlockSize, 'b')).status()
                       : Status(ErrorCode::kTimedOut, "the reader's fetch never reached the server");
    Status synced = wrote.ok() ? writer->Fsync(wf->fid()) : wrote;
    release.Open();
    reading.join();
    ASSERT_OK(wrote);
    ASSERT_OK(synced);
    EXPECT_FALSE(stuck);
    EXPECT_EQ(first_read.code(), ErrorCode::kIoError) << "the retry is failed on purpose";
    EXPECT_EQ(fetches.load(), 2) << "the revoked match must send the read back to the server";
  }
  EXPECT_GE(reader->stats().match_drops, 1u);

  ASSERT_OK(rf->Read(0, block).status());  // a fresh whole-file grant
  EXPECT_EQ(block[0], 'a');
  ASSERT_OK_AND_ASSIGN(size_t n, rf->Read(kHeldOffset, range));
  ASSERT_EQ(n, range.size());
  for (uint64_t b = 16; b < kBlocks; ++b) {
    EXPECT_EQ(range[(b - 16) * kBlockSize], b == 20 ? 'b' : 'a') << "block " << b;
  }
}

TEST_P(DatapathChunkTest, MatchedPrefetchWindowDropsBytesWhoseTokenWasRevoked) {
  // The same race for a readahead window: the window over blocks 2-5 matches
  // the reader's whole-file token, its reply (old bytes) is held while a
  // writer rewrites block 3 and fsyncs, and the released window must not
  // install. The read that follows sees the new block 3.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  constexpr uint64_t kBlocks = 32;
  SeedFile(*rig, "/window", kBlocks, 'a');
  CacheManager::Options ropts = ClientOptions();
  ropts.whole_file_data_tokens = true;
  ropts.readahead_min_blocks = 4;
  ropts.readahead_max_blocks = 4;
  CacheManager* reader = rig->NewClient("alice", ropts);
  CacheManager* writer = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef rv, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef wv, writer->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef rf, ResolvePath(*rv, "/window"));
  ASSERT_OK_AND_ASSIGN(VnodeRef wf, ResolvePath(*wv, "/window"));
  std::vector<uint8_t> block(kBlockSize);
  ASSERT_OK(rf->Read(0, block).status());  // takes the whole-file token

  Latch reply_held;
  Latch release;
  std::atomic<bool> holding{true};
  std::atomic<bool> stuck{false};
  ServerGate gate(
      *rig, [](const RpcRequest&) -> std::optional<Status> { return std::nullopt; },
      [&](const RpcRequest& req) {
        if (req.proc == kFetchData && req.from == reader->node() &&
            RequestOffset(req) == 2 * kBlockSize && holding.exchange(false)) {
          reply_held.Open();
          if (!release.Wait()) {
            stuck = true;
          }
        }
      });
  uint64_t dropped_before = reader->stats().prefetch_cancelled + reader->stats().match_drops;
  ASSERT_OK(rf->Read(kBlockSize, block).status());  // sequential: starts the window
  Status wrote = reply_held.Wait()
                     ? wf->Write(3 * kBlockSize, std::vector<uint8_t>(kBlockSize, 'b')).status()
                     : Status(ErrorCode::kTimedOut, "the window never reached the server");
  Status synced = wrote.ok() ? writer->Fsync(wf->fid()) : wrote;
  release.Open();
  ASSERT_OK(wrote);
  ASSERT_OK(synced);
  EXPECT_FALSE(stuck);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (reader->stats().prefetch_cancelled + reader->stats().match_drops == dropped_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(reader->stats().prefetch_cancelled + reader->stats().match_drops, dropped_before)
      << "the released window must be dropped";
  for (uint64_t b = 2; b < 6; ++b) {
    ASSERT_OK(rf->Read(b * kBlockSize, block).status());
    EXPECT_EQ(block[0], b == 3 ? 'b' : 'a') << "block " << b;
  }
}

TEST_P(DatapathChunkTest, AdjacentWriteTokensCoverOneStore) {
  // Two writes leave the client two adjacent write tokens, over blocks 0-3
  // and 4-7. The fsync pushes the 8-block run in one kStoreData: the server
  // checks coverage by union, as the client does, so the store neither
  // bounces kConflict nor refetches one covering token.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* a = rig->NewClient("alice", ClientOptions());
  ASSERT_OK_AND_ASSIGN(VfsRef av, a->MountVolume("home"));
  ASSERT_OK(CreateFileAt(*av, "/adjacent", 0666, TestCred()).status());
  ASSERT_OK_AND_ASSIGN(VnodeRef af, ResolvePath(*av, "/adjacent"));
  ASSERT_OK(af->Write(0, std::vector<uint8_t>(4 * kBlockSize, 'x')).status());
  ASSERT_OK(af->Write(4 * kBlockSize, std::vector<uint8_t>(4 * kBlockSize, 'y')).status());
  size_t write_tokens = 0;
  for (const Token& t : rig->server->tokens().TokensForFid(af->fid())) {
    if (t.host == a->node() && (t.types & kTokenDataWrite) != 0) {
      ++write_tokens;
    }
  }
  ASSERT_EQ(write_tokens, 2u) << "each write must take its own adjacent token";

  std::atomic<int> stores{0};
  std::atomic<int> fetches{0};
  {
    ServerGate gate(*rig, [&](const RpcRequest& req) -> std::optional<Status> {
      if (req.from == a->node()) {
        stores += req.proc == kStoreData ? 1 : 0;
        fetches += req.proc == kFetchData ? 1 : 0;
      }
      return std::nullopt;
    });
    ASSERT_OK(a->Fsync(af->fid()));
  }
  EXPECT_EQ(stores.load(), 1);
  EXPECT_EQ(fetches.load(), 0);

  CacheManager* c = rig->NewClient("root");
  ASSERT_OK_AND_ASSIGN(VfsRef cv, c->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*cv, "/adjacent"));
  EXPECT_EQ(back, std::string(4 * kBlockSize, 'x') + std::string(4 * kBlockSize, 'y'));
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, DatapathChunkTest,
                         ::testing::Values(uint64_t{0}, uint64_t{8 * kBlockSize}),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return info.param == 0 ? std::string("OneChunk")
                                                  : std::string("EightBlockChunks");
                         });

TEST(DatapathTest, RereadsKeepTokenStateFlat) {
  // A reader whose cache holds 16 blocks re-reads a 64-block file 40 times,
  // so every pass refetches evicted blocks. Each refetch matches the
  // data-read tokens already held instead of asking for new ones, so the
  // server's token count for the file stays where the first pass left it.
  // Both data paths: one whole-file read per pass (synchronous), and block
  // by block with background readahead.
  for (size_t threads : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE(threads == 0 ? "whole-file reads" : "block reads with readahead");
    auto rig = DfsRig::Create();
    ASSERT_NE(rig, nullptr);
    constexpr uint64_t kBlocks = 64;
    SeedFile(*rig, "/reread", kBlocks, 'r');
    CacheManager::Options opts;
    opts.max_cached_blocks = 16;
    opts.prefetch_threads = threads;
    CacheManager* reader = rig->NewClient("alice", opts);
    ASSERT_OK_AND_ASSIGN(VfsRef vfs, reader->MountVolume("home"));
    ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/reread"));
    size_t after_first = 0;
    uint64_t windows_first = 0;
    std::vector<uint8_t> buf(threads == 0 ? kBlocks * kBlockSize : kBlockSize);
    for (int pass = 1; pass <= 40; ++pass) {
      for (uint64_t off = 0; off < kBlocks * kBlockSize; off += buf.size()) {
        ASSERT_OK_AND_ASSIGN(size_t n, f->Read(off, buf));
        ASSERT_EQ(n, buf.size());
        ASSERT_EQ(buf[0], 'r');
      }
      if (pass == 1) {
        after_first = rig->server->tokens().TokensForFid(f->fid()).size();
        windows_first = reader->stats().prefetch_issued;
      }
    }
    size_t after_last = rig->server->tokens().TokensForFid(f->fid()).size();
    EXPECT_GT(reader->stats().cache_evictions, 0u) << "the passes must refetch";
    EXPECT_EQ(after_last, after_first);
    if (threads == 0) {
      EXPECT_LE(after_last, 4u);
    } else {
      // One grant per window, plus the status-read token of the lookup and
      // one data-read grant each for blocks 0 and 1, the foreground reads
      // the stream starts from: a read that misses inside a window on the
      // wire waits for it instead of minting a grant of its own.
      EXPECT_LE(after_first, windows_first + 3);
    }
  }
}

TEST(DatapathTest, SmallCacheIsNotOverrunByItsReadahead) {
  // A 16-block cache reads a 64-block file one block at a time. Readahead
  // keeps its lead within half the cache and its windows within half the
  // lead, so the windows land ahead of the reader and are read before they
  // are evicted: at most one window's blocks go to waste, and most reads hit.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  constexpr uint64_t kBlocks = 64;
  SeedFile(*rig, "/small", kBlocks, 's');
  CacheManager::Options opts;
  opts.max_cached_blocks = 16;
  opts.prefetch_threads = 2;
  CacheManager* reader = rig->NewClient("alice", opts);
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/small"));
  std::vector<uint8_t> buf(kBlockSize);
  for (uint64_t b = 0; b < kBlocks; ++b) {
    ASSERT_OK_AND_ASSIGN(size_t n, f->Read(b * kBlockSize, buf));
    ASSERT_EQ(n, buf.size());
    ASSERT_EQ(buf[0], 's');
  }
  CacheManager::Stats stats = reader->stats();
  EXPECT_GT(stats.prefetch_issued, 0u);
  EXPECT_LE(stats.prefetch_wasted, 4u) << "one 4-block window at most";
  EXPECT_GT(stats.data_cache_hits, kBlocks / 2);
}

TEST(DatapathTest, MissWaitsForTheWindowOnTheWire) {
  // The gate holds the kFetchData of the readahead window over blocks 2-5.
  // A read of block 2 misses and must wait for that window rather than
  // fetch the block itself: it stays blocked while the window is held, and
  // once the window is released it returns block 2's bytes, the server
  // having seen exactly one kFetchData over block 2.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  constexpr uint64_t kBlocks = 32;
  std::string data = PatternedBlocks(kBlocks);
  {
    CacheManager* setup = rig->NewClient("root");
    ASSERT_OK_AND_ASSIGN(VfsRef vfs, setup->MountVolume("home"));
    ASSERT_OK(CreateFileAt(*vfs, "/covered", 0666, TestCred()).status());
    ASSERT_OK(WriteFileAt(*vfs, "/covered", data, TestCred()));
    ASSERT_OK(setup->SyncAll());
    ASSERT_OK(setup->ReturnAllTokens());
  }
  CacheManager::Options opts;
  opts.prefetch_threads = 1;
  opts.readahead_min_blocks = 4;
  opts.readahead_max_blocks = 4;
  CacheManager* reader = rig->NewClient("alice", opts);
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/covered"));

  Latch window_held;
  Latch release;
  std::atomic<bool> holding{true};
  std::atomic<bool> stuck{false};
  std::atomic<int> over_block_2{0};
  ServerGate gate(*rig, [&](const RpcRequest& req) -> std::optional<Status> {
    if (req.proc != kFetchData || req.from != reader->node()) {
      return std::nullopt;
    }
    uint64_t off = RequestOffset(req);
    if (off <= 2 * kBlockSize && 2 * kBlockSize < off + RequestLength(req)) {
      over_block_2 += 1;
    }
    if (off == 2 * kBlockSize && holding.exchange(false)) {
      window_held.Open();
      if (!release.Wait()) {
        stuck = true;
      }
    }
    return std::nullopt;
  });
  std::vector<uint8_t> block(kBlockSize);
  ASSERT_OK(f->Read(0, block).status());
  ASSERT_OK(f->Read(kBlockSize, block).status());  // sequential: sends the windows
  if (!window_held.Wait()) {
    release.Open();
    FAIL() << "the window over block 2 never reached the server";
  }
  std::atomic<bool> done{false};
  Result<size_t> got = Status(ErrorCode::kInternal, "not run");
  std::thread miss([&] {
    got = f->Read(2 * kBlockSize, block);
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(done) << "the miss fetched the block instead of waiting for its window";
  release.Open();
  miss.join();
  EXPECT_FALSE(stuck);
  ASSERT_OK(got.status());
  ASSERT_EQ(*got, kBlockSize);
  EXPECT_EQ(std::string(block.begin(), block.end()), data.substr(2 * kBlockSize, kBlockSize));
  EXPECT_EQ(over_block_2.load(), 1);
}

TEST(DatapathTest, ReadaheadDepthDoesNotFollowThePool) {
  // One harvest thread, and the gate holds each readahead kFetchData at the
  // server until 8 are there: windows go out from the reading thread, so
  // more than the pool's width are on the wire at once, and never more than
  // the bulk-RPC bound (CacheManager::kMaxInflightChunks = 8), though the
  // lead (8 max windows) would allow a ninth.
  DfsRig::Options ropts;
  ropts.server.rpc.worker_threads = 16;
  auto rig = DfsRig::Create(ropts);
  ASSERT_NE(rig, nullptr);
  constexpr uint64_t kBlocks = 256;
  SeedFile(*rig, "/deep_ahead", kBlocks, 'p');
  CacheManager::Options opts;
  opts.prefetch_threads = 1;
  opts.readahead_min_blocks = 4;
  opts.readahead_max_blocks = 16;
  CacheManager* reader = rig->NewClient("alice", opts);
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/deep_ahead"));

  InflightProbe windows;
  std::atomic<uint64_t> arrivals{0};
  // The foreground reads cover blocks 0 and 1; every fetch past them is a
  // readahead window.
  auto window = [&](const RpcRequest& req) {
    return req.proc == kFetchData && req.from == reader->node() &&
           RequestOffset(req) >= 2 * kBlockSize;
  };
  {
    ServerGate gate(
        *rig,
        [&](const RpcRequest& req) -> std::optional<Status> {
          if (window(req)) {
            windows.Arrive(arrivals.fetch_add(1));
          }
          return std::nullopt;
        },
        [&](const RpcRequest& req) {
          if (window(req)) {
            windows.Leave();
          }
        });
    std::vector<uint8_t> block(kBlockSize);
    for (uint64_t b = 0; b < kBlocks; ++b) {
      ASSERT_OK_AND_ASSIGN(size_t n, f->Read(b * kBlockSize, block));
      ASSERT_EQ(n, kBlockSize);
      ASSERT_EQ(block[0], 'p') << "block " << b;
    }
  }
  EXPECT_FALSE(windows.stuck()) << "8 windows never reached the server together";
  EXPECT_GT(windows.max(), 2);
  EXPECT_EQ(windows.max(), InflightProbe::kDepth);
}

TEST(DatapathTest, WindowOnTheWireIsHarvestedAfterCloseOrTeardown) {
  // A readahead window's reply is held at the server, its token already
  // granted, while the file is closed (generation bump, Forget) or the
  // client is destroyed, and a peer writes inside the window. Once the reply
  // is released the window is harvested: its token is installed and handed
  // to the revocation it deferred, the file has no RPC in flight, and the
  // peer's write is granted well inside the deferred-return timeout (2 s).
  for (bool destroy : {false, true}) {
    SCOPED_TRACE(destroy ? "client destroyed" : "file closed");
    DfsRig::Options ropts;
    ropts.server.rpc.worker_threads = 16;
    auto rig = DfsRig::Create(ropts);
    ASSERT_NE(rig, nullptr);
    constexpr uint64_t kBlocks = 32;
    SeedFile(*rig, "/teardown", kBlocks, 't');
    CacheManager::Options opts;
    opts.prefetch_threads = 1;
    opts.readahead_min_blocks = 4;
    opts.readahead_max_blocks = 4;
    CacheManager* reader = rig->NewClient("alice", opts);
    size_t reader_index = rig->clients.size() - 1;
    CacheManager* writer = rig->NewClient("bob");
    NodeId reader_node = reader->node();
    ASSERT_OK_AND_ASSIGN(VfsRef rv, reader->MountVolume("home"));
    ASSERT_OK_AND_ASSIGN(VfsRef wv, writer->MountVolume("home"));
    ASSERT_OK_AND_ASSIGN(VnodeRef rf, ResolvePath(*rv, "/teardown"));
    ASSERT_OK_AND_ASSIGN(VnodeRef wf, ResolvePath(*wv, "/teardown"));
    std::optional<OpenHandle> handle;
    if (!destroy) {
      ASSERT_OK_AND_ASSIGN(handle, reader->Open(*rv, "/teardown", OpenMode::kRead));
    }

    Latch reply_held;
    Latch release;
    std::atomic<bool> holding{true};
    std::atomic<bool> stuck{false};
    ServerGate gate(
        *rig, [](const RpcRequest&) -> std::optional<Status> { return std::nullopt; },
        [&](const RpcRequest& req) {
          if (req.proc == kFetchData && req.from == reader_node &&
              RequestOffset(req) == 2 * kBlockSize && holding.exchange(false)) {
            reply_held.Open();
            if (!release.Wait()) {
              stuck = true;
            }
          }
        });
    std::vector<uint8_t> block(kBlockSize);
    ASSERT_OK(rf->Read(0, block).status());
    ASSERT_OK(rf->Read(kBlockSize, block).status());  // sequential: sends the windows
    if (!reply_held.Wait()) {
      release.Open();
      FAIL() << "the window over blocks 2-5 never reached the server";
    }
    uint64_t cancelled_before = reader->stats().prefetch_cancelled;
    std::thread teardown;
    if (destroy) {
      // The destructor joins the harvest pool, so it waits for the reply.
      teardown = std::thread([&] { rig->clients[reader_index].reset(); });
    } else {
      ASSERT_OK(handle->Close());
    }
    std::atomic<bool> wrote{false};
    Status write_status = Status::Ok();
    std::thread peer([&] {
      write_status = wf->Write(3 * kBlockSize, std::vector<uint8_t>(kBlockSize, 'w')).status();
      wrote = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));  // the revocation defers
    auto released = std::chrono::steady_clock::now();
    release.Open();
    peer.join();
    auto granted_after = std::chrono::steady_clock::now() - released;
    if (teardown.joinable()) {
      teardown.join();
    }
    EXPECT_FALSE(stuck);
    ASSERT_OK(write_status);
    EXPECT_LT(granted_after, std::chrono::milliseconds(1000))
        << "the peer's write waited on a token the harvest never handed back";
    if (!destroy) {
      auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (reader->RpcsInFlight(rf->fid()) != 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      EXPECT_EQ(reader->RpcsInFlight(rf->fid()), 0);
      EXPECT_GT(reader->stats().prefetch_cancelled, cancelled_before)
          << "the closed file's window must be harvested without installing its data";
    }
  }
}

TEST(DatapathTest, ServerRevocationRacesInflightPrefetch) {
  // A reader streams with background readahead while a writer repeatedly
  // rewrites the same file, so data revocations keep arriving at the reader
  // with prefetch windows in flight. Every read must return whole-block
  // consistent data (all old fill or all new fill), and once the writer is
  // done the reader must converge to the final contents.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  constexpr uint64_t kBlocks = 32;
  SeedFile(*rig, "/race", kBlocks, 'a');

  CacheManager::Options ropts;
  ropts.prefetch_threads = 4;
  ropts.readahead_min_blocks = 4;
  ropts.readahead_max_blocks = 16;
  CacheManager* reader = rig->NewClient("alice", ropts);
  CacheManager* writer = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef rvfs, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef wvfs, writer->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef rf, ResolvePath(*rvfs, "/race"));

  ASSERT_OK_AND_ASSIGN(VnodeRef wf, ResolvePath(*wvfs, "/race"));
  std::atomic<bool> done{false};
  std::thread writer_thread([&] {
    // Rewrite in place (no truncate): the file's size never changes, so a
    // racing read always sees a full block of *some* fill generation.
    const char fills[] = {'b', 'c', 'd'};
    for (char fill : fills) {
      std::string data(kBlocks * kBlockSize, fill);
      auto w = wf->Write(0, std::span<const uint8_t>(
                                reinterpret_cast<const uint8_t*>(data.data()), data.size()));
      EXPECT_TRUE(w.ok()) << w.status().message();
      Status s = writer->SyncAll();
      EXPECT_TRUE(s.ok()) << s.message();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<uint8_t> buf(kBlockSize);
  while (!done.load(std::memory_order_acquire)) {
    for (uint64_t b = 0; b < kBlocks; ++b) {
      auto n = rf->Read(b * kBlockSize, buf);
      ASSERT_TRUE(n.ok()) << n.status().message();
      ASSERT_EQ(*n, kBlockSize);
      char first = static_cast<char>(buf[0]);
      ASSERT_TRUE(first >= 'a' && first <= 'd') << "block " << b;
      for (size_t i = 0; i < kBlockSize; i += 257) {
        ASSERT_EQ(static_cast<char>(buf[i]), first)
            << "torn block " << b << " at byte " << i;
      }
    }
  }
  writer_thread.join();

  // Convergence: the next full pass revokes the writer's tokens (storing its
  // data) and must observe the final fill everywhere.
  for (uint64_t b = 0; b < kBlocks; ++b) {
    ASSERT_OK_AND_ASSIGN(size_t n, rf->Read(b * kBlockSize, buf));
    ASSERT_EQ(n, kBlockSize);
    EXPECT_EQ(static_cast<char>(buf[0]), 'd') << "block " << b;
  }
  // The daemon's bookkeeping stayed coherent across the revocations: every
  // issued window was eventually consumed, cancelled, or wasted — and the
  // client survives a clean shutdown with windows possibly still in flight.
  (void)reader->stats();
}

TEST(DatapathTest, BulkFetchNeverCachesStaleDataUnderConcurrentWrites) {
  // Regression for the split fetch's read/grant atomicity: the tokenless
  // data chunks must only go on the wire once the token chunk has landed
  // (grant-before-data barrier). Without the barrier, a writer slipping
  // between a data chunk's server-side read and the grant leaves this
  // client caching stale bytes under a valid token — no revocation is ever
  // aimed at it, so the stale data would be served indefinitely.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  constexpr uint64_t kBlocks = 32;
  SeedFile(*rig, "/stale", kBlocks, 'a');

  CacheManager::Options ropts;
  ropts.prefetch_threads = 4;
  ropts.max_rpc_bytes = 8 * kBlockSize;  // 32-block reads -> 4 chunks
  CacheManager* reader = rig->NewClient("alice", ropts);
  CacheManager* writer = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef rvfs, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef wvfs, writer->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef rf, ResolvePath(*rvfs, "/stale"));
  ASSERT_OK_AND_ASSIGN(VnodeRef wf, ResolvePath(*wvfs, "/stale"));

  std::atomic<bool> done{false};
  std::thread writer_thread([&] {
    // Rewrite in place (size never changes) so every racing read sees whole
    // blocks of *some* fill generation.
    const char fills[] = {'b', 'c', 'd'};
    for (char fill : fills) {
      std::string data(kBlocks * kBlockSize, fill);
      auto w = wf->Write(0, std::span<const uint8_t>(
                                reinterpret_cast<const uint8_t*>(data.data()), data.size()));
      EXPECT_TRUE(w.ok()) << w.status().message();
      Status s = writer->SyncAll();
      EXPECT_TRUE(s.ok()) << s.message();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    done.store(true, std::memory_order_release);
  });

  // EXPECT + break (not ASSERT) inside the loop: a failure must still fall
  // through to the join below, or the test tears down with the writer thread
  // joinable and aborts instead of reporting.
  std::vector<uint8_t> buf(kBlocks * kBlockSize);
  while (!done.load(std::memory_order_acquire)) {
    auto n = rf->Read(0, buf);  // split into 4 chunks every cold pass
    EXPECT_TRUE(n.ok()) << n.status().message();
    if (!n.ok()) {
      break;
    }
    EXPECT_EQ(*n, buf.size());
    bool torn = false;
    for (uint64_t b = 0; b < kBlocks && !torn; ++b) {
      char first = static_cast<char>(buf[b * kBlockSize]);
      EXPECT_TRUE(first >= 'a' && first <= 'd') << "block " << b;
      torn = !(first >= 'a' && first <= 'd');
      for (size_t i = 1; i < kBlockSize && !torn; i += 509) {
        char got = static_cast<char>(buf[b * kBlockSize + i]);
        EXPECT_EQ(got, first) << "torn block " << b;
        torn = got != first;
      }
    }
    if (torn) {
      break;
    }
  }
  writer_thread.join();

  // Convergence is the regression check: the writer's final grant must have
  // revoked the reader's token (invalidating its cache), so the next read
  // refetches and sees the final fill — never a stale chunk that slipped in
  // tokenless before the grant.
  ASSERT_OK_AND_ASSIGN(size_t n, rf->Read(0, buf));
  ASSERT_EQ(n, buf.size());
  for (size_t i = 0; i < buf.size(); i += 257) {
    ASSERT_EQ(static_cast<char>(buf[i]), 'd') << "stale byte at " << i;
  }
}

TEST(DatapathTest, SeekPreservesInflightWindowClaims) {
  // Regression: a non-sequential read resets the stream via the prefetcher's
  // seek path, which must keep in-flight window claims — erasing them
  // (Forget) would let a resumed sequential reader claim and re-fetch a
  // window whose RPC is still on the wire. Forget is reserved for close and
  // revocation, where dropping the claims is the point.
  Prefetcher::Options opts;
  opts.threads = 2;
  opts.min_window_blocks = 4;
  opts.max_window_blocks = 8;
  Prefetcher p(opts);
  Fid fid{1, 2, 3};

  auto w = p.Advance(fid, 4, /*sequential=*/true);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(p.InflightWindows(fid), 1u);

  // Seek: stream resets cold, claim survives.
  EXPECT_FALSE(p.Advance(fid, 40, /*sequential=*/false).has_value());
  EXPECT_EQ(p.InflightWindows(fid), 1u);

  // The resumed stream never re-claims a start the in-flight set still holds;
  // its next window starts at the seek position.
  auto w2 = p.Advance(fid, 44, /*sequential=*/true);
  ASSERT_TRUE(w2.has_value());
  EXPECT_NE(w2->start_block, w->start_block);
  EXPECT_EQ(p.InflightWindows(fid), 2u);

  // Close/revocation drops everything.
  p.Forget(fid);
  EXPECT_EQ(p.InflightWindows(fid), 0u);
}

TEST(DatapathTest, PrefetchLeadIsBoundedByTheCacheNotThreads) {
  // One harvest thread no longer caps the claims. The claimed blocks ahead
  // of the reader stay within clamp(cache / 4, 2 x max window, 8 x max
  // window), cut to half a small cache, and at most 8 windows are claimed at
  // once.
  Fid fid{1, 2, 3};
  auto claim_all = [&](Prefetcher& p, uint64_t read_end) {
    size_t claimed = 0;
    while (p.Advance(fid, read_end, /*sequential=*/true).has_value()) {
      ++claimed;
    }
    return claimed;
  };
  Prefetcher::Options opts;
  opts.threads = 1;
  opts.min_window_blocks = 8;
  opts.max_window_blocks = 8;

  opts.cache_blocks = 256;  // a quarter is 64 blocks: 8 windows
  {
    Prefetcher p(opts);
    EXPECT_EQ(p.lead_blocks(), 64u);
    EXPECT_EQ(claim_all(p, 1), 8u);
    EXPECT_EQ(p.InflightWindows(fid), 8u);
  }
  opts.cache_blocks = 96;  // a quarter is 24 blocks: 3 windows
  {
    Prefetcher p(opts);
    EXPECT_EQ(p.lead_blocks(), 24u);
    EXPECT_EQ(claim_all(p, 1), 3u);
    // The reader consumed one window: one more fits.
    EXPECT_EQ(claim_all(p, 9), 1u);
    EXPECT_EQ(p.InflightWindows(fid), 4u);
  }
  opts.cache_blocks = 16;  // two max windows would fill it: half the cache, half-lead windows
  {
    Prefetcher p(opts);
    EXPECT_EQ(p.lead_blocks(), 8u);
    EXPECT_EQ(p.max_window_blocks(), 4u);
    auto w = p.Advance(fid, 1, /*sequential=*/true);
    ASSERT_TRUE(w.has_value());
    EXPECT_EQ(w->blocks, 4u);
    EXPECT_EQ(claim_all(p, 1), 1u);
  }
  opts.cache_blocks = 1024;  // dfsbench stream's client: the cap leaves it alone
  opts.max_window_blocks = 64;
  {
    Prefetcher p(opts);
    EXPECT_EQ(p.lead_blocks(), 256u);
    EXPECT_EQ(p.max_window_blocks(), 64u);
  }
  opts.cache_blocks = uint64_t{1} << 20;  // a huge cache: 8 max windows
  opts.min_window_blocks = 1;
  opts.max_window_blocks = 64;
  {
    Prefetcher p(opts);
    EXPECT_EQ(p.lead_blocks(), 512u);
    // Windows 1, 2, 4, ..., 64, 64 fill 191 of the 512 lead blocks, but the
    // eighth claim reaches the in-flight bound.
    EXPECT_EQ(claim_all(p, 1), 8u);
    p.WindowDone(fid, 1);
    EXPECT_EQ(claim_all(p, 1), 1u);
  }
}

TEST(DatapathTest, SeekResetsPrefetchStream) {
  // A random-access pattern must not keep a stale stream alive: seeks bump
  // the cancellation generation, and late windows install tokens but no data.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  SeedFile(*rig, "/seek", 64, 's');

  CacheManager::Options opts;
  opts.prefetch_threads = 2;
  CacheManager* reader = rig->NewClient("alice", opts);
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/seek"));

  std::vector<uint8_t> buf(kBlockSize);
  // Forward run to start a stream, then jump around.
  for (uint64_t b = 0; b < 8; ++b) {
    ASSERT_OK(f->Read(b * kBlockSize, buf).status());
  }
  const uint64_t jumps[] = {48, 3, 60, 20, 1, 55};
  for (uint64_t b : jumps) {
    ASSERT_OK_AND_ASSIGN(size_t n, f->Read(b * kBlockSize, buf));
    ASSERT_EQ(n, kBlockSize);
    EXPECT_EQ(buf[0], 's');
  }
}

TEST(DatapathTest, WholeRangeOverwriteTakesTokenOnlyGrant) {
  // A block-aligned overwrite of server-resident data needs the write token
  // but not the bytes it is about to clobber: the client asks for a
  // token-only grant and the server ships zero data payload.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  SeedFile(*rig, "/clobber", 8, 'o');

  CacheManager* writer = rig->NewClient("alice");
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, writer->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/clobber"));

  FileServer::Stats before = rig->server->stats();
  std::vector<uint8_t> fresh(8 * kBlockSize, 'n');
  ASSERT_OK_AND_ASSIGN(size_t n, f->Write(0, fresh));
  ASSERT_EQ(n, fresh.size());

  FileServer::Stats after = rig->server->stats();
  EXPECT_EQ(after.fetch_data_bytes, before.fetch_data_bytes)
      << "whole-range overwrite fetched data it was about to clobber";
  EXPECT_GT(after.token_only_fetches, before.token_only_fetches);
  EXPECT_GT(writer->stats().token_only_grants, 0u);

  // The write really landed: read it back through a second client.
  ASSERT_OK(writer->SyncAll());
  CacheManager* reader = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef rvfs, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*rvfs, "/clobber"));
  ASSERT_EQ(back.size(), 8 * kBlockSize);
  EXPECT_EQ(back[0], 'n');
  EXPECT_EQ(back[back.size() - 1], 'n');
}

TEST(DatapathTest, PartialOverwriteStillFetchesEdgeBlock) {
  // The guard rail for the token-only path: a write that merges into an
  // existing partial edge block must still fetch that block's bytes.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  SeedFile(*rig, "/merge", 4, 'e');

  CacheManager* writer = rig->NewClient("alice");
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, writer->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/merge"));

  FileServer::Stats before = rig->server->stats();
  std::vector<uint8_t> patch(100, 'p');  // mid-block: both edges partial
  ASSERT_OK(f->Write(kBlockSize + 50, patch).status());
  FileServer::Stats after = rig->server->stats();
  EXPECT_GT(after.fetch_data_bytes, before.fetch_data_bytes)
      << "partial overwrite must fetch the edge block to merge into";

  ASSERT_OK(writer->SyncAll());
  CacheManager* reader = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef rvfs, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*rvfs, "/merge"));
  EXPECT_EQ(back[kBlockSize + 49], 'e');
  EXPECT_EQ(back[kBlockSize + 50], 'p');
  EXPECT_EQ(back[kBlockSize + 150], 'e');
}

TEST(DatapathTest, ReadSlicesServesZeroCopyOverMemoryStore) {
  // ReadSlices hands back sub-slices of the store's regions: once the file is
  // cached, repeated slice reads move bytes without copying them (the client
  // copy counter stays put while the moved counter is already paid).
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  SeedFile(*rig, "/zc", 16, 'z');

  CacheManager::Options opts;
  opts.diskless = true;  // MemoryCacheStore: the region-sharing store
  CacheManager* reader = rig->NewClient("alice", opts);
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/zc"));

  // Warm the cache (fetch + install).
  ASSERT_OK_AND_ASSIGN(std::vector<BufferSlice> first, f->ReadSlices(0, 16 * kBlockSize));
  size_t total = 0;
  for (const BufferSlice& s : first) {
    total += s.size();
    for (size_t i = 0; i < s.size(); ++i) {
      ASSERT_EQ(s.data()[i], 'z');
    }
  }
  ASSERT_EQ(total, 16 * kBlockSize);

  // Cached re-reads over the sharing store take zero copies.
  uint64_t copied_before = reader->stats().bytes_copied;
  for (int round = 0; round < 4; ++round) {
    ASSERT_OK_AND_ASSIGN(std::vector<BufferSlice> again, f->ReadSlices(0, 16 * kBlockSize));
    ASSERT_EQ(again.size(), 16u);
  }
  EXPECT_EQ(reader->stats().bytes_copied, copied_before)
      << "cached ReadSlices over MemoryCacheStore must not copy";
  EXPECT_GE(reader->stats().bytes_moved, 16u * kBlockSize);
}

}  // namespace
}  // namespace dfs
