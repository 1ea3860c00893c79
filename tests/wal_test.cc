// Unit tests for the write-ahead log: transactions, group commit, recovery
// (redo committed / undo uncommitted), abort, checkpointing, torn tails.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/blockdev/block_device.h"
#include "src/buf/buffer_cache.h"
#include "src/common/vclock.h"
#include "src/wal/wal.h"

namespace dfs {
namespace {

constexpr uint64_t kLogStart = 1;
constexpr uint64_t kLogBlocks = 64;
constexpr uint64_t kDataBlock = 100;

struct WalRig {
  explicit WalRig(Wal::Options opts = {}) : disk(256), cache(disk, 32) {
    opts.log_start_block = kLogStart;
    opts.log_blocks = kLogBlocks;
    wal = std::make_unique<Wal>(disk, cache, opts);
    cache.AttachWal(wal.get());
    EXPECT_TRUE(wal->Format().ok());
  }

  // Re-create WAL + cache over the same disk (post-crash mount).
  void Remount(Wal::Options opts = {}) {
    opts.log_start_block = kLogStart;
    opts.log_blocks = kLogBlocks;
    cache.Crash();
    wal = std::make_unique<Wal>(disk, cache, opts);
    cache.AttachWal(wal.get());
  }

  Status Update(const TxnToken& txn, uint64_t blockno, uint32_t offset, std::string_view bytes) {
    txn.AssertIssued();
    auto buf = cache.Get(blockno);
    RETURN_IF_ERROR(buf.status());
    return wal->LogUpdate(
        txn, *buf, offset,
        std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()));
  }

  uint8_t DiskByte(uint64_t blockno, uint32_t offset) {
    std::vector<uint8_t> block(kBlockSize);
    EXPECT_TRUE(disk.Read(blockno, block).ok());
    return block[offset];
  }

  uint8_t CacheByte(uint64_t blockno, uint32_t offset) {
    auto buf = cache.Get(blockno);
    EXPECT_TRUE(buf.ok());
    return buf->data()[offset];
  }

  SimDisk disk;
  BufferCache cache;
  std::unique_ptr<Wal> wal;
};

TEST(WalTest, UpdateAppliesToBufferImmediately) {
  WalRig rig;
  TxnToken txn = rig.wal->Begin();
  txn.AssertIssued();
  ASSERT_TRUE(rig.Update(txn, kDataBlock, 10, "AB").ok());
  EXPECT_EQ(rig.CacheByte(kDataBlock, 10), 'A');
  EXPECT_EQ(rig.CacheByte(kDataBlock, 11), 'B');
  ASSERT_TRUE(rig.wal->Commit(txn).ok());
}

TEST(WalTest, CommittedTxnSurvivesCrash) {
  WalRig rig;
  TxnToken txn = rig.wal->Begin();
  txn.AssertIssued();
  ASSERT_TRUE(rig.Update(txn, kDataBlock, 0, "hello").ok());
  ASSERT_TRUE(rig.wal->Commit(txn).ok());
  ASSERT_TRUE(rig.wal->Sync().ok());
  // Crash before any buffer write-back.
  rig.Remount();
  auto stats = rig.wal->Recover();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->txns_redone, 1u);
  EXPECT_EQ(stats->txns_undone, 0u);
  EXPECT_EQ(rig.DiskByte(kDataBlock, 0), 'h');
}

TEST(WalTest, UncommittedTxnIsUndone) {
  WalRig rig;
  // Committed baseline.
  TxnToken t1 = rig.wal->Begin();
  t1.AssertIssued();
  ASSERT_TRUE(rig.Update(t1, kDataBlock, 0, "X").ok());
  ASSERT_TRUE(rig.wal->Commit(t1).ok());
  // Uncommitted change on top; force its record to disk, then flush the
  // buffer (legal: log is ahead), then crash.
  TxnToken t2 = rig.wal->Begin();
  t2.AssertIssued();
  ASSERT_TRUE(rig.Update(t2, kDataBlock, 0, "Y").ok());
  ASSERT_TRUE(rig.wal->Sync().ok());
  ASSERT_TRUE(rig.cache.FlushAll().ok());
  EXPECT_EQ(rig.DiskByte(kDataBlock, 0), 'Y');  // dirty uncommitted data on disk
  rig.Remount();
  auto stats = rig.wal->Recover();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->txns_undone, 1u);
  EXPECT_EQ(rig.DiskByte(kDataBlock, 0), 'X');  // old value restored
}

TEST(WalTest, UnflushedCommitIsLostButConsistent) {
  WalRig rig;  // group commit on: commit stays in memory
  TxnToken txn = rig.wal->Begin();
  txn.AssertIssued();
  ASSERT_TRUE(rig.Update(txn, kDataBlock, 0, "Z").ok());
  ASSERT_TRUE(rig.wal->Commit(txn).ok());
  // No Sync: crash loses the commit — UNIX semantics allow this.
  rig.Remount();
  auto stats = rig.wal->Recover();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->txns_redone, 0u);
  EXPECT_EQ(rig.DiskByte(kDataBlock, 0), 0);
}

TEST(WalTest, ForceOnCommitMakesEveryCommitDurable) {
  Wal::Options opts;
  opts.force_on_commit = true;
  WalRig rig(opts);
  TxnToken txn = rig.wal->Begin();
  txn.AssertIssued();
  ASSERT_TRUE(rig.Update(txn, kDataBlock, 0, "D").ok());
  ASSERT_TRUE(rig.wal->Commit(txn).ok());
  rig.Remount();
  auto stats = rig.wal->Recover();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->txns_redone, 1u);
  EXPECT_EQ(rig.DiskByte(kDataBlock, 0), 'D');
}

TEST(WalTest, AbortRestoresOldValuesInMemory) {
  WalRig rig;
  TxnToken t1 = rig.wal->Begin();
  t1.AssertIssued();
  ASSERT_TRUE(rig.Update(t1, kDataBlock, 5, "old").ok());
  ASSERT_TRUE(rig.wal->Commit(t1).ok());
  TxnToken t2 = rig.wal->Begin();
  t2.AssertIssued();
  ASSERT_TRUE(rig.Update(t2, kDataBlock, 5, "new").ok());
  EXPECT_EQ(rig.CacheByte(kDataBlock, 5), 'n');
  ASSERT_TRUE(rig.wal->Abort(t2).ok());
  EXPECT_EQ(rig.CacheByte(kDataBlock, 5), 'o');
}

TEST(WalTest, AbortedTxnStaysAbortedAfterCrash) {
  WalRig rig;
  TxnToken t1 = rig.wal->Begin();
  t1.AssertIssued();
  ASSERT_TRUE(rig.Update(t1, kDataBlock, 5, "old").ok());
  ASSERT_TRUE(rig.wal->Commit(t1).ok());
  TxnToken t2 = rig.wal->Begin();
  t2.AssertIssued();
  ASSERT_TRUE(rig.Update(t2, kDataBlock, 5, "new").ok());
  ASSERT_TRUE(rig.wal->Abort(t2).ok());
  ASSERT_TRUE(rig.wal->Sync().ok());
  rig.Remount();
  ASSERT_TRUE(rig.wal->Recover().ok());
  EXPECT_EQ(rig.DiskByte(kDataBlock, 5), 'o');
}

TEST(WalTest, GroupCommitBatchesMultipleTxns) {
  WalRig rig;
  for (int i = 0; i < 10; ++i) {
    TxnToken txn = rig.wal->Begin();
    txn.AssertIssued();
    ASSERT_TRUE(rig.Update(txn, kDataBlock, static_cast<uint32_t>(i), "q").ok());
    ASSERT_TRUE(rig.wal->Commit(txn).ok());
  }
  EXPECT_EQ(rig.wal->stats().log_flushes, 0u);  // still batched in memory
  ASSERT_TRUE(rig.wal->Sync().ok());
  EXPECT_EQ(rig.wal->stats().log_flushes, 1u);  // one sequential append
}

TEST(WalTest, GroupCommitIntervalOnVirtualClock) {
  VirtualClock clock;
  Wal::Options opts;
  opts.clock = &clock;
  opts.group_commit_interval_ns = 30 * VirtualClock::kSecond;
  WalRig rig(opts);
  TxnToken t1 = rig.wal->Begin();
  t1.AssertIssued();
  ASSERT_TRUE(rig.Update(t1, kDataBlock, 0, "a").ok());
  ASSERT_TRUE(rig.wal->Commit(t1).ok());
  EXPECT_EQ(rig.wal->stats().log_flushes, 0u);
  clock.AdvanceSeconds(31);
  ASSERT_TRUE(rig.wal->MaybeGroupCommit().ok());
  EXPECT_EQ(rig.wal->stats().log_flushes, 1u);
}

TEST(WalTest, ForcesDoNotRereadTheLogTail) {
  // Each forced commit ends mid-block; the next force merges into that block
  // from memory rather than reading it back from disk.
  Wal::Options opts;
  opts.force_on_commit = true;
  WalRig rig(opts);
  ASSERT_TRUE(rig.cache.Get(kDataBlock).ok());  // the data block's one read
  uint64_t reads_before = rig.disk.stats().reads;
  for (int i = 0; i < 50; ++i) {
    TxnToken txn = rig.wal->Begin();
    txn.AssertIssued();
    ASSERT_TRUE(rig.Update(txn, kDataBlock, static_cast<uint32_t>(i), "r").ok());
    ASSERT_TRUE(rig.wal->Commit(txn).ok());
  }
  EXPECT_EQ(rig.wal->stats().log_flushes, 50u);
  EXPECT_EQ(rig.disk.stats().reads, reads_before) << "a force read the log tail back";
  rig.Remount();
  auto stats = rig.wal->Recover();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->txns_redone, 50u);
  for (uint32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(rig.DiskByte(kDataBlock, i), 'r');
  }
}

// Passes through to a SimDisk, but can fail the n-th write or the next barrier
// from the moment it is armed.
class FaultyDevice : public BlockDevice {
 public:
  explicit FaultyDevice(SimDisk& disk) : disk_(disk) {}

  Status Read(uint64_t blockno, std::span<uint8_t> out) override {
    return disk_.Read(blockno, out);
  }
  Status Write(uint64_t blockno, std::span<const uint8_t> data) override {
    if (fail_write_in_ > 0 && --fail_write_in_ == 0) {
      ++faults;
      return Status(ErrorCode::kIoError, "injected write failure");
    }
    return disk_.Write(blockno, data);
  }
  Status Flush() override {
    if (fail_flush_) {
      fail_flush_ = false;
      ++faults;
      return Status(ErrorCode::kIoError, "injected barrier failure");
    }
    return disk_.Flush();
  }
  uint64_t BlockCount() const override { return disk_.BlockCount(); }

  void FailWrite(uint64_t nth) { fail_write_in_ = nth; }
  void FailNextFlush() { fail_flush_ = true; }

  uint64_t faults = 0;

 private:
  SimDisk& disk_;
  uint64_t fail_write_in_ = 0;
  bool fail_flush_ = false;
};

// A force that starts mid-block and spans two blocks fails part way; the
// retried force must not damage the records already durable in the first.
void CheckFailedForceRetriesCleanly(bool fail_barrier) {
  SimDisk disk(256);
  FaultyDevice dev(disk);
  auto cache = std::make_unique<BufferCache>(dev, 32);
  Wal::Options opts;
  opts.log_start_block = kLogStart;
  opts.log_blocks = kLogBlocks;
  opts.force_on_commit = true;
  auto wal = std::make_unique<Wal>(dev, *cache, opts);
  cache->AttachWal(wal.get());
  ASSERT_TRUE(wal->Format().ok());

  auto update = [&](const TxnToken& txn, uint64_t blockno, std::string_view bytes) {
    auto buf = cache->Get(blockno);
    ASSERT_TRUE(buf.ok());
    ASSERT_TRUE(wal->LogUpdate(txn, *buf, 0,
                               std::span<const uint8_t>(
                                   reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()))
                    .ok());
  };

  // A small durable commit leaves the log tail mid-block.
  TxnToken first = wal->Begin();
  first.AssertIssued();
  update(first, kDataBlock, "durable");
  ASSERT_TRUE(wal->Commit(first).ok());

  // Half a block of old plus new bytes overruns the tail block into the next.
  TxnToken big = wal->Begin();
  big.AssertIssued();
  update(big, kDataBlock + 1, std::string(kBlockSize / 2, 'b'));
  if (fail_barrier) {
    dev.FailNextFlush();
  } else {
    dev.FailWrite(2);
  }
  EXPECT_FALSE(wal->Commit(big).ok());
  ASSERT_EQ(dev.faults, 1u);
  ASSERT_TRUE(wal->Sync().ok());  // the retry

  cache->Crash();
  wal = std::make_unique<Wal>(dev, *cache, opts);
  cache->AttachWal(wal.get());
  auto stats = wal->Recover();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->txns_redone, 2u);
  std::vector<uint8_t> block(kBlockSize);
  ASSERT_TRUE(disk.Read(kDataBlock, block).ok());
  EXPECT_EQ(std::string(block.begin(), block.begin() + 7), "durable");
  ASSERT_TRUE(disk.Read(kDataBlock + 1, block).ok());
  EXPECT_EQ(block[kBlockSize / 2 - 1], 'b');
}

TEST(WalTest, FailedForceWriteKeepsDurableRecords) {
  CheckFailedForceRetriesCleanly(/*fail_barrier=*/false);
}

TEST(WalTest, FailedForceBarrierKeepsDurableRecords) {
  CheckFailedForceRetriesCleanly(/*fail_barrier=*/true);
}

TEST(WalTest, LogAppendsAreSequentialWrites) {
  WalRig rig;
  for (int i = 0; i < 50; ++i) {
    TxnToken txn = rig.wal->Begin();
    txn.AssertIssued();
    ASSERT_TRUE(rig.Update(txn, kDataBlock, static_cast<uint32_t>(i), "ab").ok());
    ASSERT_TRUE(rig.wal->Commit(txn).ok());
  }
  rig.disk.ResetStats();
  ASSERT_TRUE(rig.wal->Sync().ok());
  DeviceStats s = rig.disk.stats();
  ASSERT_GT(s.writes, 0u);
  // All but the first block of the append land sequentially.
  EXPECT_GE(s.sequential_writes + 1, s.writes);
}

TEST(WalTest, CheckpointResetsActiveLog) {
  WalRig rig;
  TxnToken txn = rig.wal->Begin();
  txn.AssertIssued();
  ASSERT_TRUE(rig.Update(txn, kDataBlock, 0, "ck").ok());
  ASSERT_TRUE(rig.wal->Commit(txn).ok());
  EXPECT_GT(rig.wal->active_bytes(), 0u);
  ASSERT_TRUE(rig.wal->Checkpoint().ok());
  EXPECT_EQ(rig.wal->active_bytes(), 0u);
  EXPECT_EQ(rig.DiskByte(kDataBlock, 0), 'c');  // buffers flushed by checkpoint
  // Recovery of a checkpointed log is a no-op.
  rig.Remount();
  auto stats = rig.wal->Recover();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records_scanned, 0u);
}

TEST(WalTest, AutomaticCheckpointWhenLogFills) {
  WalRig rig;
  std::vector<uint8_t> big(2048, 0x33);
  // Each record is ~4 KiB (old+new); the 63-block data area fills quickly.
  for (int i = 0; i < 200; ++i) {
    TxnToken txn = rig.wal->Begin();
    txn.AssertIssued();
    auto buf = rig.cache.Get(kDataBlock + (i % 8));
    ASSERT_TRUE(buf.ok());
    ASSERT_TRUE(rig.wal->LogUpdate(txn, *buf, 0, big).ok());
    ASSERT_TRUE(rig.wal->Commit(txn).ok());
  }
  EXPECT_GT(rig.wal->stats().checkpoints, 0u);
  EXPECT_LE(rig.wal->active_bytes(), (kLogBlocks - 1) * kBlockSize);
}

TEST(WalTest, OversizedTransactionIsRejected) {
  WalRig rig;
  std::vector<uint8_t> big(4096, 1);
  TxnToken txn = rig.wal->Begin();
  txn.AssertIssued();
  Status last = Status::Ok();
  // One transaction cannot exceed the log area; it must hit kNoSpace.
  for (int i = 0; i < 100 && last.ok(); ++i) {
    auto buf = rig.cache.Get(kDataBlock + (i % 16));
    ASSERT_TRUE(buf.ok());
    last = rig.wal->LogUpdate(txn, *buf, 0, big);
  }
  EXPECT_EQ(last.code(), ErrorCode::kNoSpace);
  ASSERT_TRUE(rig.wal->Abort(txn).ok());
}

TEST(WalTest, TornTailStopsScanCleanly) {
  WalRig rig;
  TxnToken t1 = rig.wal->Begin();
  t1.AssertIssued();
  ASSERT_TRUE(rig.Update(t1, kDataBlock, 0, "ok").ok());
  ASSERT_TRUE(rig.wal->Commit(t1).ok());
  ASSERT_TRUE(rig.wal->Sync().ok());
  // Corrupt the log area beyond the valid records (simulates a torn write).
  rig.disk.CorruptBlock(kLogStart + 1 + 2, 99);
  rig.Remount();
  auto stats = rig.wal->Recover();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->txns_redone, 1u);
  EXPECT_EQ(rig.DiskByte(kDataBlock, 0), 'o');
}

TEST(WalTest, RecoveryCostTracksActiveLogSize) {
  WalRig small;
  for (int i = 0; i < 5; ++i) {
    TxnToken txn = small.wal->Begin();
    txn.AssertIssued();
    ASSERT_TRUE(small.Update(txn, kDataBlock, static_cast<uint32_t>(i), "x").ok());
    ASSERT_TRUE(small.wal->Commit(txn).ok());
  }
  ASSERT_TRUE(small.wal->Sync().ok());
  small.Remount();
  auto s1 = small.wal->Recover();
  ASSERT_TRUE(s1.ok());

  WalRig large;
  for (int i = 0; i < 100; ++i) {
    TxnToken txn = large.wal->Begin();
    txn.AssertIssued();
    ASSERT_TRUE(large.Update(txn, kDataBlock, static_cast<uint32_t>(i % 512), "x").ok());
    ASSERT_TRUE(large.wal->Commit(txn).ok());
  }
  ASSERT_TRUE(large.wal->Sync().ok());
  large.Remount();
  auto s2 = large.wal->Recover();
  ASSERT_TRUE(s2.ok());
  EXPECT_GT(s2->bytes_scanned, s1->bytes_scanned);
  EXPECT_EQ(s1->records_scanned, 10u);   // 5 updates + 5 commits
  EXPECT_EQ(s2->records_scanned, 200u);  // 100 updates + 100 commits
}

}  // namespace
}  // namespace dfs
