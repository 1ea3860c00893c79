// Write-ahead log with old/new-value records, short transactions, and group
// commit (Section 2.2).
//
// Design points taken from the paper:
//  - Each aggregate has a log: a fixed-size area of disk set at initialization.
//  - Changes to meta-data are logged; user data is not. A log record carries
//    the old and new values of every changed byte plus the owning transaction.
//  - A separate record notes when a transaction commits. Recovery replays the
//    log: committed transactions are redone, uncommitted ones undone. Recovery
//    time is proportional to the active log, not to the file system.
//  - Transactions never span VFS calls; long operations are split into chains
//    of short transactions, which keeps the log small and fixed-size without
//    complex truncation logic (when the area nears full we checkpoint: flush
//    all dirty buffers and reset the log).
//  - Group commit: commit records accumulate in memory and are forced to disk
//    in one sequential append on sync/fsync, when the batch is large, or when
//    the 30-second-equivalent interval elapses on the virtual clock.
//
// Serialization note: the paper leaves transaction serialization out of scope;
// this implementation relies on the caller (Episode) running at most one
// update transaction per aggregate at a time, which makes the schedule
// trivially serializable. The API still tracks transactions individually so
// interleaved read-only work and the recovery logic stay honest.
#ifndef SRC_WAL_WAL_H_
#define SRC_WAL_WAL_H_

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "src/blockdev/block_device.h"
#include "src/buf/buffer_cache.h"
#include "src/common/capability.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/vclock.h"

namespace dfs {

using TxnId = uint64_t;

class Wal;

// Proof that a WAL transaction is open. Only Wal::Begin can mint one (the
// constructor is private to Wal and the type is non-copyable), so every
// log-mutating entry point taking `const TxnToken&` is statically unreachable
// from outside a Begin/Commit|Abort window — "WAL write outside a
// transaction" is a compile error, not a runtime kInvalidArgument.
using TxnToken = CapabilityToken<Wal, struct WalTxnTag, TxnId>;

class Wal : public WalFlusher {
 public:
  struct Options {
    uint64_t log_start_block = 0;  // first block of the log area
    uint64_t log_blocks = 0;       // size of the log area (incl. 1 header block)
    // Group-commit policy. force_on_commit overrides batching (ablation E10).
    bool force_on_commit = false;
    uint64_t group_commit_bytes = 256 * 1024;
    uint64_t group_commit_interval_ns = 30ull * 1'000'000'000ull;  // the paper's 30 s
    VirtualClock* clock = nullptr;  // may be null (interval check disabled)
  };

  struct Stats {
    uint64_t records = 0;
    uint64_t commits = 0;
    uint64_t aborts = 0;
    uint64_t log_flushes = 0;
    uint64_t log_bytes_flushed = 0;
    uint64_t checkpoints = 0;
  };

  struct RecoveryStats {
    uint64_t records_scanned = 0;
    uint64_t bytes_scanned = 0;
    uint64_t txns_redone = 0;
    uint64_t txns_undone = 0;
    uint64_t blocks_patched = 0;
  };

  Wal(BlockDevice& dev, BufferCache& cache, Options options);

  // Initializes an empty log (mkfs path).
  Status Format();

  // Replays the log after a crash: redo committed, undo uncommitted/aborted,
  // then resets the log area. The buffer cache is invalidated (the medium was
  // rewritten underneath it).
  Result<RecoveryStats> Recover();

  // Opens a transaction. The returned token is the open-transaction
  // capability: it cannot be copied or forged, so holding a `const TxnToken&`
  // *is* the proof the transaction is open. (C++17 guaranteed copy elision
  // lets the non-movable token be returned by value.)
  TxnToken Begin();

  // Applies `new_bytes` to the pinned metadata buffer at `offset`, logging the
  // old and new values under `txn`. The buffer is marked dirty with the
  // record's LSN so the cache enforces the write-ahead rule.
  Status LogUpdate(const TxnToken& txn, BufferCache::Ref& buf, uint32_t offset,
                   std::span<const uint8_t> new_bytes) REQUIRES(txn);

  Status Commit(const TxnToken& txn) REQUIRES(txn);

  // Restores old values in memory and logs an abort record; recovery treats
  // the transaction as undone (idempotent with the in-memory restore).
  Status Abort(const TxnToken& txn) REQUIRES(txn);

  // Forces the in-memory log tail to disk (sync/fsync path).
  Status Sync();

  // Flushes if the group-commit interval elapsed; called from the op path.
  Status MaybeGroupCommit();

  // WalFlusher: make the log durable through `lsn` (cache write-back hook).
  Status FlushTo(uint64_t lsn) override;

  // Flushes the log, then all dirty buffers, then resets the log area. Called
  // automatically when the area nears full.
  Status Checkpoint();

  Stats stats() const;
  uint64_t next_lsn() const;
  // Bytes of active (non-checkpointed) log; what recovery would scan.
  uint64_t active_bytes() const;

 private:
  enum class RecordKind : uint8_t { kUpdate = 1, kCommit = 2, kAbort = 3 };

  struct UndoEntry {
    uint64_t blockno;
    uint32_t offset;
    std::vector<uint8_t> old_bytes;
  };

  struct LogHeader {
    uint64_t magic;
    uint64_t epoch;
    uint64_t epoch_start_lsn;
  };

  static constexpr uint64_t kHeaderMagic = 0xDEC0'0EB1'50DE'0001ull;
  static constexpr uint32_t kRecordMagic = 0xDECA0B1Eu;

  Status AppendRecordLocked(RecordKind kind, TxnId txn, uint64_t blockno, uint32_t offset,
                            std::span<const uint8_t> old_bytes,
                            std::span<const uint8_t> new_bytes) REQUIRES(mu_);
  Status FlushLocked() REQUIRES(mu_);
  Status WriteHeader(const LogHeader& header);
  Result<LogHeader> ReadHeader();
  Status CheckpointIfNearFull();
  uint64_t LogDataBytes() const { return (options_.log_blocks - 1) * kBlockSize; }

  BlockDevice& dev_;
  BufferCache& cache_;
  const Options options_;

  mutable Mutex mu_;
  TxnId next_txn_ GUARDED_BY(mu_) = 1;
  uint64_t epoch_ GUARDED_BY(mu_) = 1;
  uint64_t epoch_start_lsn_ GUARDED_BY(mu_) = 0;
  uint64_t next_lsn_ GUARDED_BY(mu_) = 0;     // global byte counter across epochs
  uint64_t durable_lsn_ GUARDED_BY(mu_) = 0;  // log durable through this LSN
  uint64_t last_flush_time_ GUARDED_BY(mu_) = 0;
  // Serialized records in [durable_lsn_, next_lsn_).
  std::vector<uint8_t> pending_ GUARDED_BY(mu_);
  // Image of the log data block holding durable_lsn_, as last written.
  // Replaced only by a force that fully succeeds, in step with durable_lsn_.
  std::vector<uint8_t> tail_ GUARDED_BY(mu_);
  std::map<TxnId, std::vector<UndoEntry>> active_txns_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace dfs

#endif  // SRC_WAL_WAL_H_
