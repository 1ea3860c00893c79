#include "src/wal/wal.h"

#include <algorithm>
#include <cstring>

#include "src/common/codec.h"

namespace dfs {
namespace {

uint32_t Fnv1a(std::span<const uint8_t> bytes) {
  uint32_t h = 2166136261u;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 16777619u;
  }
  return h;
}

}  // namespace

Wal::Wal(BlockDevice& dev, BufferCache& cache, Options options)
    : dev_(dev), cache_(cache), options_(options), tail_(kBlockSize) {}

Status Wal::WriteHeader(const LogHeader& header) {
  std::vector<uint8_t> block(kBlockSize, 0);
  Writer w;
  w.PutU64(kHeaderMagic);
  w.PutU64(header.epoch);
  w.PutU64(header.epoch_start_lsn);
  std::memcpy(block.data(), w.data().data(), w.size());
  RETURN_IF_ERROR(dev_.Write(options_.log_start_block, block));
  return dev_.Flush();
}

Result<Wal::LogHeader> Wal::ReadHeader() {
  std::vector<uint8_t> block(kBlockSize);
  RETURN_IF_ERROR(dev_.Read(options_.log_start_block, block));
  Reader r(block);
  LogHeader h{};
  ASSIGN_OR_RETURN(h.magic, r.ReadU64());
  ASSIGN_OR_RETURN(h.epoch, r.ReadU64());
  ASSIGN_OR_RETURN(h.epoch_start_lsn, r.ReadU64());
  if (h.magic != kHeaderMagic) {
    return Status(ErrorCode::kCorrupt, "bad log header magic");
  }
  return h;
}

Status Wal::Format() {
  MutexLock lock(mu_);
  epoch_ = 1;
  epoch_start_lsn_ = 0;
  next_lsn_ = 0;
  durable_lsn_ = 0;
  pending_.clear();
  active_txns_.clear();
  return WriteHeader(LogHeader{kHeaderMagic, epoch_, epoch_start_lsn_});
}

TxnToken Wal::Begin() {
  // Checkpoint between transactions only: checkpointing mid-transaction would
  // flush uncommitted buffer changes whose undo records it then discards.
  bool checkpoint = false;
  {
    MutexLock lock(mu_);
    bool near_full = (next_lsn_ - epoch_start_lsn_) > LogDataBytes() * 3 / 4;
    checkpoint = near_full && active_txns_.empty();
  }
  if (checkpoint) {
    (void)Checkpoint();
  }
  MutexLock lock(mu_);
  TxnId txn = next_txn_++;
  active_txns_.emplace(txn, std::vector<UndoEntry>{});
  return TxnToken(txn);
}

Status Wal::AppendRecordLocked(RecordKind kind, TxnId txn, uint64_t blockno, uint32_t offset,
                               std::span<const uint8_t> old_bytes,
                               std::span<const uint8_t> new_bytes) {
  Writer w(64 + old_bytes.size() + new_bytes.size());
  w.PutU32(kRecordMagic);
  w.PutU32(0);  // total length, patched below
  w.PutU64(next_lsn_);
  w.PutU64(epoch_);
  w.PutU8(static_cast<uint8_t>(kind));
  w.PutU64(txn);
  w.PutU64(blockno);
  w.PutU32(offset);
  w.PutU32(static_cast<uint32_t>(new_bytes.size()));
  w.PutRaw(old_bytes);
  w.PutRaw(new_bytes);
  std::vector<uint8_t> rec = w.Take();
  uint32_t total = static_cast<uint32_t>(rec.size() + 4);
  std::memcpy(rec.data() + 4, &total, 4);
  uint32_t sum = Fnv1a(rec);
  rec.push_back(static_cast<uint8_t>(sum));
  rec.push_back(static_cast<uint8_t>(sum >> 8));
  rec.push_back(static_cast<uint8_t>(sum >> 16));
  rec.push_back(static_cast<uint8_t>(sum >> 24));

  if ((next_lsn_ - epoch_start_lsn_) + rec.size() > LogDataBytes()) {
    return Status(ErrorCode::kNoSpace, "log area full (transaction too large for log)");
  }
  pending_.insert(pending_.end(), rec.begin(), rec.end());
  next_lsn_ += rec.size();
  ++stats_.records;
  return Status::Ok();
}

Status Wal::LogUpdate(const TxnToken& txn, BufferCache::Ref& buf, uint32_t offset,
                      std::span<const uint8_t> new_bytes) {
  txn.AssertIssued();
  if (offset + new_bytes.size() > kBlockSize) {
    return Status(ErrorCode::kInvalidArgument, "update crosses block boundary");
  }
  MutexLock lock(mu_);
  auto it = active_txns_.find(txn.value());
  if (it == active_txns_.end()) {
    return Status(ErrorCode::kInvalidArgument, "unknown transaction");
  }
  std::span<const uint8_t> old_bytes(buf.data() + offset, new_bytes.size());
  it->second.push_back(UndoEntry{buf.blockno(), offset,
                                 std::vector<uint8_t>(old_bytes.begin(), old_bytes.end())});
  RETURN_IF_ERROR(AppendRecordLocked(RecordKind::kUpdate, txn.value(), buf.blockno(), offset,
                                     old_bytes, new_bytes));
  std::memcpy(buf.data() + offset, new_bytes.data(), new_bytes.size());
  cache_.MarkDirty(buf, next_lsn_);  // durable point: end of this record
  return Status::Ok();
}

Status Wal::Commit(const TxnToken& txn) {
  txn.AssertIssued();
  MutexLock lock(mu_);
  auto it = active_txns_.find(txn.value());
  if (it == active_txns_.end()) {
    return Status(ErrorCode::kInvalidArgument, "unknown transaction");
  }
  RETURN_IF_ERROR(AppendRecordLocked(RecordKind::kCommit, txn.value(), 0, 0, {}, {}));
  active_txns_.erase(it);
  ++stats_.commits;

  bool flush = options_.force_on_commit || pending_.size() >= options_.group_commit_bytes;
  if (!flush && options_.clock != nullptr) {
    flush = options_.clock->Now() - last_flush_time_ >= options_.group_commit_interval_ns;
  }
  if (flush) {
    return FlushLocked();
  }
  return Status::Ok();
}

Status Wal::Abort(const TxnToken& txn) {
  txn.AssertIssued();
  UniqueMutexLock lock(mu_);
  auto it = active_txns_.find(txn.value());
  if (it == active_txns_.end()) {
    return Status(ErrorCode::kInvalidArgument, "unknown transaction");
  }
  std::vector<UndoEntry> undo = std::move(it->second);
  active_txns_.erase(it);
  // Best effort: if the log area is full the abort record cannot be appended,
  // but recovery then sees an uncommitted transaction and undoes it — the same
  // outcome as the in-memory restoration below.
  (void)AppendRecordLocked(RecordKind::kAbort, txn.value(), 0, 0, {}, {});
  uint64_t abort_lsn = next_lsn_;
  ++stats_.aborts;
  lock.Unlock();

  // Restore old values in memory, newest change first. Recovery performs the
  // same restoration from the log, so the two paths are idempotent.
  for (auto rit = undo.rbegin(); rit != undo.rend(); ++rit) {
    ASSIGN_OR_RETURN(BufferCache::Ref buf, cache_.Get(rit->blockno));
    std::memcpy(buf.data() + rit->offset, rit->old_bytes.data(), rit->old_bytes.size());
    cache_.MarkDirty(buf, abort_lsn);
  }
  return Status::Ok();
}

Status Wal::FlushLocked() {
  if (pending_.empty()) {
    return Status::Ok();
  }
  uint64_t off = durable_lsn_ - epoch_start_lsn_;  // byte offset in the data area
  size_t consumed = 0;
  std::vector<uint8_t> block(kBlockSize);
  while (consumed < pending_.size()) {
    uint64_t blk = off / kBlockSize;
    uint32_t pos = static_cast<uint32_t>(off % kBlockSize);
    size_t chunk = std::min<size_t>(kBlockSize - pos, pending_.size() - consumed);
    uint64_t devblock = options_.log_start_block + 1 + blk;
    // A partial block (only ever the first) merges with the bytes this log
    // already flushed there, which tail_ still holds: every epoch starts at
    // data offset 0, so the tail block was always written by this object and
    // is never read back.
    if (pos == 0) {
      std::fill(block.begin(), block.end(), 0);
    } else {
      std::copy(tail_.begin(), tail_.end(), block.begin());
    }
    std::memcpy(block.data() + pos, pending_.data() + consumed, chunk);
    RETURN_IF_ERROR(dev_.Write(devblock, block));
    consumed += chunk;
    off += chunk;
  }
  RETURN_IF_ERROR(dev_.Flush());
  // Only now does durable_lsn_ move, so tail_ moves with it: after a failed
  // write or barrier a retry starts from the old tail and its old image.
  tail_.swap(block);
  stats_.log_bytes_flushed += pending_.size();
  ++stats_.log_flushes;
  durable_lsn_ = next_lsn_;
  pending_.clear();
  if (options_.clock != nullptr) {
    last_flush_time_ = options_.clock->Now();
  }
  return Status::Ok();
}

Status Wal::Sync() {
  MutexLock lock(mu_);
  return FlushLocked();
}

Status Wal::MaybeGroupCommit() {
  MutexLock lock(mu_);
  if (options_.clock == nullptr || pending_.empty()) {
    return Status::Ok();
  }
  if (options_.clock->Now() - last_flush_time_ >= options_.group_commit_interval_ns) {
    return FlushLocked();
  }
  return Status::Ok();
}

Status Wal::FlushTo(uint64_t lsn) {
  MutexLock lock(mu_);
  if (durable_lsn_ >= lsn) {
    return Status::Ok();
  }
  return FlushLocked();
}

Status Wal::Checkpoint() {
  {
    MutexLock lock(mu_);
    RETURN_IF_ERROR(FlushLocked());
  }
  // Flush dirty buffers without holding our mutex: write-back calls FlushTo.
  RETURN_IF_ERROR(cache_.FlushAll());
  MutexLock lock(mu_);
  epoch_ += 1;
  epoch_start_lsn_ = next_lsn_;
  durable_lsn_ = next_lsn_;
  pending_.clear();
  ++stats_.checkpoints;
  return WriteHeader(LogHeader{kHeaderMagic, epoch_, epoch_start_lsn_});
}

Result<Wal::RecoveryStats> Wal::Recover() {
  MutexLock lock(mu_);
  ASSIGN_OR_RETURN(LogHeader header, ReadHeader());

  RecoveryStats rstats;

  // Scan records until the stream stops validating (torn tail from the
  // crash). Blocks are read lazily, so recovery I/O is proportional to the
  // *active* log, not to the log area — let alone the file system.
  struct Update {
    uint64_t lsn;
    TxnId txn;
    uint64_t blockno;
    uint32_t offset;
    std::vector<uint8_t> old_bytes;
    std::vector<uint8_t> new_bytes;
  };
  std::vector<Update> updates;
  std::vector<TxnId> committed;
  std::vector<TxnId> aborted;

  std::vector<uint8_t> area(LogDataBytes());
  std::vector<bool> loaded(options_.log_blocks, false);
  auto ensure_loaded = [&](uint64_t from, uint64_t len) -> Status {
    std::vector<uint8_t> block(kBlockSize);
    for (uint64_t b = from / kBlockSize; b * kBlockSize < from + len && b * kBlockSize < area.size();
         ++b) {
      if (!loaded[b]) {
        RETURN_IF_ERROR(dev_.Read(options_.log_start_block + 1 + b, block));
        std::memcpy(area.data() + b * kBlockSize, block.data(), kBlockSize);
        loaded[b] = true;
      }
    }
    return Status::Ok();
  };

  uint64_t off = 0;
  while (off + 12 <= area.size()) {
    RETURN_IF_ERROR(ensure_loaded(off, 12));
    Reader peek(std::span<const uint8_t>(area.data() + off, area.size() - off));
    auto magic = peek.ReadU32();
    if (!magic.ok() || *magic != kRecordMagic) {
      break;
    }
    auto total = peek.ReadU32();
    if (!total.ok() || *total < 45 || off + *total > area.size()) {
      break;
    }
    RETURN_IF_ERROR(ensure_loaded(off, *total));
    std::span<const uint8_t> rec(area.data() + off, *total);
    uint32_t stored_sum;
    std::memcpy(&stored_sum, rec.data() + rec.size() - 4, 4);
    if (Fnv1a(rec.subspan(0, rec.size() - 4)) != stored_sum) {
      break;
    }
    Reader r(rec.subspan(8, rec.size() - 12));
    auto lsn = r.ReadU64();
    auto epoch = r.ReadU64();
    auto kind = r.ReadU8();
    auto txn = r.ReadU64();
    auto blockno = r.ReadU64();
    auto roffset = r.ReadU32();
    auto datalen = r.ReadU32();
    if (!lsn.ok() || !epoch.ok() || !kind.ok() || !txn.ok() || !blockno.ok() || !roffset.ok() ||
        !datalen.ok()) {
      break;
    }
    if (*epoch != header.epoch || *lsn != header.epoch_start_lsn + off) {
      break;  // stale record from a previous epoch occupying this slot
    }
    if (r.Remaining() != static_cast<size_t>(*datalen) * 2) {
      break;
    }
    ++rstats.records_scanned;
    switch (static_cast<RecordKind>(*kind)) {
      case RecordKind::kUpdate: {
        Update u;
        u.lsn = *lsn;
        u.txn = *txn;
        u.blockno = *blockno;
        u.offset = *roffset;
        u.old_bytes.resize(*datalen);
        u.new_bytes.resize(*datalen);
        if (!r.ReadRaw(u.old_bytes).ok() || !r.ReadRaw(u.new_bytes).ok()) {
          return Status(ErrorCode::kCorrupt, "log record payload truncated");
        }
        updates.push_back(std::move(u));
        break;
      }
      case RecordKind::kCommit:
        committed.push_back(*txn);
        break;
      case RecordKind::kAbort:
        aborted.push_back(*txn);
        break;
    }
    off += *total;
  }
  rstats.bytes_scanned = off;

  auto is_in = [](const std::vector<TxnId>& v, TxnId t) {
    return std::find(v.begin(), v.end(), t) != v.end();
  };

  // Patch blocks in memory, then write each touched block once.
  std::map<uint64_t, std::vector<uint8_t>> patched;
  auto load = [&](uint64_t blockno) -> Status {
    if (patched.count(blockno) != 0) {
      return Status::Ok();
    }
    std::vector<uint8_t> img(kBlockSize);
    RETURN_IF_ERROR(dev_.Read(blockno, img));
    patched.emplace(blockno, std::move(img));
    return Status::Ok();
  };

  // Redo committed transactions in LSN order.
  std::vector<TxnId> redone;
  std::vector<TxnId> undone;
  for (const Update& u : updates) {
    if (is_in(committed, u.txn) && !is_in(aborted, u.txn)) {
      RETURN_IF_ERROR(load(u.blockno));
      std::memcpy(patched[u.blockno].data() + u.offset, u.new_bytes.data(), u.new_bytes.size());
      if (!is_in(redone, u.txn)) {
        redone.push_back(u.txn);
      }
    }
  }
  // Undo uncommitted (and aborted) transactions in reverse LSN order.
  for (auto it = updates.rbegin(); it != updates.rend(); ++it) {
    if (!is_in(committed, it->txn) || is_in(aborted, it->txn)) {
      RETURN_IF_ERROR(load(it->blockno));
      std::memcpy(patched[it->blockno].data() + it->offset, it->old_bytes.data(),
                  it->old_bytes.size());
      if (!is_in(undone, it->txn)) {
        undone.push_back(it->txn);
      }
    }
  }
  rstats.txns_redone = redone.size();
  rstats.txns_undone = undone.size();

  for (const auto& [blockno, img] : patched) {
    RETURN_IF_ERROR(dev_.Write(blockno, img));
    ++rstats.blocks_patched;
  }
  RETURN_IF_ERROR(dev_.Flush());

  // Reset the log and drop the (now stale) cache.
  epoch_ = header.epoch + 1;
  epoch_start_lsn_ = header.epoch_start_lsn + off;
  next_lsn_ = epoch_start_lsn_;
  durable_lsn_ = epoch_start_lsn_;
  pending_.clear();
  active_txns_.clear();
  RETURN_IF_ERROR(WriteHeader(LogHeader{kHeaderMagic, epoch_, epoch_start_lsn_}));
  cache_.InvalidateAll();
  return rstats;
}

Wal::Stats Wal::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

uint64_t Wal::next_lsn() const {
  MutexLock lock(mu_);
  return next_lsn_;
}

uint64_t Wal::active_bytes() const {
  MutexLock lock(mu_);
  return next_lsn_ - epoch_start_lsn_;
}

}  // namespace dfs
