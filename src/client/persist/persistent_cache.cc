#include "src/client/persist/persistent_cache.h"

#include <cstring>

#include "src/vfs/wire.h"

namespace dfs {

namespace {

constexpr uint64_t kSuperMagic = 0xDEC0'CACE'50DE'0001ull;
constexpr uint64_t kJournalMagic = 0xDEC0'CACE'10C0'0002ull;
constexpr uint32_t kRecordMagic = 0xCAC8'E10Cu;
constexpr uint32_t kEntryBytes = 64;
constexpr uint32_t kEntriesPerBlock = kBlockSize / kEntryBytes;
constexpr uint64_t kWalBlocks = 64;      // index WAL area (incl. 1 header block)
constexpr uint64_t kJournalBlocks = 33;  // 1 header + two halves

constexpr uint32_t kEntryValid = 1u << 0;
constexpr uint32_t kEntryDirty = 1u << 1;

// FNV-1a over the record payload; torn multi-block appends fail this check
// and terminate the replay scan at the last complete record.
uint32_t Checksum(std::span<const uint8_t> bytes) {
  uint32_t h = 2166136261u;
  for (uint8_t b : bytes) {
    h = (h ^ b) * 16777619u;
  }
  return h;
}

}  // namespace

// --- CrashableDevice ---

Status CrashableDevice::Read(uint64_t blockno, std::span<uint8_t> out) {
  if (crashed()) {
    return Status(ErrorCode::kCrashed, "persistent cache device crashed");
  }
  return base_.Read(blockno, out);
}

Status CrashableDevice::Write(uint64_t blockno, std::span<const uint8_t> data) {
  if (crashed()) {
    return Status(ErrorCode::kCrashed, "persistent cache device crashed");
  }
  if (armed_.load(std::memory_order_acquire)) {
    // The counter crossing zero is the crash point: this write (and all
    // later I/O) fails without touching the medium.
    if (remaining_.load(std::memory_order_relaxed) == 0) {
      crashed_.store(true, std::memory_order_release);
      return Status(ErrorCode::kCrashed, "crash point reached");
    }
    remaining_.fetch_sub(1, std::memory_order_relaxed);
  }
  RETURN_IF_ERROR(base_.Write(blockno, data));
  writes_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status CrashableDevice::Flush() {
  if (crashed()) {
    return Status(ErrorCode::kCrashed, "persistent cache device crashed");
  }
  return base_.Flush();
}

void CrashableDevice::CrashAfterWrites(uint64_t n) {
  remaining_.store(n, std::memory_order_relaxed);
  armed_.store(true, std::memory_order_release);
}

// --- PersistentCacheStore ---

Result<std::unique_ptr<PersistentCacheStore>> PersistentCacheStore::Layout(SimDisk& disk) {
  auto store = std::unique_ptr<PersistentCacheStore>(new PersistentCacheStore());
  store->crash_dev_ = std::make_unique<CrashableDevice>(disk);

  // Geometry: superblock, WAL, index (1 entry per slot), journal, data slots.
  const uint64_t n = disk.BlockCount();
  Geometry& g = store->geo_;
  g.wal_start = 1;
  g.wal_blocks = kWalBlocks;
  g.index_start = g.wal_start + g.wal_blocks;
  g.journal_half_blocks = (kJournalBlocks - 1) / 2;
  const uint64_t journal_blocks = 1 + 2 * g.journal_half_blocks;
  const uint64_t overhead = 1 + g.wal_blocks + journal_blocks;
  if (n < overhead + 1 + kEntriesPerBlock) {
    return Status(ErrorCode::kInvalidArgument, "persistent cache disk too small");
  }
  uint64_t remaining = n - overhead;
  // slots + ceil(slots / kEntriesPerBlock) <= remaining
  uint64_t slots = remaining * kEntriesPerBlock / (kEntriesPerBlock + 1);
  while (slots + (slots + kEntriesPerBlock - 1) / kEntriesPerBlock > remaining) {
    --slots;
  }
  g.data_slots = slots;
  g.index_blocks = (slots + kEntriesPerBlock - 1) / kEntriesPerBlock;
  g.journal_start = g.index_start + g.index_blocks;
  g.data_start = g.journal_start + journal_blocks;
  return store;
}

Result<std::unique_ptr<PersistentCacheStore>> PersistentCacheStore::Open(SimDisk* disk) {
  if (disk == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "persistent cache needs a disk");
  }
  ASSIGN_OR_RETURN(std::unique_ptr<PersistentCacheStore> store, Layout(*disk));
  store->cache_ =
      std::make_unique<BufferCache>(*store->crash_dev_, store->geo_.index_blocks + 8);
  RETURN_IF_ERROR(store->Boot());
  return store;
}

Result<std::unique_ptr<PersistentCacheStore>> PersistentCacheStore::CreatePrivate(
    uint64_t disk_blocks) {
  auto disk = std::make_unique<SimDisk>(disk_blocks);
  ASSIGN_OR_RETURN(std::unique_ptr<PersistentCacheStore> store, Layout(*disk));
  store->private_disk_ = std::move(disk);
  MutexLock lock(store->mu_);
  store->slots_.assign(store->geo_.data_slots, SlotState{});
  return store;
}

Status PersistentCacheStore::Boot() {
  std::vector<uint8_t> super(kBlockSize);
  RETURN_IF_ERROR(crash_dev_->Read(0, super));
  Reader r(super);
  auto magic = r.ReadU64();
  MutexLock lock(mu_);
  if (magic.ok() && *magic == kSuperMagic) {
    // Reopen: verify the recorded geometry matches what we derived (a disk
    // formatted under different options is not silently reinterpreted).
    Geometry on_disk;
    ASSIGN_OR_RETURN(on_disk.wal_start, r.ReadU64());
    ASSIGN_OR_RETURN(on_disk.wal_blocks, r.ReadU64());
    ASSIGN_OR_RETURN(on_disk.index_start, r.ReadU64());
    ASSIGN_OR_RETURN(on_disk.index_blocks, r.ReadU64());
    ASSIGN_OR_RETURN(on_disk.journal_start, r.ReadU64());
    ASSIGN_OR_RETURN(on_disk.journal_half_blocks, r.ReadU64());
    ASSIGN_OR_RETURN(on_disk.data_start, r.ReadU64());
    ASSIGN_OR_RETURN(on_disk.data_slots, r.ReadU64());
    if (on_disk.wal_blocks != geo_.wal_blocks || on_disk.data_slots != geo_.data_slots ||
        on_disk.journal_half_blocks != geo_.journal_half_blocks) {
      return Status(ErrorCode::kCorrupt, "persistent cache geometry mismatch");
    }
    RETURN_IF_ERROR(RecoverLocked());
    recovered_.recovered = true;
  } else {
    RETURN_IF_ERROR(FormatLocked());
  }
  return Status::Ok();
}

PersistentCacheStore::~PersistentCacheStore() {
  if (!crashed()) {
    (void)Sync();
  }
}

Status PersistentCacheStore::FormatLocked() {
  Writer w(kBlockSize);
  w.PutU64(kSuperMagic);
  w.PutU64(geo_.wal_start);
  w.PutU64(geo_.wal_blocks);
  w.PutU64(geo_.index_start);
  w.PutU64(geo_.index_blocks);
  w.PutU64(geo_.journal_start);
  w.PutU64(geo_.journal_half_blocks);
  w.PutU64(geo_.data_start);
  w.PutU64(geo_.data_slots);
  std::vector<uint8_t> block = w.Take();
  block.resize(kBlockSize, 0);
  RETURN_IF_ERROR(crash_dev_->Write(0, block));

  std::vector<uint8_t> zero(kBlockSize, 0);
  for (uint64_t b = 0; b < geo_.index_blocks; ++b) {
    RETURN_IF_ERROR(crash_dev_->Write(geo_.index_start + b, zero));
  }
  for (uint64_t b = 0; b < 2 * geo_.journal_half_blocks; ++b) {
    RETURN_IF_ERROR(crash_dev_->Write(geo_.journal_start + 1 + b, zero));
  }

  Wal::Options wopts;
  wopts.log_start_block = geo_.wal_start;
  wopts.log_blocks = geo_.wal_blocks;
  wopts.force_on_commit = true;  // index commits are durable before returning
  wal_ = std::make_unique<Wal>(*crash_dev_, *cache_, wopts);
  cache_->AttachWal(wal_.get());
  RETURN_IF_ERROR(wal_->Format());

  active_half_ = 0;
  journal_seq_ = 1;
  RETURN_IF_ERROR(WriteJournalHeaderLocked(active_half_, journal_seq_));
  slots_.assign(geo_.data_slots, SlotState{});
  return Status::Ok();
}

Status PersistentCacheStore::RecoverLocked() {
  Wal::Options wopts;
  wopts.log_start_block = geo_.wal_start;
  wopts.log_blocks = geo_.wal_blocks;
  wopts.force_on_commit = true;
  wal_ = std::make_unique<Wal>(*crash_dev_, *cache_, wopts);
  cache_->AttachWal(wal_.get());
  RETURN_IF_ERROR(wal_->Recover().status());

  // Index scan: rebuild the in-memory mirror and the per-file recovery view.
  slots_.assign(geo_.data_slots, SlotState{});
  std::map<Fid, size_t> file_ix;
  for (uint64_t slot = 0; slot < geo_.data_slots; ++slot) {
    ASSIGN_OR_RETURN(BufferCache::Ref ref, cache_->Get(geo_.index_start + slot / kEntriesPerBlock));
    const uint8_t* e = ref.data() + (slot % kEntriesPerBlock) * kEntryBytes;
    Reader er(std::span<const uint8_t>(e, kEntryBytes));
    SlotState s;
    ASSIGN_OR_RETURN(s.fid.volume, er.ReadU64());
    ASSIGN_OR_RETURN(s.fid.vnode, er.ReadU64());
    ASSIGN_OR_RETURN(s.fid.uniq, er.ReadU64());
    ASSIGN_OR_RETURN(s.block, er.ReadU64());
    ASSIGN_OR_RETURN(s.stamp, er.ReadU64());
    ASSIGN_OR_RETURN(s.data_version, er.ReadU64());
    ASSIGN_OR_RETURN(s.file_size, er.ReadU64());
    ASSIGN_OR_RETURN(uint32_t flags, er.ReadU32());
    if ((flags & kEntryValid) == 0) {
      continue;
    }
    s.valid = true;
    s.dirty = (flags & kEntryDirty) != 0;
    slots_[slot] = s;
    by_key_[{s.fid, s.block}] = slot;
    bytes_used_ += kBlockSize;
    auto [it, inserted] = file_ix.try_emplace(s.fid, recovered_.files.size());
    if (inserted) {
      recovered_.files.push_back(RecoveredFile{s.fid, {}});
    }
    recovered_.files[it->second].blocks.push_back(
        RecoveredBlock{s.block, s.dirty, s.stamp, s.data_version, s.file_size});
  }

  RETURN_IF_ERROR(ReplayJournalLocked());
  for (const auto& [id, rec] : live_tokens_) {
    recovered_.tokens.push_back(rec);
  }
  // Attach journaled attributes to their files (creating a blockless entry
  // when only attrs survived — directories, files evicted down to metadata).
  for (const auto& [fid, rec] : live_attrs_) {
    auto [it, inserted] = file_ix.try_emplace(fid, recovered_.files.size());
    if (inserted) {
      recovered_.files.push_back(RecoveredFile{});
      recovered_.files.back().fid = fid;
    }
    RecoveredFile& f = recovered_.files[it->second];
    f.has_attr = true;
    f.attr = rec.attr;
    f.attr_stamp = rec.stamp;
  }
  return Status::Ok();
}

Status PersistentCacheStore::ReplayJournalLocked() {
  std::vector<uint8_t> header(kBlockSize);
  RETURN_IF_ERROR(crash_dev_->Read(geo_.journal_start, header));
  Reader hr(header);
  ASSIGN_OR_RETURN(uint64_t magic, hr.ReadU64());
  if (magic != kJournalMagic) {
    return Status(ErrorCode::kCorrupt, "token journal header missing");
  }
  ASSIGN_OR_RETURN(active_half_, hr.ReadU8());
  ASSIGN_OR_RETURN(journal_seq_, hr.ReadU64());
  if (active_half_ > 1) {
    return Status(ErrorCode::kCorrupt, "token journal header invalid");
  }

  const uint64_t half_bytes = geo_.journal_half_blocks * kBlockSize;
  std::vector<uint8_t> half(half_bytes);
  const uint64_t base = geo_.journal_start + 1 + active_half_ * geo_.journal_half_blocks;
  for (uint64_t b = 0; b < geo_.journal_half_blocks; ++b) {
    RETURN_IF_ERROR(crash_dev_->Read(base + b, std::span<uint8_t>(half).subspan(
                                                   b * kBlockSize, kBlockSize)));
  }

  size_t pos = 0;
  while (pos + 10 <= half_bytes) {
    Reader rr(std::span<const uint8_t>(half).subspan(pos));
    auto magic32 = rr.ReadU32();
    if (!magic32.ok() || *magic32 != kRecordMagic) {
      break;
    }
    auto len = rr.ReadU16();
    auto sum = rr.ReadU32();
    if (!len.ok() || !sum.ok() || pos + 10 + *len > half_bytes) {
      break;
    }
    std::span<const uint8_t> payload(half.data() + pos + 10, *len);
    if (Checksum(payload) != *sum) {
      break;  // torn append: replay stops at the last complete record
    }
    Reader pr(payload);
    JournalRecord rec;
    auto op = pr.ReadU8();
    auto epoch = pr.ReadU64();
    if (!op.ok() || !epoch.ok()) {
      break;
    }
    rec.op = static_cast<JournalOp>(*op);
    rec.epoch = *epoch;
    if (rec.op == JournalOp::kAttr) {
      auto fid = ReadFid(pr);
      auto stamp = pr.ReadU64();
      auto attr = ReadAttr(pr);
      if (!fid.ok() || !stamp.ok() || !attr.ok()) {
        break;
      }
      rec.fid = *fid;
      rec.stamp = *stamp;
      rec.attr = *attr;
      live_attrs_[rec.fid] = rec;
    } else {
      auto token = Token::Deserialize(pr);
      if (!token.ok()) {
        break;
      }
      rec.token = *token;
      if (rec.op == JournalOp::kErase) {
        live_tokens_.erase(rec.token.id);
      } else {
        live_tokens_[rec.token.id] = rec;
      }
    }
    pos += 10 + *len;
  }
  journal_tail_.assign(half.begin(), half.begin() + static_cast<ptrdiff_t>(pos));
  return Status::Ok();
}

Status PersistentCacheStore::WriteEntryLocked(uint64_t slot, const SlotState& state) {
  if (!durable()) {
    return Status::Ok();
  }
  Writer w(kEntryBytes);
  w.PutU64(state.fid.volume);
  w.PutU64(state.fid.vnode);
  w.PutU64(state.fid.uniq);
  w.PutU64(state.block);
  w.PutU64(state.stamp);
  w.PutU64(state.data_version);
  w.PutU64(state.file_size);
  uint32_t flags = 0;
  if (state.valid) {
    flags |= kEntryValid;
  }
  if (state.dirty) {
    flags |= kEntryDirty;
  }
  w.PutU32(flags);
  std::vector<uint8_t> bytes = w.Take();
  bytes.resize(kEntryBytes, 0);

  ASSIGN_OR_RETURN(BufferCache::Ref ref, cache_->Get(geo_.index_start + slot / kEntriesPerBlock));
  TxnToken txn = wal_->Begin();
  txn.AssertIssued();
  Status s = wal_->LogUpdate(txn, ref, (slot % kEntriesPerBlock) * kEntryBytes, bytes);
  if (!s.ok()) {
    (void)wal_->Abort(txn);
    return s;
  }
  // force_on_commit makes the commit durable before Commit() returns, so a
  // caller returning success has the entry on the medium (via log redo).
  return wal_->Commit(txn);
}

Status PersistentCacheStore::InvalidateSlotLocked(uint64_t slot) {
  SlotState cleared;
  RETURN_IF_ERROR(WriteEntryLocked(slot, cleared));
  if (slots_[slot].valid) {
    by_key_.erase({slots_[slot].fid, slots_[slot].block});
    bytes_used_ -= kBlockSize;
  }
  slots_[slot] = cleared;
  return Status::Ok();
}

Result<uint64_t> PersistentCacheStore::PickSlotLocked(const Key& key) {
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    return it->second;
  }
  // Round-robin scan: any free slot first, else the first clean victim.
  uint64_t victim = geo_.data_slots;
  for (uint64_t i = 0; i < geo_.data_slots; ++i) {
    uint64_t slot = (next_victim_ + i) % geo_.data_slots;
    if (!slots_[slot].valid) {
      next_victim_ = (slot + 1) % geo_.data_slots;
      return slot;
    }
    if (victim == geo_.data_slots && !slots_[slot].dirty) {
      victim = slot;
    }
  }
  if (victim == geo_.data_slots) {
    return Status(ErrorCode::kNoSpace, "persistent cache full of dirty blocks");
  }
  next_victim_ = (victim + 1) % geo_.data_slots;
  return victim;
}

Status PersistentCacheStore::PutBlock(const Fid& fid, uint64_t block,
                                      std::span<const uint8_t> data, bool dirty, uint64_t stamp,
                                      uint64_t data_version, uint64_t file_size) {
  if (data.size() > kBlockSize) {
    return Status(ErrorCode::kInvalidArgument, "block larger than slot");
  }
  MutexLock lock(mu_);
  ASSIGN_OR_RETURN(uint64_t slot, PickSlotLocked({fid, block}));
  if (slots_[slot].valid) {
    // The slot currently describes durable bytes (this key's previous version
    // or another key entirely). Durably invalidate before overwriting so a
    // crash mid-write can never leave the old entry pointing at new bytes.
    RETURN_IF_ERROR(InvalidateSlotLocked(slot));
  }
  std::vector<uint8_t> padded(data.begin(), data.end());
  padded.resize(kBlockSize, 0);
  RETURN_IF_ERROR(crash_dev_->Write(geo_.data_start + slot, padded));

  SlotState s;
  s.valid = true;
  s.dirty = dirty;
  s.fid = fid;
  s.block = block;
  s.stamp = stamp;
  s.data_version = data_version;
  s.file_size = file_size;
  RETURN_IF_ERROR(WriteEntryLocked(slot, s));
  slots_[slot] = s;
  by_key_[{fid, block}] = slot;
  bytes_used_ += kBlockSize;
  return Status::Ok();
}

Status PersistentCacheStore::MarkClean(const Fid& fid, uint64_t block, uint64_t stamp,
                                       uint64_t data_version, uint64_t file_size) {
  MutexLock lock(mu_);
  auto it = by_key_.find({fid, block});
  if (it == by_key_.end()) {
    return Status(ErrorCode::kNotFound, "block not in cache");
  }
  SlotState s = slots_[it->second];
  s.dirty = false;
  s.stamp = stamp;
  s.data_version = data_version;
  s.file_size = file_size;
  RETURN_IF_ERROR(WriteEntryLocked(it->second, s));
  slots_[it->second] = s;
  return Status::Ok();
}

Status PersistentCacheStore::ClampFileSizes(const Fid& fid, uint64_t new_size) {
  MutexLock lock(mu_);
  Status result = Status::Ok();
  for (auto it = by_key_.lower_bound({fid, 0});
       it != by_key_.end() && it->first.first == fid; ++it) {
    SlotState s = slots_[it->second];
    if (!s.valid || s.file_size <= new_size) {
      continue;
    }
    s.file_size = new_size;
    Status w = WriteEntryLocked(it->second, s);
    if (!w.ok()) {
      result = w;  // clamp the rest anyway; report the first failure
      continue;
    }
    slots_[it->second] = s;
  }
  return result;
}

Status PersistentCacheStore::PutSlice(const Fid& fid, uint64_t block, BufferSlice data) {
  // Version metadata unknown: recovery cannot validate such an entry and
  // drops it, so this path is only a within-boot cache.
  return PutBlock(fid, block, data.span(), /*dirty=*/false, /*stamp=*/0, /*data_version=*/0,
                  /*file_size=*/0);
}

Result<BufferSlice> PersistentCacheStore::GetSlice(const Fid& fid, uint64_t block, size_t len) {
  MutexLock lock(mu_);
  auto it = by_key_.find({fid, block});
  if (it == by_key_.end()) {
    return Status(ErrorCode::kNotFound, "block not in cache");
  }
  std::vector<uint8_t> slot_data(kBlockSize);
  RETURN_IF_ERROR(crash_dev_->Read(geo_.data_start + it->second, slot_data));
  slot_data.resize(len, 0);
  return BufferSlice::TakeOwnership(std::move(slot_data));
}

void PersistentCacheStore::Erase(const Fid& fid, uint64_t block) {
  MutexLock lock(mu_);
  auto it = by_key_.find({fid, block});
  if (it != by_key_.end()) {
    (void)InvalidateSlotLocked(it->second);
  }
}

void PersistentCacheStore::EraseFile(const Fid& fid) {
  MutexLock lock(mu_);
  std::vector<uint64_t> victims;
  for (auto it = by_key_.lower_bound({fid, 0});
       it != by_key_.end() && it->first.first == fid; ++it) {
    victims.push_back(it->second);
  }
  for (uint64_t slot : victims) {
    (void)InvalidateSlotLocked(slot);
  }
}

uint64_t PersistentCacheStore::bytes_used() const {
  MutexLock lock(mu_);
  return bytes_used_;
}

void PersistentCacheStore::SerializeRecord(Writer& w, const JournalRecord& rec) {
  Writer payload;
  payload.PutU8(static_cast<uint8_t>(rec.op));
  payload.PutU64(rec.epoch);
  if (rec.op == JournalOp::kAttr) {
    PutFid(payload, rec.fid);
    payload.PutU64(rec.stamp);
    PutAttr(payload, rec.attr);
  } else {
    rec.token.Serialize(payload);
  }
  w.PutU32(kRecordMagic);
  w.PutU16(static_cast<uint16_t>(payload.size()));
  w.PutU32(Checksum(payload.data()));
  w.PutRaw(payload.data());
}

Status PersistentCacheStore::AppendJournalLocked(const JournalRecord& rec) {
  Writer w;
  SerializeRecord(w, rec);
  const uint64_t half_bytes = geo_.journal_half_blocks * kBlockSize;
  if (journal_tail_.size() + w.size() > half_bytes) {
    RETURN_IF_ERROR(CompactJournalLocked(LiveJournalLocked()));
    if (journal_tail_.size() + w.size() > half_bytes) {
      return Status(ErrorCode::kNoSpace, "token journal full");
    }
  }
  const size_t old_size = journal_tail_.size();
  journal_tail_.insert(journal_tail_.end(), w.data().begin(), w.data().end());
  // Write through every block the append touched (tail block included).
  const uint64_t base = geo_.journal_start + 1 + active_half_ * geo_.journal_half_blocks;
  const uint64_t first = old_size / kBlockSize;
  const uint64_t last = (journal_tail_.size() - 1) / kBlockSize;
  for (uint64_t b = first; b <= last; ++b) {
    std::vector<uint8_t> img(kBlockSize, 0);
    const size_t off = b * kBlockSize;
    const size_t len = std::min<size_t>(kBlockSize, journal_tail_.size() - off);
    std::memcpy(img.data(), journal_tail_.data() + off, len);
    Status s = crash_dev_->Write(base + b, img);
    if (!s.ok()) {
      journal_tail_.resize(old_size);
      return s;
    }
  }
  if (rec.op == JournalOp::kAttr) {
    live_attrs_[rec.fid] = rec;
  } else if (rec.op == JournalOp::kErase) {
    live_tokens_.erase(rec.token.id);
  } else {
    live_tokens_[rec.token.id] = rec;
  }
  ++journal_appends_;
  return Status::Ok();
}

Status PersistentCacheStore::Journal(JournalOp op, const Token& token, uint64_t epoch) {
  MutexLock lock(mu_);
  if (!durable()) {
    return Status::Ok();
  }
  JournalRecord rec;
  rec.op = op;
  rec.token = token;
  rec.epoch = epoch;
  return AppendJournalLocked(rec);
}

Status PersistentCacheStore::JournalAttr(const Fid& fid, uint64_t stamp, const FileAttr& attr,
                                         uint64_t epoch) {
  MutexLock lock(mu_);
  if (!durable()) {
    return Status::Ok();
  }
  JournalRecord rec;
  rec.op = JournalOp::kAttr;
  rec.epoch = epoch;
  rec.fid = fid;
  rec.stamp = stamp;
  rec.attr = attr;
  return AppendJournalLocked(rec);
}

std::vector<PersistentCacheStore::JournalRecord> PersistentCacheStore::LiveJournalLocked() const {
  std::vector<JournalRecord> live;
  live.reserve(live_tokens_.size());
  for (const auto& [id, rec] : live_tokens_) {
    live.push_back(rec);
  }
  return live;
}

Status PersistentCacheStore::WriteJournalHeaderLocked(uint8_t active_half, uint64_t seq) {
  Writer w(kBlockSize);
  w.PutU64(kJournalMagic);
  w.PutU8(active_half);
  w.PutU64(seq);
  std::vector<uint8_t> block = w.Take();
  block.resize(kBlockSize, 0);
  return crash_dev_->Write(geo_.journal_start, block);
}

Status PersistentCacheStore::CompactJournalLocked(const std::vector<JournalRecord>& live) {
  Writer w;
  for (const auto& rec : live) {
    if (rec.op == JournalOp::kGrant) {
      SerializeRecord(w, rec);
    }
  }
  // Attr records ride along even when the caller's `live` set is tokens-only
  // (CacheManager checkpoints know nothing about attrs): one latest record
  // per fid survives every compaction.
  for (const auto& [fid, rec] : live_attrs_) {
    SerializeRecord(w, rec);
  }
  const uint64_t half_bytes = geo_.journal_half_blocks * kBlockSize;
  if (w.size() > half_bytes) {
    return Status(ErrorCode::kNoSpace, "live token set exceeds journal half");
  }
  const uint8_t target = active_half_ == 0 ? 1 : 0;
  const uint64_t base = geo_.journal_start + 1 + target * geo_.journal_half_blocks;
  // Write the compacted image and zero the rest of the half so the replay
  // scan terminates; the header flip below is the atomic commit point.
  for (uint64_t b = 0; b < geo_.journal_half_blocks; ++b) {
    std::vector<uint8_t> img(kBlockSize, 0);
    const size_t off = b * kBlockSize;
    if (off < w.size()) {
      const size_t len = std::min<size_t>(kBlockSize, w.size() - off);
      std::memcpy(img.data(), w.data().data() + off, len);
    }
    RETURN_IF_ERROR(crash_dev_->Write(base + b, img));
  }
  RETURN_IF_ERROR(WriteJournalHeaderLocked(target, journal_seq_ + 1));
  active_half_ = target;
  ++journal_seq_;
  journal_tail_.assign(w.data().begin(), w.data().end());
  live_tokens_.clear();
  for (const auto& rec : live) {
    if (rec.op == JournalOp::kGrant) {
      live_tokens_[rec.token.id] = rec;
    }
  }
  journal_appends_ = 0;
  return Status::Ok();
}

Status PersistentCacheStore::CheckpointJournal(const std::vector<JournalRecord>& live) {
  MutexLock lock(mu_);
  if (!durable()) {
    return Status::Ok();
  }
  return CompactJournalLocked(live);
}

Status PersistentCacheStore::SelfCheckpoint() {
  MutexLock lock(mu_);
  if (!durable()) {
    return Status::Ok();
  }
  return CompactJournalLocked(LiveJournalLocked());
}

uint64_t PersistentCacheStore::journal_appends_since_checkpoint() const {
  MutexLock lock(mu_);
  return journal_appends_;
}

Status PersistentCacheStore::Sync() {
  MutexLock lock(mu_);
  if (!durable()) {
    return Status::Ok();
  }
  RETURN_IF_ERROR(wal_->Sync());
  return cache_->FlushAll();
}

void PersistentCacheStore::CrashNow() {
  crash_dev_->CrashNow();
  if (cache_ != nullptr) {
    cache_->Crash();
  }
}

}  // namespace dfs
