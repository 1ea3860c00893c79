#include "src/episode/aggregate.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <optional>
#include <unordered_map>

#include "src/episode/volume.h"

namespace dfs {
namespace {

// The refcount table's first block: right after the superblock.
constexpr uint64_t kRefcountStart = 1;

uint64_t GetPtr(const uint8_t* block, uint32_t index) {
  uint64_t v = 0;
  std::memcpy(&v, block + index * 8, 8);
  return v;
}

std::array<uint8_t, 8> EncodePtr(uint64_t v) {
  std::array<uint8_t, 8> out;
  std::memcpy(out.data(), &v, 8);
  return out;
}

}  // namespace

Aggregate::Kind Aggregate::KindForAnode(AnodeType type) {
  switch (type) {
    case AnodeType::kFile:
      return Kind::kData;
    case AnodeType::kAnodeTable:
      return Kind::kAnodeTable;
    default:
      return Kind::kMeta;
  }
}

Aggregate::Aggregate(BlockDevice& dev, Options options) : dev_(dev), options_(options) {
  cache_ = std::make_unique<BufferCache>(dev_, options_.cache_blocks);
}

Aggregate::~Aggregate() = default;

Status Aggregate::InitWal() {
  ASSIGN_OR_RETURN(Superblock sb, ReadSuper());
  Wal::Options wopt = options_.wal;
  wopt.log_start_block = sb.log_start;
  wopt.log_blocks = sb.log_blocks;
  wal_ = std::make_unique<Wal>(dev_, *cache_, wopt);
  cache_->AttachWal(wal_.get());
  return Status::Ok();
}

Result<std::unique_ptr<Aggregate>> Aggregate::Format(BlockDevice& dev, Options options) {
  uint64_t block_count = dev.BlockCount();
  uint64_t rc_blocks = (block_count * 2 + kBlockSize - 1) / kBlockSize;
  uint64_t log_start = kRefcountStart + rc_blocks;
  uint64_t registry_block = log_start + options.log_blocks;
  uint64_t data_start = registry_block + 1;
  if (data_start + 16 >= block_count) {
    return Status(ErrorCode::kInvalidArgument, "device too small for aggregate");
  }

  Superblock sb;
  sb.block_count = block_count;
  sb.next_volume_id = options.volume_id_base;
  sb.free_blocks = block_count - data_start;
  sb.rc_start = kRefcountStart;
  sb.rc_blocks = rc_blocks;
  sb.log_start = log_start;
  sb.log_blocks = options.log_blocks;
  sb.registry.type = AnodeType::kFile;  // plain meta container
  sb.registry.size = kBlockSize;
  sb.registry.direct[0] = registry_block;

  std::vector<uint8_t> block(kBlockSize, 0);
  sb.Encode(block);
  RETURN_IF_ERROR(dev.Write(0, block));

  // Reference-count table: reserved blocks (superblock, rc table, log area,
  // first registry block) start at count 1; everything else is free (0).
  for (uint64_t rb = 0; rb < rc_blocks; ++rb) {
    std::fill(block.begin(), block.end(), uint8_t{0});
    uint64_t first = rb * (kBlockSize / 2);
    for (uint64_t i = 0; i < kBlockSize / 2; ++i) {
      uint64_t b = first + i;
      if (b < data_start && b < block_count) {
        block[i * 2] = 1;
      }
    }
    RETURN_IF_ERROR(dev.Write(kRefcountStart + rb, block));
  }
  std::fill(block.begin(), block.end(), uint8_t{0});
  RETURN_IF_ERROR(dev.Write(registry_block, block));
  RETURN_IF_ERROR(dev.Flush());

  auto agg = std::unique_ptr<Aggregate>(new Aggregate(dev, options));
  RETURN_IF_ERROR(agg->InitWal());
  RETURN_IF_ERROR(agg->wal_->Format());
  {
    MutexLock lock(agg->op_mu_);  // not published yet; keeps the analysis exact
    agg->alloc_hint_ = data_start;
  }
  return agg;
}

Result<std::unique_ptr<Aggregate>> Aggregate::Mount(BlockDevice& dev, Options options) {
  auto agg = std::unique_ptr<Aggregate>(new Aggregate(dev, options));
  {
    // Validate the superblock before trusting any geometry.
    std::vector<uint8_t> block(kBlockSize);
    RETURN_IF_ERROR(dev.Read(0, block));
    ASSIGN_OR_RETURN(Superblock sb, Superblock::Decode(block));
    if (sb.block_count != dev.BlockCount()) {
      return Status(ErrorCode::kCorrupt, "superblock block count mismatch");
    }
  }
  RETURN_IF_ERROR(agg->InitWal());
  // Always recover: a clean log replays as a no-op, so the crash-restart path
  // and the clean-restart path are the same code (and the same test surface).
  ASSIGN_OR_RETURN(Wal::RecoveryStats rstats, agg->wal_->Recover());
  (void)rstats;
  return agg;
}

Status Aggregate::SyncLog() { return wal_->Sync(); }

Status Aggregate::Checkpoint() {
  MutexLock lock(op_mu_);
  return wal_->Checkpoint();
}

void Aggregate::CrashNow() { cache_->Crash(); }

Status Aggregate::PollGroupCommit() { return wal_->MaybeGroupCommit(); }

// --- Superblock / registry ---

Result<Superblock> Aggregate::ReadSuper() {
  ASSIGN_OR_RETURN(BufferCache::Ref buf, cache_->Get(0));
  return Superblock::Decode(std::span<const uint8_t>(buf.data(), kBlockSize));
}

Status Aggregate::WriteSuper(const TxnToken& txn, const Superblock& sb) {
  std::vector<uint8_t> bytes(Superblock::kEncodedSize);
  sb.Encode(bytes);
  return LogBlockBytes(txn, 0, 0, bytes);
}

Result<VolumeSlot> Aggregate::ReadSlot(uint32_t slot_index) {
  ASSIGN_OR_RETURN(Superblock sb, ReadSuper());
  if (uint64_t{slot_index} * kVolumeSlotSize >= sb.registry.size) {
    return Status(ErrorCode::kNotFound, "registry slot out of range");
  }
  std::vector<uint8_t> bytes(kVolumeSlotSize);
  RETURN_IF_ERROR(ReadContainer(sb.registry, uint64_t{slot_index} * kVolumeSlotSize, bytes));
  return VolumeSlot::Decode(bytes);
}

Status Aggregate::WriteSlot(const TxnToken& txn, uint32_t slot_index, const VolumeSlot& slot) {
  ASSIGN_OR_RETURN(Superblock sb, ReadSuper());
  std::vector<uint8_t> bytes(kVolumeSlotSize);
  slot.Encode(bytes);
  bool changed = false;
  RETURN_IF_ERROR(WriteContainer(txn, sb.registry, Kind::kMeta,
                                 uint64_t{slot_index} * kVolumeSlotSize, bytes, &changed));
  if (changed) {
    RETURN_IF_ERROR(WriteSuper(txn, sb));
  }
  return Status::Ok();
}

Result<std::pair<VolumeSlot, uint32_t>> Aggregate::FindVolumeSlot(uint64_t volume_id) {
  ASSIGN_OR_RETURN(Superblock sb, ReadSuper());
  uint32_t nslots = static_cast<uint32_t>(sb.registry.size / kVolumeSlotSize);
  std::vector<uint8_t> bytes(kVolumeSlotSize);
  for (uint32_t i = 0; i < nslots; ++i) {
    RETURN_IF_ERROR(ReadContainer(sb.registry, uint64_t{i} * kVolumeSlotSize, bytes));
    VolumeSlot s = VolumeSlot::Decode(bytes);
    if (s.volume_id == volume_id) {
      return std::make_pair(std::move(s), i);
    }
  }
  return Status(ErrorCode::kNotFound, "no such volume");
}

// --- Refcount table ---

// The table's geometry is fixed at Format: it starts at kRefcountStart and
// covers the device, whose size Mount checks against the superblock. The
// per-block lookups take it from there, not from a decoded superblock.
Result<uint16_t> Aggregate::GetRefcount(uint64_t blockno) {
  if (blockno >= dev_.BlockCount()) {
    return Status(ErrorCode::kCorrupt, "refcount query out of range");
  }
  uint64_t rcblock = kRefcountStart + blockno / (kBlockSize / 2);
  uint32_t off = static_cast<uint32_t>((blockno % (kBlockSize / 2)) * 2);
  ASSIGN_OR_RETURN(BufferCache::Ref buf, cache_->Get(rcblock));
  uint16_t v;
  std::memcpy(&v, buf.data() + off, 2);
  return v;
}

Status Aggregate::SetRefcount(const TxnToken& txn, uint64_t blockno, uint16_t value) {
  if (blockno >= dev_.BlockCount()) {
    return Status(ErrorCode::kCorrupt, "refcount update out of range");
  }
  uint64_t rcblock = kRefcountStart + blockno / (kBlockSize / 2);
  uint32_t off = static_cast<uint32_t>((blockno % (kBlockSize / 2)) * 2);
  uint8_t bytes[2] = {static_cast<uint8_t>(value), static_cast<uint8_t>(value >> 8)};
  return LogBlockBytes(txn, rcblock, off, bytes);
}

Status Aggregate::IncRef(const TxnToken& txn, uint64_t blockno) {
  ASSIGN_OR_RETURN(uint16_t v, GetRefcount(blockno));
  if (v == UINT16_MAX) {
    return Status(ErrorCode::kNoSpace, "block refcount saturated");
  }
  return SetRefcount(txn, blockno, static_cast<uint16_t>(v + 1));
}

Status Aggregate::DecRef(const TxnToken& txn, uint64_t blockno, bool* now_free) {
  ASSIGN_OR_RETURN(uint16_t v, GetRefcount(blockno));
  if (v == 0) {
    return Status(ErrorCode::kCorrupt, "double free of block " + std::to_string(blockno));
  }
  RETURN_IF_ERROR(SetRefcount(txn, blockno, static_cast<uint16_t>(v - 1)));
  if (now_free != nullptr) {
    *now_free = (v == 1);
  }
  op_mu_.AssertHeld();  // reached only from inside a RunTxn/RunTxnLocked body
  if (v == 1 && blockno < alloc_hint_) {
    alloc_hint_ = blockno;
  }
  return Status::Ok();
}

Result<uint64_t> Aggregate::AllocBlock(const TxnToken& txn) {
  op_mu_.AssertHeld();  // reached only from inside a RunTxn/RunTxnLocked body
  ASSIGN_OR_RETURN(Superblock sb, ReadSuper());
  uint64_t start = std::max<uint64_t>(alloc_hint_, 1);
  for (uint64_t pass = 0; pass < 2; ++pass) {
    uint64_t from = (pass == 0) ? start : 1;
    uint64_t to = (pass == 0) ? sb.block_count : start;
    for (uint64_t b = from; b < to; ++b) {
      ASSIGN_OR_RETURN(uint16_t rc, GetRefcount(b));
      if (rc == 0) {
        RETURN_IF_ERROR(SetRefcount(txn, b, 1));
        alloc_hint_ = b + 1;
        return b;
      }
    }
  }
  return Status(ErrorCode::kNoSpace, "aggregate full");
}

uint64_t Aggregate::FreeBlockCount() {
  auto sbr = ReadSuper();
  if (!sbr.ok()) {
    return 0;
  }
  uint64_t free = 0;
  for (uint64_t b = 0; b < sbr->block_count; ++b) {
    auto rc = GetRefcount(b);
    if (rc.ok() && *rc == 0) {
      ++free;
    }
  }
  return free;
}

Status Aggregate::LogBlockBytes(const TxnToken& txn, uint64_t blockno, uint32_t offset,
                                std::span<const uint8_t> bytes) {
  ASSIGN_OR_RETURN(BufferCache::Ref buf, cache_->Get(blockno));
  return wal_->LogUpdate(txn, buf, offset, bytes);
}

Status Aggregate::LogWholeBlock(const TxnToken& txn, uint64_t blockno,
                                std::span<const uint8_t> content) {
  ASSIGN_OR_RETURN(BufferCache::Ref buf, cache_->Get(blockno));
  return wal_->LogUpdate(txn, buf, 0, content);
}

Result<uint64_t> Aggregate::AllocMetaBlockZeroed(const TxnToken& txn) {
  ASSIGN_OR_RETURN(uint64_t b, AllocBlock(txn));
  std::vector<uint8_t> zeros(kBlockSize, 0);
  RETURN_IF_ERROR(LogWholeBlock(txn, b, zeros));
  return b;
}

// --- Copy-on-write primitives ---

Result<uint64_t> Aggregate::CowInterior(const TxnToken& txn, uint64_t blockno) {
  ASSIGN_OR_RETURN(uint64_t newb, AllocBlock(txn));
  std::vector<uint8_t> content(kBlockSize);
  {
    ASSIGN_OR_RETURN(BufferCache::Ref old, cache_->Get(blockno));
    std::memcpy(content.data(), old.data(), kBlockSize);
  }
  RETURN_IF_ERROR(LogWholeBlock(txn, newb, content));
  // The copy now also references every child: one extra physical parent each.
  for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
    uint64_t child = GetPtr(content.data(), i);
    if (child != 0) {
      RETURN_IF_ERROR(IncRef(txn, child));
    }
  }
  RETURN_IF_ERROR(DecRef(txn, blockno, nullptr));
  return newb;
}

Status Aggregate::IncAnodeTableLeafChildren(const TxnToken& txn, uint64_t blockno) {
  std::vector<uint8_t> content(kBlockSize);
  {
    ASSIGN_OR_RETURN(BufferCache::Ref buf, cache_->Get(blockno));
    std::memcpy(content.data(), buf.data(), kBlockSize);
  }
  for (uint32_t i = 0; i < kAnodesPerBlock; ++i) {
    AnodeRecord a = AnodeRecord::Decode(
        std::span<const uint8_t>(content.data() + i * kAnodeSize, kAnodeSize));
    if (a.type == AnodeType::kFree) {
      continue;
    }
    for (uint32_t d = 0; d < kDirectBlocks; ++d) {
      if (a.direct[d] != 0) {
        RETURN_IF_ERROR(IncRef(txn, a.direct[d]));
      }
    }
    if (a.indirect != 0) {
      RETURN_IF_ERROR(IncRef(txn, a.indirect));
    }
    if (a.dindirect != 0) {
      RETURN_IF_ERROR(IncRef(txn, a.dindirect));
    }
  }
  return Status::Ok();
}

Status Aggregate::FreeAnodeTreesInLeaf(const TxnToken& txn, uint64_t blockno) {
  std::vector<uint8_t> content(kBlockSize);
  {
    ASSIGN_OR_RETURN(BufferCache::Ref buf, cache_->Get(blockno));
    std::memcpy(content.data(), buf.data(), kBlockSize);
  }
  for (uint32_t i = 0; i < kAnodesPerBlock; ++i) {
    AnodeRecord a = AnodeRecord::Decode(
        std::span<const uint8_t>(content.data() + i * kAnodeSize, kAnodeSize));
    if (a.type == AnodeType::kFree) {
      continue;
    }
    Kind kind = KindForAnode(a.type);
    for (uint32_t d = 0; d < kDirectBlocks; ++d) {
      RETURN_IF_ERROR(FreeSubtree(txn, a.direct[d], 0, kind));
    }
    RETURN_IF_ERROR(FreeSubtree(txn, a.indirect, 1, kind));
    RETURN_IF_ERROR(FreeSubtree(txn, a.dindirect, 2, kind));
  }
  return Status::Ok();
}

Result<uint64_t> Aggregate::CowLeaf(const TxnToken& txn, uint64_t blockno, Kind kind) {
  ASSIGN_OR_RETURN(uint64_t newb, AllocBlock(txn));
  std::vector<uint8_t> content(kBlockSize);
  {
    ASSIGN_OR_RETURN(BufferCache::Ref old, cache_->Get(blockno));
    std::memcpy(content.data(), old.data(), kBlockSize);
  }
  if (kind == Kind::kData) {
    ASSIGN_OR_RETURN(BufferCache::Ref buf, cache_->GetZeroed(newb));
    std::memcpy(buf.data(), content.data(), kBlockSize);
    cache_->MarkDirty(buf, 0);
  } else {
    RETURN_IF_ERROR(LogWholeBlock(txn, newb, content));
    if (kind == Kind::kAnodeTable) {
      RETURN_IF_ERROR(IncAnodeTableLeafChildren(txn, newb));
    }
  }
  RETURN_IF_ERROR(DecRef(txn, blockno, nullptr));
  return newb;
}

// --- Block-map navigation ---

Result<uint64_t> Aggregate::MapBlockForRead(const AnodeRecord& desc, uint64_t fblock) {
  if (fblock < kDirectBlocks) {
    return desc.direct[fblock];
  }
  fblock -= kDirectBlocks;
  if (fblock < kPtrsPerBlock) {
    if (desc.indirect == 0) {
      return uint64_t{0};
    }
    ASSIGN_OR_RETURN(BufferCache::Ref buf, cache_->Get(desc.indirect));
    return GetPtr(buf.data(), static_cast<uint32_t>(fblock));
  }
  fblock -= kPtrsPerBlock;
  if (fblock < uint64_t{kPtrsPerBlock} * kPtrsPerBlock) {
    if (desc.dindirect == 0) {
      return uint64_t{0};
    }
    uint64_t l1;
    {
      ASSIGN_OR_RETURN(BufferCache::Ref buf, cache_->Get(desc.dindirect));
      l1 = GetPtr(buf.data(), static_cast<uint32_t>(fblock / kPtrsPerBlock));
    }
    if (l1 == 0) {
      return uint64_t{0};
    }
    ASSIGN_OR_RETURN(BufferCache::Ref buf, cache_->Get(l1));
    return GetPtr(buf.data(), static_cast<uint32_t>(fblock % kPtrsPerBlock));
  }
  return Status(ErrorCode::kInvalidArgument, "offset beyond maximum container size");
}

Result<uint64_t> Aggregate::MapBlockForWrite(const TxnToken& txn, AnodeRecord& desc, Kind kind,
                                             uint64_t fblock, bool* desc_changed) {
  auto ensure_leaf = [&](uint64_t cur) -> Result<uint64_t> {
    if (cur == 0) {
      if (kind == Kind::kData) {
        ASSIGN_OR_RETURN(uint64_t b, AllocBlock(txn));
        ASSIGN_OR_RETURN(BufferCache::Ref buf, cache_->GetZeroed(b));
        cache_->MarkDirty(buf, 0);
        return b;
      }
      return AllocMetaBlockZeroed(txn);
    }
    ASSIGN_OR_RETURN(uint16_t rc, GetRefcount(cur));
    if (rc > 1) {
      return CowLeaf(txn, cur, kind);
    }
    return cur;
  };
  auto ensure_interior = [&](uint64_t cur) -> Result<uint64_t> {
    if (cur == 0) {
      return AllocMetaBlockZeroed(txn);
    }
    ASSIGN_OR_RETURN(uint16_t rc, GetRefcount(cur));
    if (rc > 1) {
      return CowInterior(txn, cur);
    }
    return cur;
  };

  if (fblock < kDirectBlocks) {
    ASSIGN_OR_RETURN(uint64_t leaf, ensure_leaf(desc.direct[fblock]));
    if (leaf != desc.direct[fblock]) {
      desc.direct[fblock] = leaf;
      *desc_changed = true;
    }
    return leaf;
  }
  uint64_t rel = fblock - kDirectBlocks;
  if (rel < kPtrsPerBlock) {
    ASSIGN_OR_RETURN(uint64_t ind, ensure_interior(desc.indirect));
    if (ind != desc.indirect) {
      desc.indirect = ind;
      *desc_changed = true;
    }
    uint64_t cur;
    {
      ASSIGN_OR_RETURN(BufferCache::Ref buf, cache_->Get(ind));
      cur = GetPtr(buf.data(), static_cast<uint32_t>(rel));
    }
    ASSIGN_OR_RETURN(uint64_t leaf, ensure_leaf(cur));
    if (leaf != cur) {
      auto enc = EncodePtr(leaf);
      RETURN_IF_ERROR(LogBlockBytes(txn, ind, static_cast<uint32_t>(rel * 8), enc));
    }
    return leaf;
  }
  rel -= kPtrsPerBlock;
  if (rel >= uint64_t{kPtrsPerBlock} * kPtrsPerBlock) {
    return Status(ErrorCode::kInvalidArgument, "offset beyond maximum container size");
  }
  ASSIGN_OR_RETURN(uint64_t dind, ensure_interior(desc.dindirect));
  if (dind != desc.dindirect) {
    desc.dindirect = dind;
    *desc_changed = true;
  }
  uint32_t i1 = static_cast<uint32_t>(rel / kPtrsPerBlock);
  uint32_t i0 = static_cast<uint32_t>(rel % kPtrsPerBlock);
  uint64_t l1cur;
  {
    ASSIGN_OR_RETURN(BufferCache::Ref buf, cache_->Get(dind));
    l1cur = GetPtr(buf.data(), i1);
  }
  ASSIGN_OR_RETURN(uint64_t l1, ensure_interior(l1cur));
  if (l1 != l1cur) {
    auto enc = EncodePtr(l1);
    RETURN_IF_ERROR(LogBlockBytes(txn, dind, i1 * 8, enc));
  }
  uint64_t cur;
  {
    ASSIGN_OR_RETURN(BufferCache::Ref buf, cache_->Get(l1));
    cur = GetPtr(buf.data(), i0);
  }
  ASSIGN_OR_RETURN(uint64_t leaf, ensure_leaf(cur));
  if (leaf != cur) {
    auto enc = EncodePtr(leaf);
    RETURN_IF_ERROR(LogBlockBytes(txn, l1, i0 * 8, enc));
  }
  return leaf;
}

Status Aggregate::FreeSubtree(const TxnToken& txn, uint64_t ptr, int level, Kind kind) {
  if (ptr == 0) {
    return Status::Ok();
  }
  ASSIGN_OR_RETURN(uint16_t rc, GetRefcount(ptr));
  if (rc == 1) {
    if (level > 0) {
      std::vector<uint8_t> content(kBlockSize);
      {
        ASSIGN_OR_RETURN(BufferCache::Ref buf, cache_->Get(ptr));
        std::memcpy(content.data(), buf.data(), kBlockSize);
      }
      for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
        uint64_t child = GetPtr(content.data(), i);
        if (child != 0) {
          RETURN_IF_ERROR(FreeSubtree(txn, child, level - 1, kind));
        }
      }
    } else if (kind == Kind::kAnodeTable) {
      RETURN_IF_ERROR(FreeAnodeTreesInLeaf(txn, ptr));
    }
  }
  return DecRef(txn, ptr, nullptr);
}

Status Aggregate::TruncSubtree(const TxnToken& txn, uint64_t* slot, int level, uint64_t base_fblock,
                               uint64_t keep_blocks, Kind kind, bool* changed) {
  if (*slot == 0) {
    return Status::Ok();
  }
  uint64_t span = 1;
  for (int l = 0; l < level; ++l) {
    span *= kPtrsPerBlock;
  }
  if (keep_blocks <= base_fblock) {
    RETURN_IF_ERROR(FreeSubtree(txn, *slot, level, kind));
    *slot = 0;
    *changed = true;
    return Status::Ok();
  }
  if (base_fblock + span <= keep_blocks || level == 0) {
    return Status::Ok();  // fully kept
  }
  // Partially kept interior: privatize, then recurse into children.
  ASSIGN_OR_RETURN(uint16_t rc, GetRefcount(*slot));
  if (rc > 1) {
    ASSIGN_OR_RETURN(*slot, CowInterior(txn, *slot));
    *changed = true;
  }
  std::vector<uint8_t> content(kBlockSize);
  {
    ASSIGN_OR_RETURN(BufferCache::Ref buf, cache_->Get(*slot));
    std::memcpy(content.data(), buf.data(), kBlockSize);
  }
  uint64_t child_span = span / kPtrsPerBlock;
  for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
    uint64_t ptr = GetPtr(content.data(), i);
    if (ptr == 0) {
      continue;
    }
    uint64_t child_base = base_fblock + i * child_span;
    uint64_t newptr = ptr;
    bool sub_changed = false;
    RETURN_IF_ERROR(
        TruncSubtree(txn, &newptr, level - 1, child_base, keep_blocks, kind, &sub_changed));
    if (newptr != ptr) {
      auto enc = EncodePtr(newptr);
      RETURN_IF_ERROR(LogBlockBytes(txn, *slot, i * 8, enc));
    }
  }
  return Status::Ok();
}

Status Aggregate::CountSubtree(uint64_t ptr, int level, Kind kind, uint64_t* count) {
  if (ptr == 0) {
    return Status::Ok();
  }
  ++*count;
  if (level > 0) {
    std::vector<uint8_t> content(kBlockSize);
    {
      ASSIGN_OR_RETURN(BufferCache::Ref buf, cache_->Get(ptr));
      std::memcpy(content.data(), buf.data(), kBlockSize);
    }
    for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
      uint64_t child = GetPtr(content.data(), i);
      if (child != 0) {
        RETURN_IF_ERROR(CountSubtree(child, level - 1, kind, count));
      }
    }
  } else if (kind == Kind::kAnodeTable) {
    std::vector<uint8_t> content(kBlockSize);
    {
      ASSIGN_OR_RETURN(BufferCache::Ref buf, cache_->Get(ptr));
      std::memcpy(content.data(), buf.data(), kBlockSize);
    }
    for (uint32_t i = 0; i < kAnodesPerBlock; ++i) {
      AnodeRecord a = AnodeRecord::Decode(
          std::span<const uint8_t>(content.data() + i * kAnodeSize, kAnodeSize));
      if (a.type == AnodeType::kFree) {
        continue;
      }
      Kind child_kind = KindForAnode(a.type);
      for (uint32_t d = 0; d < kDirectBlocks; ++d) {
        RETURN_IF_ERROR(CountSubtree(a.direct[d], 0, child_kind, count));
      }
      RETURN_IF_ERROR(CountSubtree(a.indirect, 1, child_kind, count));
      RETURN_IF_ERROR(CountSubtree(a.dindirect, 2, child_kind, count));
    }
  }
  return Status::Ok();
}

Result<uint64_t> Aggregate::CountTreeBlocks(const AnodeRecord& desc, Kind kind) {
  uint64_t count = 0;
  for (uint32_t d = 0; d < kDirectBlocks; ++d) {
    RETURN_IF_ERROR(CountSubtree(desc.direct[d], 0, kind, &count));
  }
  RETURN_IF_ERROR(CountSubtree(desc.indirect, 1, kind, &count));
  RETURN_IF_ERROR(CountSubtree(desc.dindirect, 2, kind, &count));
  return count;
}

Status Aggregate::ShareTopLevel(const TxnToken& txn, const AnodeRecord& desc) {
  for (uint32_t d = 0; d < kDirectBlocks; ++d) {
    if (desc.direct[d] != 0) {
      RETURN_IF_ERROR(IncRef(txn, desc.direct[d]));
    }
  }
  if (desc.indirect != 0) {
    RETURN_IF_ERROR(IncRef(txn, desc.indirect));
  }
  if (desc.dindirect != 0) {
    RETURN_IF_ERROR(IncRef(txn, desc.dindirect));
  }
  return Status::Ok();
}

// --- Container byte I/O ---

Status Aggregate::ReadContainer(const AnodeRecord& desc, uint64_t offset,
                                std::span<uint8_t> out) {
  size_t done = 0;
  while (done < out.size()) {
    uint64_t pos = offset + done;
    uint64_t fblock = pos / kBlockSize;
    uint32_t boff = static_cast<uint32_t>(pos % kBlockSize);
    size_t chunk = std::min<size_t>(kBlockSize - boff, out.size() - done);
    ASSIGN_OR_RETURN(uint64_t blockno, MapBlockForRead(desc, fblock));
    if (blockno == 0) {
      std::memset(out.data() + done, 0, chunk);
    } else {
      ASSIGN_OR_RETURN(BufferCache::Ref buf, cache_->Get(blockno));
      std::memcpy(out.data() + done, buf.data() + boff, chunk);
    }
    done += chunk;
  }
  return Status::Ok();
}

Status Aggregate::WriteContainer(const TxnToken& txn, AnodeRecord& desc, Kind kind, uint64_t offset,
                                 std::span<const uint8_t> data, bool* desc_changed) {
  size_t done = 0;
  while (done < data.size()) {
    uint64_t pos = offset + done;
    uint64_t fblock = pos / kBlockSize;
    uint32_t boff = static_cast<uint32_t>(pos % kBlockSize);
    size_t chunk = std::min<size_t>(kBlockSize - boff, data.size() - done);
    ASSIGN_OR_RETURN(uint64_t blockno, MapBlockForWrite(txn, desc, kind, fblock, desc_changed));
    if (kind == Kind::kData) {
      // A whole-block overwrite reads nothing from disk: every byte of the
      // block is about to be replaced. A partial write merges with the
      // block's other bytes, so it reads them first.
      ASSIGN_OR_RETURN(BufferCache::Ref buf, chunk == kBlockSize ? cache_->GetZeroed(blockno)
                                                                 : cache_->Get(blockno));
      std::memcpy(buf.data() + boff, data.data() + done, chunk);
      cache_->MarkDirty(buf, 0);
    } else {
      RETURN_IF_ERROR(LogBlockBytes(txn, blockno, boff,
                                    std::span<const uint8_t>(data.data() + done, chunk)));
    }
    done += chunk;
  }
  if (offset + data.size() > desc.size) {
    desc.size = offset + data.size();
    *desc_changed = true;
  }
  return Status::Ok();
}

Status Aggregate::TruncateContainer(const TxnToken& txn, AnodeRecord& desc, Kind kind,
                                    uint64_t new_size, bool* desc_changed) {
  if (new_size >= desc.size) {
    if (new_size > desc.size) {
      desc.size = new_size;  // extension creates a hole
      *desc_changed = true;
    }
    return Status::Ok();
  }
  // Zero the tail of the last kept block so a later extension reads zeros.
  uint32_t tail = static_cast<uint32_t>(new_size % kBlockSize);
  if (tail != 0) {
    ASSIGN_OR_RETURN(uint64_t blockno, MapBlockForRead(desc, new_size / kBlockSize));
    if (blockno != 0) {
      std::vector<uint8_t> zeros(kBlockSize - tail, 0);
      RETURN_IF_ERROR(WriteContainer(txn, desc, kind, new_size, zeros, desc_changed));
    }
  }
  uint64_t keep = (new_size + kBlockSize - 1) / kBlockSize;
  for (uint32_t d = 0; d < kDirectBlocks; ++d) {
    if (desc.direct[d] != 0 && keep <= d) {
      RETURN_IF_ERROR(FreeSubtree(txn, desc.direct[d], 0, kind));
      desc.direct[d] = 0;
      *desc_changed = true;
    }
  }
  RETURN_IF_ERROR(TruncSubtree(txn, &desc.indirect, 1, kDirectBlocks, keep, kind, desc_changed));
  RETURN_IF_ERROR(TruncSubtree(txn, &desc.dindirect, 2, kDirectBlocks + kPtrsPerBlock, keep,
                               kind, desc_changed));
  desc.size = new_size;
  *desc_changed = true;
  return Status::Ok();
}

// --- Anode access ---

Result<AnodeRecord> Aggregate::ReadAnode(const VolumeSlot& vol, uint64_t vnode) {
  if (vnode == 0 || vnode >= vol.anode_count) {
    return Status(ErrorCode::kStale, "vnode index out of range");
  }
  std::vector<uint8_t> bytes(kAnodeSize);
  RETURN_IF_ERROR(ReadContainer(vol.table, vnode * kAnodeSize, bytes));
  return AnodeRecord::Decode(bytes);
}

Status Aggregate::WriteAnode(const TxnToken& txn, uint32_t slot_index, VolumeSlot& vol,
                             uint64_t vnode, const AnodeRecord& rec) {
  if (vnode == 0 || vnode >= vol.anode_count) {
    return Status(ErrorCode::kStale, "vnode index out of range");
  }
  std::vector<uint8_t> bytes(kAnodeSize);
  rec.Encode(bytes);
  bool changed = false;
  RETURN_IF_ERROR(
      WriteContainer(txn, vol.table, Kind::kAnodeTable, vnode * kAnodeSize, bytes, &changed));
  if (changed) {
    RETURN_IF_ERROR(WriteSlot(txn, slot_index, vol));
  }
  return Status::Ok();
}

Result<uint64_t> Aggregate::BumpVersion(const TxnToken& txn, uint32_t slot_index, VolumeSlot& vol) {
  vol.version_counter += 1;
  RETURN_IF_ERROR(WriteSlot(txn, slot_index, vol));
  return vol.version_counter;
}

Status Aggregate::PrivatizeAnode(const TxnToken& txn, uint32_t slot_index, VolumeSlot& vol,
                                 uint64_t vnode) {
  ASSIGN_OR_RETURN(AnodeRecord rec, ReadAnode(vol, vnode));
  return WriteAnode(txn, slot_index, vol, vnode, rec);
}

Result<uint64_t> Aggregate::AllocAnode(const TxnToken& txn, uint32_t slot_index, VolumeSlot& vol,
                                       AnodeType type, const AnodeRecord& init) {
  op_mu_.AssertHeld();  // reached only from inside a RunTxn/RunTxnLocked body
  uint64_t& hint = anode_hint_[vol.volume_id];
  if (hint == 0 || hint >= vol.anode_count) {
    hint = 1;
  }
  for (uint64_t pass = 0; pass < 2; ++pass) {
    uint64_t from = (pass == 0) ? hint : 1;
    uint64_t to = (pass == 0) ? vol.anode_count : hint;
    for (uint64_t v = from; v < to; ++v) {
      ASSIGN_OR_RETURN(AnodeRecord cur, ReadAnode(vol, v));
      if (cur.type == AnodeType::kFree) {
        AnodeRecord rec = init;
        rec.type = type;
        rec.uniq = vol.next_uniq++;
        RETURN_IF_ERROR(WriteAnode(txn, slot_index, vol, v, rec));
        RETURN_IF_ERROR(WriteSlot(txn, slot_index, vol));  // persist next_uniq
        hint = v + 1;
        return v;
      }
    }
  }
  return Status(ErrorCode::kNoAnodes, "volume anode table full");
}

Status Aggregate::AllocAnodeAt(const TxnToken& txn, uint32_t slot_index, VolumeSlot& vol,
                               uint64_t vnode, const AnodeRecord& init) {
  ASSIGN_OR_RETURN(AnodeRecord cur, ReadAnode(vol, vnode));
  if (cur.type != AnodeType::kFree) {
    return Status(ErrorCode::kExists, "anode slot in use");
  }
  RETURN_IF_ERROR(WriteAnode(txn, slot_index, vol, vnode, init));
  if (init.uniq >= vol.next_uniq) {
    vol.next_uniq = init.uniq + 1;
    RETURN_IF_ERROR(WriteSlot(txn, slot_index, vol));
  }
  return Status::Ok();
}

Status Aggregate::FreeAnode(const TxnToken& txn, uint32_t slot_index, VolumeSlot& vol,
                            uint64_t vnode) {
  ASSIGN_OR_RETURN(AnodeRecord rec, ReadAnode(vol, vnode));
  if (rec.type == AnodeType::kFree) {
    return Status::Ok();
  }
  if (rec.acl_vnode != 0) {
    RETURN_IF_ERROR(FreeAnode(txn, slot_index, vol, rec.acl_vnode));
  }
  // Order matters: writing the freed anode first privatizes the table block
  // (incrementing children for the clone's benefit); only then is it safe to
  // release this volume's references to the block tree.
  AnodeRecord zero;
  RETURN_IF_ERROR(WriteAnode(txn, slot_index, vol, vnode, zero));
  Kind kind = KindForAnode(rec.type);
  for (uint32_t d = 0; d < kDirectBlocks; ++d) {
    RETURN_IF_ERROR(FreeSubtree(txn, rec.direct[d], 0, kind));
  }
  RETURN_IF_ERROR(FreeSubtree(txn, rec.indirect, 1, kind));
  RETURN_IF_ERROR(FreeSubtree(txn, rec.dindirect, 2, kind));
  return Status::Ok();
}

// --- Directory helpers ---

Status Aggregate::DirAddEntry(const TxnToken& txn, AnodeRecord& dir_an, const DirSlot& entry,
                              bool* desc_changed) {
  if (entry.name.empty() || entry.name.size() > kMaxNameLen) {
    return Status(ErrorCode::kNameTooLong, "directory entry name length invalid");
  }
  uint64_t nslots = dir_an.size / kDirEntrySize;
  std::vector<uint8_t> bytes(kDirEntrySize);
  std::optional<uint64_t> free_slot;
  for (uint64_t i = 0; i < nslots; ++i) {
    RETURN_IF_ERROR(ReadContainer(dir_an, i * kDirEntrySize, bytes));
    DirSlot d = DirSlot::Decode(bytes);
    if (d.in_use != 0) {
      if (d.name == entry.name) {
        return Status(ErrorCode::kExists, "entry exists: " + entry.name);
      }
    } else if (!free_slot.has_value()) {
      free_slot = i;
    }
  }
  uint64_t slot = free_slot.value_or(nslots);
  DirSlot d = entry;
  d.in_use = 1;
  d.Encode(bytes);
  return WriteContainer(txn, dir_an, Kind::kMeta, slot * kDirEntrySize, bytes, desc_changed);
}

Result<DirSlot> Aggregate::DirFind(const AnodeRecord& dir_an, std::string_view name) {
  uint64_t nslots = dir_an.size / kDirEntrySize;
  std::vector<uint8_t> bytes(kDirEntrySize);
  for (uint64_t i = 0; i < nslots; ++i) {
    RETURN_IF_ERROR(ReadContainer(dir_an, i * kDirEntrySize, bytes));
    DirSlot d = DirSlot::Decode(bytes);
    if (d.in_use != 0 && d.name == name) {
      return d;
    }
  }
  return Status(ErrorCode::kNotFound, "no such entry: " + std::string(name));
}

Status Aggregate::DirRemoveEntry(const TxnToken& txn, AnodeRecord& dir_an, std::string_view name,
                                 bool* desc_changed) {
  uint64_t nslots = dir_an.size / kDirEntrySize;
  std::vector<uint8_t> bytes(kDirEntrySize);
  for (uint64_t i = 0; i < nslots; ++i) {
    RETURN_IF_ERROR(ReadContainer(dir_an, i * kDirEntrySize, bytes));
    DirSlot d = DirSlot::Decode(bytes);
    if (d.in_use != 0 && d.name == name) {
      std::fill(bytes.begin(), bytes.end(), uint8_t{0});
      return WriteContainer(txn, dir_an, Kind::kMeta, i * kDirEntrySize, bytes, desc_changed);
    }
  }
  return Status(ErrorCode::kNotFound, "no such entry: " + std::string(name));
}

Status Aggregate::DirUpdateEntry(const TxnToken& txn, AnodeRecord& dir_an, std::string_view name,
                                 uint64_t vnode, uint64_t uniq, uint8_t type,
                                 bool* desc_changed) {
  uint64_t nslots = dir_an.size / kDirEntrySize;
  std::vector<uint8_t> bytes(kDirEntrySize);
  for (uint64_t i = 0; i < nslots; ++i) {
    RETURN_IF_ERROR(ReadContainer(dir_an, i * kDirEntrySize, bytes));
    DirSlot d = DirSlot::Decode(bytes);
    if (d.in_use != 0 && d.name == name) {
      d.vnode = vnode;
      d.uniq = uniq;
      d.type = type;
      d.Encode(bytes);
      return WriteContainer(txn, dir_an, Kind::kMeta, i * kDirEntrySize, bytes, desc_changed);
    }
  }
  return Status(ErrorCode::kNotFound, "no such entry: " + std::string(name));
}

Result<std::vector<DirSlot>> Aggregate::DirList(const AnodeRecord& dir_an) {
  uint64_t nslots = dir_an.size / kDirEntrySize;
  std::vector<uint8_t> bytes(kDirEntrySize);
  std::vector<DirSlot> out;
  for (uint64_t i = 0; i < nslots; ++i) {
    RETURN_IF_ERROR(ReadContainer(dir_an, i * kDirEntrySize, bytes));
    DirSlot d = DirSlot::Decode(bytes);
    if (d.in_use != 0) {
      out.push_back(std::move(d));
    }
  }
  return out;
}

Result<bool> Aggregate::DirIsEmpty(const AnodeRecord& dir_an) {
  ASSIGN_OR_RETURN(std::vector<DirSlot> entries, DirList(dir_an));
  for (const DirSlot& d : entries) {
    if (d.name != "." && d.name != "..") {
      return false;
    }
  }
  return true;
}

}  // namespace dfs
