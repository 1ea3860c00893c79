#include "src/episode/volume.h"

#include <algorithm>
#include <atomic>
#include <cstring>

namespace dfs {
namespace {

// Per-operation volume context: the registry slot (re-read on every operation
// so the buffer cache remains the single source of truth) plus its index.
struct VolCtx {
  VolumeSlot vol;
  uint32_t slot_index = 0;
};

Result<VolCtx> LoadVolume(Aggregate& agg, uint64_t volume_id, bool for_write) {
  auto pair = agg.FindVolumeSlot(volume_id);
  if (pair.code() == ErrorCode::kNotFound) {
    // The volume left this aggregate under a mounted handle (moved away and
    // deleted): the volume, not a file in it, is missing, so answer like a
    // server that no longer exports it and let a remote client relocate
    // through the VLDB. A kNotFound here would read as "no such file" and
    // poison the client's negative lookup cache.
    return Status(ErrorCode::kUnavailable, "volume no longer on this aggregate");
  }
  RETURN_IF_ERROR(pair.status());
  VolCtx ctx{std::move(pair->first), pair->second};
  if (ctx.vol.flags & kVolFlagBusy) {
    return Status(ErrorCode::kBusy, "volume busy (move/clone in progress)");
  }
  if (for_write && (ctx.vol.flags & kVolFlagReadOnly)) {
    return Status(ErrorCode::kPermissionDenied, "read-only volume");
  }
  return ctx;
}

FileType TypeFromAnode(AnodeType t) {
  switch (t) {
    case AnodeType::kDirectory:
      return FileType::kDirectory;
    case AnodeType::kSymlink:
      return FileType::kSymlink;
    default:
      return FileType::kFile;
  }
}

AnodeType AnodeFromType(FileType t) {
  switch (t) {
    case FileType::kDirectory:
      return AnodeType::kDirectory;
    case FileType::kSymlink:
      return AnodeType::kSymlink;
    default:
      return AnodeType::kFile;
  }
}

// Pseudo-time for mtime/ctime: the virtual clock when configured, otherwise a
// process-wide monotonic counter (tests only compare for ordering).
uint64_t NowTime(Aggregate& agg) {
  if (agg.options().wal.clock != nullptr) {
    return agg.options().wal.clock->Now();
  }
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1);
}

}  // namespace

// --- EpisodeVfs ---

Result<VnodeRef> EpisodeVfs::Root() {
  MutexLock lock(agg_->op_mu());
  ASSIGN_OR_RETURN(VolCtx ctx, LoadVolume(*agg_, volume_id_, /*for_write=*/false));
  ASSIGN_OR_RETURN(AnodeRecord rec, agg_->ReadAnode(ctx.vol, ctx.vol.root_vnode));
  if (rec.type != AnodeType::kDirectory) {
    return Status(ErrorCode::kCorrupt, "volume root is not a directory");
  }
  return VnodeRef(
      std::make_shared<EpisodeVnode>(agg_, volume_id_, ctx.vol.root_vnode, rec.uniq));
}

Result<VnodeRef> EpisodeVfs::VnodeByFid(const Fid& fid) {
  if (fid.volume != volume_id_) {
    return Status(ErrorCode::kStale, "FID volume mismatch");
  }
  MutexLock lock(agg_->op_mu());
  ASSIGN_OR_RETURN(VolCtx ctx, LoadVolume(*agg_, volume_id_, /*for_write=*/false));
  ASSIGN_OR_RETURN(AnodeRecord rec, agg_->ReadAnode(ctx.vol, fid.vnode));
  if (rec.type == AnodeType::kFree || rec.type == AnodeType::kAcl || rec.uniq != fid.uniq) {
    return Status(ErrorCode::kStale, "stale FID " + fid.ToString());
  }
  return VnodeRef(std::make_shared<EpisodeVnode>(agg_, volume_id_, fid.vnode, fid.uniq));
}

Status EpisodeVfs::Sync() { return agg_->SyncLog(); }

bool EpisodeVfs::ReadOnly() const {
  auto pair = agg_->FindVolumeSlot(volume_id_);
  return pair.ok() && (pair->first.flags & kVolFlagReadOnly) != 0;
}

// --- EpisodeVnode helpers ---

namespace {

// Loads the volume and this vnode's anode, verifying the uniquifier.
struct NodeCtx {
  VolCtx vc;
  AnodeRecord rec;
};

Result<NodeCtx> LoadNode(Aggregate& agg, uint64_t volume_id, uint64_t vnode, uint64_t uniq,
                         bool for_write) {
  ASSIGN_OR_RETURN(VolCtx vc, LoadVolume(agg, volume_id, for_write));
  ASSIGN_OR_RETURN(AnodeRecord rec, agg.ReadAnode(vc.vol, vnode));
  if (rec.type == AnodeType::kFree || rec.uniq != uniq) {
    return Status(ErrorCode::kStale, "stale FID");
  }
  return NodeCtx{std::move(vc), rec};
}

}  // namespace

Result<FileAttr> EpisodeVnode::GetAttr() {
  MutexLock lock(agg_->op_mu());
  ASSIGN_OR_RETURN(NodeCtx ctx, LoadNode(*agg_, volume_id_, vnode_, uniq_, false));
  const AnodeRecord& rec = ctx.rec;
  FileAttr attr;
  attr.fid = fid();
  attr.type = TypeFromAnode(rec.type);
  attr.size = rec.size;
  attr.mode = rec.mode;
  attr.uid = rec.uid;
  attr.gid = rec.gid;
  attr.nlink = rec.nlink;
  attr.mtime = rec.mtime;
  attr.ctime = rec.ctime;
  attr.atime = rec.atime;
  attr.data_version = rec.data_version;
  return attr;
}

Status EpisodeVnode::SetAttr(const AttrUpdate& update) {
  MutexLock lock(agg_->op_mu());
  ASSIGN_OR_RETURN(NodeCtx ctx, LoadNode(*agg_, volume_id_, vnode_, uniq_, true));
  return agg_->RunTxnLocked([&](const TxnToken& txn) -> Status {
    txn.AssertIssued();
    AnodeRecord rec = ctx.rec;
    if (update.mode) {
      rec.mode = *update.mode;
    }
    if (update.uid) {
      rec.uid = *update.uid;
    }
    if (update.gid) {
      rec.gid = *update.gid;
    }
    if (update.mtime) {
      rec.mtime = *update.mtime;
    }
    if (update.atime) {
      rec.atime = *update.atime;
    }
    rec.ctime = NowTime(*agg_);
    ASSIGN_OR_RETURN(rec.data_version, agg_->BumpVersion(txn, ctx.vc.slot_index, ctx.vc.vol));
    return agg_->WriteAnode(txn, ctx.vc.slot_index, ctx.vc.vol, vnode_, rec);
  });
}

Result<size_t> EpisodeVnode::Read(uint64_t offset, std::span<uint8_t> out) {
  MutexLock lock(agg_->op_mu());
  ASSIGN_OR_RETURN(NodeCtx ctx, LoadNode(*agg_, volume_id_, vnode_, uniq_, false));
  if (ctx.rec.type == AnodeType::kDirectory) {
    return Status(ErrorCode::kIsDirectory, "read of a directory");
  }
  if (offset >= ctx.rec.size) {
    return size_t{0};
  }
  size_t n = static_cast<size_t>(std::min<uint64_t>(out.size(), ctx.rec.size - offset));
  RETURN_IF_ERROR(agg_->ReadContainer(ctx.rec, offset, out.subspan(0, n)));
  return n;
}

Result<size_t> EpisodeVnode::Write(uint64_t offset, std::span<const uint8_t> data) {
  MutexLock lock(agg_->op_mu());
  ASSIGN_OR_RETURN(NodeCtx ctx, LoadNode(*agg_, volume_id_, vnode_, uniq_, true));
  if (ctx.rec.type != AnodeType::kFile) {
    return Status(ErrorCode::kIsDirectory, "write of a non-regular file");
  }
  // Long writes are split into chains of short transactions (Section 2.2),
  // each leaving the file system consistent.
  constexpr size_t kChunkBytes = 32 * kBlockSize;
  size_t done = 0;
  while (done < data.size() || data.empty()) {
    size_t chunk = std::min(kChunkBytes, data.size() - done);
    Status s = agg_->RunTxnLocked([&](const TxnToken& txn) -> Status {
      txn.AssertIssued();
      RETURN_IF_ERROR(agg_->PrivatizeAnode(txn, ctx.vc.slot_index, ctx.vc.vol, vnode_));
      ASSIGN_OR_RETURN(AnodeRecord rec, agg_->ReadAnode(ctx.vc.vol, vnode_));
      bool changed = false;
      RETURN_IF_ERROR(agg_->WriteContainer(txn, rec, Aggregate::Kind::kData, offset + done,
                                           data.subspan(done, chunk), &changed));
      rec.mtime = NowTime(*agg_);
      ASSIGN_OR_RETURN(rec.data_version, agg_->BumpVersion(txn, ctx.vc.slot_index, ctx.vc.vol));
      return agg_->WriteAnode(txn, ctx.vc.slot_index, ctx.vc.vol, vnode_, rec);
    });
    RETURN_IF_ERROR(s);
    done += chunk;
    if (data.empty()) {
      break;
    }
  }
  return data.size();
}

Status EpisodeVnode::Truncate(uint64_t new_size) {
  MutexLock lock(agg_->op_mu());
  ASSIGN_OR_RETURN(NodeCtx ctx, LoadNode(*agg_, volume_id_, vnode_, uniq_, true));
  if (ctx.rec.type != AnodeType::kFile) {
    return Status(ErrorCode::kIsDirectory, "truncate of a non-regular file");
  }
  // Truncation of a large file is broken up, a few blocks at a time, so each
  // transaction stays short-lived (Section 2.2's worked example).
  constexpr uint64_t kChunkBlocks = 64;
  uint64_t target = new_size;
  for (;;) {
    ASSIGN_OR_RETURN(AnodeRecord cur, agg_->ReadAnode(ctx.vc.vol, vnode_));
    uint64_t cur_blocks = cur.BlockCount();
    uint64_t target_blocks = (target + kBlockSize - 1) / kBlockSize;
    uint64_t step_size;
    if (cur_blocks > target_blocks + kChunkBlocks) {
      step_size = (cur_blocks - kChunkBlocks) * kBlockSize;
    } else {
      step_size = target;
    }
    Status s = agg_->RunTxnLocked([&](const TxnToken& txn) -> Status {
      txn.AssertIssued();
      RETURN_IF_ERROR(agg_->PrivatizeAnode(txn, ctx.vc.slot_index, ctx.vc.vol, vnode_));
      ASSIGN_OR_RETURN(AnodeRecord rec, agg_->ReadAnode(ctx.vc.vol, vnode_));
      bool changed = false;
      RETURN_IF_ERROR(
          agg_->TruncateContainer(txn, rec, Aggregate::Kind::kData, step_size, &changed));
      rec.mtime = NowTime(*agg_);
      ASSIGN_OR_RETURN(rec.data_version, agg_->BumpVersion(txn, ctx.vc.slot_index, ctx.vc.vol));
      return agg_->WriteAnode(txn, ctx.vc.slot_index, ctx.vc.vol, vnode_, rec);
    });
    RETURN_IF_ERROR(s);
    if (step_size == target) {
      return Status::Ok();
    }
  }
}

Result<VnodeRef> EpisodeVnode::Lookup(std::string_view name) {
  MutexLock lock(agg_->op_mu());
  ASSIGN_OR_RETURN(NodeCtx ctx, LoadNode(*agg_, volume_id_, vnode_, uniq_, false));
  if (ctx.rec.type != AnodeType::kDirectory) {
    return Status(ErrorCode::kNotDirectory, "lookup in a non-directory");
  }
  ASSIGN_OR_RETURN(DirSlot entry, agg_->DirFind(ctx.rec, name));
  return VnodeRef(std::make_shared<EpisodeVnode>(agg_, volume_id_, entry.vnode, entry.uniq));
}

Result<VnodeRef> EpisodeVnode::Create(std::string_view name, FileType type, uint32_t mode,
                                      const Cred& cred) {
  MutexLock lock(agg_->op_mu());
  ASSIGN_OR_RETURN(NodeCtx ctx, LoadNode(*agg_, volume_id_, vnode_, uniq_, true));
  if (ctx.rec.type != AnodeType::kDirectory) {
    return Status(ErrorCode::kNotDirectory, "create in a non-directory");
  }
  if (type == FileType::kSymlink) {
    return Status(ErrorCode::kInvalidArgument, "use CreateSymlink");
  }
  uint64_t child_vnode = 0;
  uint64_t child_uniq = 0;
  Status s = agg_->RunTxnLocked([&](const TxnToken& txn) -> Status {
    txn.AssertIssued();
    if (agg_->DirFind(ctx.rec, name).ok()) {
      return Status(ErrorCode::kExists, "entry exists: " + std::string(name));
    }
    // The parent's content blocks may be shared with a clone; privatize before
    // editing entries so the snapshot keeps its view.
    RETURN_IF_ERROR(agg_->PrivatizeAnode(txn, ctx.vc.slot_index, ctx.vc.vol, vnode_));
    AnodeRecord init;
    init.mode = mode;
    init.uid = cred.uid;
    init.gid = cred.gids.empty() ? 0 : cred.gids[0];
    init.nlink = (type == FileType::kDirectory) ? 2 : 1;
    init.mtime = init.ctime = init.atime = NowTime(*agg_);
    ASSIGN_OR_RETURN(init.data_version, agg_->BumpVersion(txn, ctx.vc.slot_index, ctx.vc.vol));
    ASSIGN_OR_RETURN(child_vnode,
                     agg_->AllocAnode(txn, ctx.vc.slot_index, ctx.vc.vol, AnodeFromType(type),
                                      init));
    ASSIGN_OR_RETURN(AnodeRecord child, agg_->ReadAnode(ctx.vc.vol, child_vnode));
    child_uniq = child.uniq;
    if (type == FileType::kDirectory) {
      bool ch = false;
      RETURN_IF_ERROR(agg_->DirAddEntry(
          txn, child,
          DirSlot{child_vnode, child_uniq, 1, static_cast<uint8_t>(FileType::kDirectory), "."},
          &ch));
      RETURN_IF_ERROR(agg_->DirAddEntry(
          txn, child,
          DirSlot{vnode_, uniq_, 1, static_cast<uint8_t>(FileType::kDirectory), ".."}, &ch));
      RETURN_IF_ERROR(agg_->WriteAnode(txn, ctx.vc.slot_index, ctx.vc.vol, child_vnode, child));
    }
    // Re-read the parent: allocating the child may have COWed the table block
    // holding it.
    ASSIGN_OR_RETURN(AnodeRecord parent, agg_->ReadAnode(ctx.vc.vol, vnode_));
    bool ch = false;
    RETURN_IF_ERROR(agg_->DirAddEntry(
        txn, parent,
        DirSlot{child_vnode, child_uniq, 1, static_cast<uint8_t>(type), std::string(name)},
        &ch));
    if (type == FileType::kDirectory) {
      parent.nlink += 1;  // the child's ".." entry
    }
    parent.mtime = NowTime(*agg_);
    ASSIGN_OR_RETURN(parent.data_version, agg_->BumpVersion(txn, ctx.vc.slot_index, ctx.vc.vol));
    return agg_->WriteAnode(txn, ctx.vc.slot_index, ctx.vc.vol, vnode_, parent);
  });
  RETURN_IF_ERROR(s);
  return VnodeRef(std::make_shared<EpisodeVnode>(agg_, volume_id_, child_vnode, child_uniq));
}

Result<VnodeRef> EpisodeVnode::CreateSymlink(std::string_view name, std::string_view target,
                                             const Cred& cred) {
  MutexLock lock(agg_->op_mu());
  ASSIGN_OR_RETURN(NodeCtx ctx, LoadNode(*agg_, volume_id_, vnode_, uniq_, true));
  if (ctx.rec.type != AnodeType::kDirectory) {
    return Status(ErrorCode::kNotDirectory, "create in a non-directory");
  }
  uint64_t child_vnode = 0;
  uint64_t child_uniq = 0;
  Status s = agg_->RunTxnLocked([&](const TxnToken& txn) -> Status {
    txn.AssertIssued();
    if (agg_->DirFind(ctx.rec, name).ok()) {
      return Status(ErrorCode::kExists, "entry exists: " + std::string(name));
    }
    RETURN_IF_ERROR(agg_->PrivatizeAnode(txn, ctx.vc.slot_index, ctx.vc.vol, vnode_));
    AnodeRecord init;
    init.mode = 0777;
    init.uid = cred.uid;
    init.gid = cred.gids.empty() ? 0 : cred.gids[0];
    init.nlink = 1;
    init.mtime = init.ctime = init.atime = NowTime(*agg_);
    ASSIGN_OR_RETURN(init.data_version, agg_->BumpVersion(txn, ctx.vc.slot_index, ctx.vc.vol));
    ASSIGN_OR_RETURN(child_vnode, agg_->AllocAnode(txn, ctx.vc.slot_index, ctx.vc.vol,
                                                   AnodeType::kSymlink, init));
    ASSIGN_OR_RETURN(AnodeRecord child, agg_->ReadAnode(ctx.vc.vol, child_vnode));
    child_uniq = child.uniq;
    bool ch = false;
    std::span<const uint8_t> bytes(reinterpret_cast<const uint8_t*>(target.data()),
                                   target.size());
    RETURN_IF_ERROR(
        agg_->WriteContainer(txn, child, Aggregate::Kind::kMeta, 0, bytes, &ch));
    RETURN_IF_ERROR(agg_->WriteAnode(txn, ctx.vc.slot_index, ctx.vc.vol, child_vnode, child));
    ASSIGN_OR_RETURN(AnodeRecord parent, agg_->ReadAnode(ctx.vc.vol, vnode_));
    ch = false;
    RETURN_IF_ERROR(agg_->DirAddEntry(
        txn, parent,
        DirSlot{child_vnode, child_uniq, 1, static_cast<uint8_t>(FileType::kSymlink),
                std::string(name)},
        &ch));
    parent.mtime = NowTime(*agg_);
    ASSIGN_OR_RETURN(parent.data_version, agg_->BumpVersion(txn, ctx.vc.slot_index, ctx.vc.vol));
    return agg_->WriteAnode(txn, ctx.vc.slot_index, ctx.vc.vol, vnode_, parent);
  });
  RETURN_IF_ERROR(s);
  return VnodeRef(std::make_shared<EpisodeVnode>(agg_, volume_id_, child_vnode, child_uniq));
}

Status EpisodeVnode::Link(std::string_view name, Vnode& target) {
  auto* other = dynamic_cast<EpisodeVnode*>(&target);
  if (other == nullptr || other->volume_id_ != volume_id_) {
    return Status(ErrorCode::kCrossVolume, "hard link across volumes");
  }
  MutexLock lock(agg_->op_mu());
  ASSIGN_OR_RETURN(NodeCtx ctx, LoadNode(*agg_, volume_id_, vnode_, uniq_, true));
  if (ctx.rec.type != AnodeType::kDirectory) {
    return Status(ErrorCode::kNotDirectory, "link target dir is not a directory");
  }
  return agg_->RunTxnLocked([&](const TxnToken& txn) -> Status {
    txn.AssertIssued();
    ASSIGN_OR_RETURN(AnodeRecord trec, agg_->ReadAnode(ctx.vc.vol, other->vnode_));
    if (trec.type != AnodeType::kFile || trec.uniq != other->uniq_) {
      return Status(ErrorCode::kInvalidArgument, "hard link target must be a regular file");
    }
    RETURN_IF_ERROR(agg_->PrivatizeAnode(txn, ctx.vc.slot_index, ctx.vc.vol, vnode_));
    ASSIGN_OR_RETURN(AnodeRecord parent, agg_->ReadAnode(ctx.vc.vol, vnode_));
    bool ch = false;
    RETURN_IF_ERROR(agg_->DirAddEntry(
        txn, parent,
        DirSlot{other->vnode_, other->uniq_, 1, static_cast<uint8_t>(FileType::kFile),
                std::string(name)},
        &ch));
    parent.mtime = NowTime(*agg_);
    ASSIGN_OR_RETURN(parent.data_version, agg_->BumpVersion(txn, ctx.vc.slot_index, ctx.vc.vol));
    RETURN_IF_ERROR(agg_->WriteAnode(txn, ctx.vc.slot_index, ctx.vc.vol, vnode_, parent));
    ASSIGN_OR_RETURN(trec, agg_->ReadAnode(ctx.vc.vol, other->vnode_));
    trec.nlink += 1;
    trec.ctime = NowTime(*agg_);
    ASSIGN_OR_RETURN(trec.data_version, agg_->BumpVersion(txn, ctx.vc.slot_index, ctx.vc.vol));
    return agg_->WriteAnode(txn, ctx.vc.slot_index, ctx.vc.vol, other->vnode_, trec);
  });
}

Status EpisodeVnode::Unlink(std::string_view name) {
  MutexLock lock(agg_->op_mu());
  ASSIGN_OR_RETURN(NodeCtx ctx, LoadNode(*agg_, volume_id_, vnode_, uniq_, true));
  if (ctx.rec.type != AnodeType::kDirectory) {
    return Status(ErrorCode::kNotDirectory, "unlink in a non-directory");
  }
  if (name == "." || name == "..") {
    return Status(ErrorCode::kInvalidArgument, "cannot unlink . or ..");
  }
  return agg_->RunTxnLocked([&](const TxnToken& txn) -> Status {
    txn.AssertIssued();
    ASSIGN_OR_RETURN(DirSlot entry, agg_->DirFind(ctx.rec, name));
    ASSIGN_OR_RETURN(AnodeRecord child, agg_->ReadAnode(ctx.vc.vol, entry.vnode));
    if (child.type == AnodeType::kDirectory) {
      return Status(ErrorCode::kIsDirectory, "use Rmdir for directories");
    }
    RETURN_IF_ERROR(agg_->PrivatizeAnode(txn, ctx.vc.slot_index, ctx.vc.vol, vnode_));
    ASSIGN_OR_RETURN(AnodeRecord parent, agg_->ReadAnode(ctx.vc.vol, vnode_));
    bool ch = false;
    RETURN_IF_ERROR(agg_->DirRemoveEntry(txn, parent, name, &ch));
    parent.mtime = NowTime(*agg_);
    ASSIGN_OR_RETURN(parent.data_version, agg_->BumpVersion(txn, ctx.vc.slot_index, ctx.vc.vol));
    RETURN_IF_ERROR(agg_->WriteAnode(txn, ctx.vc.slot_index, ctx.vc.vol, vnode_, parent));
    ASSIGN_OR_RETURN(child, agg_->ReadAnode(ctx.vc.vol, entry.vnode));
    if (child.nlink <= 1) {
      return agg_->FreeAnode(txn, ctx.vc.slot_index, ctx.vc.vol, entry.vnode);
    }
    child.nlink -= 1;
    child.ctime = NowTime(*agg_);
    ASSIGN_OR_RETURN(child.data_version, agg_->BumpVersion(txn, ctx.vc.slot_index, ctx.vc.vol));
    return agg_->WriteAnode(txn, ctx.vc.slot_index, ctx.vc.vol, entry.vnode, child);
  });
}

Status EpisodeVnode::Rmdir(std::string_view name) {
  MutexLock lock(agg_->op_mu());
  ASSIGN_OR_RETURN(NodeCtx ctx, LoadNode(*agg_, volume_id_, vnode_, uniq_, true));
  if (ctx.rec.type != AnodeType::kDirectory) {
    return Status(ErrorCode::kNotDirectory, "rmdir in a non-directory");
  }
  if (name == "." || name == "..") {
    return Status(ErrorCode::kInvalidArgument, "cannot rmdir . or ..");
  }
  return agg_->RunTxnLocked([&](const TxnToken& txn) -> Status {
    txn.AssertIssued();
    ASSIGN_OR_RETURN(DirSlot entry, agg_->DirFind(ctx.rec, name));
    ASSIGN_OR_RETURN(AnodeRecord child, agg_->ReadAnode(ctx.vc.vol, entry.vnode));
    if (child.type != AnodeType::kDirectory) {
      return Status(ErrorCode::kNotDirectory, "rmdir of a non-directory");
    }
    ASSIGN_OR_RETURN(bool empty, agg_->DirIsEmpty(child));
    if (!empty) {
      return Status(ErrorCode::kNotEmpty, "directory not empty");
    }
    RETURN_IF_ERROR(agg_->PrivatizeAnode(txn, ctx.vc.slot_index, ctx.vc.vol, vnode_));
    ASSIGN_OR_RETURN(AnodeRecord parent, agg_->ReadAnode(ctx.vc.vol, vnode_));
    bool ch = false;
    RETURN_IF_ERROR(agg_->DirRemoveEntry(txn, parent, name, &ch));
    parent.nlink -= 1;  // child's ".." no longer references us
    parent.mtime = NowTime(*agg_);
    ASSIGN_OR_RETURN(parent.data_version, agg_->BumpVersion(txn, ctx.vc.slot_index, ctx.vc.vol));
    RETURN_IF_ERROR(agg_->WriteAnode(txn, ctx.vc.slot_index, ctx.vc.vol, vnode_, parent));
    return agg_->FreeAnode(txn, ctx.vc.slot_index, ctx.vc.vol, entry.vnode);
  });
}

Result<std::vector<DirEntry>> EpisodeVnode::ReadDir() {
  MutexLock lock(agg_->op_mu());
  ASSIGN_OR_RETURN(NodeCtx ctx, LoadNode(*agg_, volume_id_, vnode_, uniq_, false));
  if (ctx.rec.type != AnodeType::kDirectory) {
    return Status(ErrorCode::kNotDirectory, "readdir of a non-directory");
  }
  ASSIGN_OR_RETURN(std::vector<DirSlot> slots, agg_->DirList(ctx.rec));
  std::vector<DirEntry> out;
  out.reserve(slots.size());
  for (const DirSlot& s : slots) {
    out.push_back(DirEntry{s.name, s.vnode, s.uniq, static_cast<FileType>(s.type)});
  }
  return out;
}

Result<std::string> EpisodeVnode::ReadSymlink() {
  MutexLock lock(agg_->op_mu());
  ASSIGN_OR_RETURN(NodeCtx ctx, LoadNode(*agg_, volume_id_, vnode_, uniq_, false));
  if (ctx.rec.type != AnodeType::kSymlink) {
    return Status(ErrorCode::kInvalidArgument, "not a symlink");
  }
  std::string out(ctx.rec.size, '\0');
  RETURN_IF_ERROR(agg_->ReadContainer(
      ctx.rec, 0, std::span<uint8_t>(reinterpret_cast<uint8_t*>(out.data()), out.size())));
  return out;
}

Result<Acl> EpisodeVnode::GetAcl() {
  MutexLock lock(agg_->op_mu());
  ASSIGN_OR_RETURN(NodeCtx ctx, LoadNode(*agg_, volume_id_, vnode_, uniq_, false));
  if (ctx.rec.acl_vnode == 0) {
    return Acl();
  }
  ASSIGN_OR_RETURN(AnodeRecord acl_an, agg_->ReadAnode(ctx.vc.vol, ctx.rec.acl_vnode));
  std::vector<uint8_t> bytes(acl_an.size);
  RETURN_IF_ERROR(agg_->ReadContainer(acl_an, 0, bytes));
  Reader r(bytes);
  return Acl::Deserialize(r);
}

Status EpisodeVnode::SetAcl(const Acl& acl) {
  MutexLock lock(agg_->op_mu());
  ASSIGN_OR_RETURN(NodeCtx ctx, LoadNode(*agg_, volume_id_, vnode_, uniq_, true));
  return agg_->RunTxnLocked([&](const TxnToken& txn) -> Status {
    txn.AssertIssued();
    Writer w;
    acl.Serialize(w);
    uint64_t acl_vnode = ctx.rec.acl_vnode;
    if (acl_vnode == 0) {
      AnodeRecord init;
      init.nlink = 1;
      ASSIGN_OR_RETURN(init.data_version, agg_->BumpVersion(txn, ctx.vc.slot_index, ctx.vc.vol));
      ASSIGN_OR_RETURN(acl_vnode, agg_->AllocAnode(txn, ctx.vc.slot_index, ctx.vc.vol,
                                                   AnodeType::kAcl, init));
    }
    RETURN_IF_ERROR(agg_->PrivatizeAnode(txn, ctx.vc.slot_index, ctx.vc.vol, acl_vnode));
    ASSIGN_OR_RETURN(AnodeRecord acl_an, agg_->ReadAnode(ctx.vc.vol, acl_vnode));
    bool ch = false;
    RETURN_IF_ERROR(
        agg_->TruncateContainer(txn, acl_an, Aggregate::Kind::kMeta, 0, &ch));
    RETURN_IF_ERROR(
        agg_->WriteContainer(txn, acl_an, Aggregate::Kind::kMeta, 0, w.data(), &ch));
    RETURN_IF_ERROR(agg_->WriteAnode(txn, ctx.vc.slot_index, ctx.vc.vol, acl_vnode, acl_an));
    ASSIGN_OR_RETURN(AnodeRecord rec, agg_->ReadAnode(ctx.vc.vol, vnode_));
    rec.acl_vnode = acl_vnode;
    rec.ctime = NowTime(*agg_);
    ASSIGN_OR_RETURN(rec.data_version, agg_->BumpVersion(txn, ctx.vc.slot_index, ctx.vc.vol));
    return agg_->WriteAnode(txn, ctx.vc.slot_index, ctx.vc.vol, vnode_, rec);
  });
}

Status EpisodeVfs::Rename(Vnode& src_dir, std::string_view src_name, Vnode& dst_dir,
                          std::string_view dst_name) {
  auto* src = dynamic_cast<EpisodeVnode*>(&src_dir);
  auto* dst = dynamic_cast<EpisodeVnode*>(&dst_dir);
  if (src == nullptr || dst == nullptr || src->volume_id_ != volume_id_ ||
      dst->volume_id_ != volume_id_) {
    return Status(ErrorCode::kCrossVolume, "rename across volumes");
  }
  if (src_name == "." || src_name == ".." || dst_name == "." || dst_name == "..") {
    return Status(ErrorCode::kInvalidArgument, "cannot rename . or ..");
  }
  MutexLock lock(agg_->op_mu());
  ASSIGN_OR_RETURN(VolCtx vc, LoadVolume(*agg_, volume_id_, /*for_write=*/true));
  return agg_->RunTxnLocked([&](const TxnToken& txn) -> Status {
    txn.AssertIssued();
    RETURN_IF_ERROR(agg_->PrivatizeAnode(txn, vc.slot_index, vc.vol, src->vnode_));
    RETURN_IF_ERROR(agg_->PrivatizeAnode(txn, vc.slot_index, vc.vol, dst->vnode_));
    ASSIGN_OR_RETURN(AnodeRecord sdir, agg_->ReadAnode(vc.vol, src->vnode_));
    ASSIGN_OR_RETURN(DirSlot moving, agg_->DirFind(sdir, src_name));
    ASSIGN_OR_RETURN(AnodeRecord child, agg_->ReadAnode(vc.vol, moving.vnode));
    bool is_dir = child.type == AnodeType::kDirectory;
    bool same_dir = src->vnode_ == dst->vnode_;

    // If the destination exists, remove it (file: unlink; dir: must be empty).
    ASSIGN_OR_RETURN(AnodeRecord ddir, agg_->ReadAnode(vc.vol, dst->vnode_));
    auto existing = agg_->DirFind(ddir, dst_name);
    if (existing.ok()) {
      if (existing->vnode == moving.vnode) {
        return Status::Ok();  // renaming onto the same file
      }
      ASSIGN_OR_RETURN(AnodeRecord victim, agg_->ReadAnode(vc.vol, existing->vnode));
      if (victim.type == AnodeType::kDirectory) {
        if (!is_dir) {
          return Status(ErrorCode::kIsDirectory, "target is a directory");
        }
        ASSIGN_OR_RETURN(bool empty, agg_->DirIsEmpty(victim));
        if (!empty) {
          return Status(ErrorCode::kNotEmpty, "target directory not empty");
        }
      } else if (is_dir) {
        return Status(ErrorCode::kNotDirectory, "target is not a directory");
      }
      bool ch = false;
      RETURN_IF_ERROR(agg_->DirRemoveEntry(txn, ddir, dst_name, &ch));
      RETURN_IF_ERROR(agg_->WriteAnode(txn, vc.slot_index, vc.vol, dst->vnode_, ddir));
      ASSIGN_OR_RETURN(victim, agg_->ReadAnode(vc.vol, existing->vnode));
      if (victim.type == AnodeType::kDirectory || victim.nlink <= 1) {
        RETURN_IF_ERROR(agg_->FreeAnode(txn, vc.slot_index, vc.vol, existing->vnode));
        if (victim.type == AnodeType::kDirectory) {
          ASSIGN_OR_RETURN(ddir, agg_->ReadAnode(vc.vol, dst->vnode_));
          ddir.nlink -= 1;
          RETURN_IF_ERROR(agg_->WriteAnode(txn, vc.slot_index, vc.vol, dst->vnode_, ddir));
        }
      } else {
        victim.nlink -= 1;
        ASSIGN_OR_RETURN(victim.data_version, agg_->BumpVersion(txn, vc.slot_index, vc.vol));
        RETURN_IF_ERROR(agg_->WriteAnode(txn, vc.slot_index, vc.vol, existing->vnode, victim));
      }
    }

    // Add the entry under its new name, then remove the old one.
    ASSIGN_OR_RETURN(ddir, agg_->ReadAnode(vc.vol, dst->vnode_));
    bool ch = false;
    RETURN_IF_ERROR(agg_->DirAddEntry(
        txn, ddir, DirSlot{moving.vnode, moving.uniq, 1, moving.type, std::string(dst_name)},
        &ch));
    ddir.mtime = NowTime(*agg_);
    ASSIGN_OR_RETURN(ddir.data_version, agg_->BumpVersion(txn, vc.slot_index, vc.vol));
    RETURN_IF_ERROR(agg_->WriteAnode(txn, vc.slot_index, vc.vol, dst->vnode_, ddir));

    ASSIGN_OR_RETURN(sdir, agg_->ReadAnode(vc.vol, src->vnode_));
    ch = false;
    RETURN_IF_ERROR(agg_->DirRemoveEntry(txn, sdir, src_name, &ch));
    sdir.mtime = NowTime(*agg_);
    ASSIGN_OR_RETURN(sdir.data_version, agg_->BumpVersion(txn, vc.slot_index, vc.vol));
    RETURN_IF_ERROR(agg_->WriteAnode(txn, vc.slot_index, vc.vol, src->vnode_, sdir));

    // Moving a directory between parents: fix its ".." and the link counts.
    if (is_dir && !same_dir) {
      RETURN_IF_ERROR(agg_->PrivatizeAnode(txn, vc.slot_index, vc.vol, moving.vnode));
      ASSIGN_OR_RETURN(child, agg_->ReadAnode(vc.vol, moving.vnode));
      bool cch = false;
      RETURN_IF_ERROR(agg_->DirUpdateEntry(txn, child, "..", dst->vnode_, dst->uniq_,
                                           static_cast<uint8_t>(FileType::kDirectory), &cch));
      RETURN_IF_ERROR(agg_->WriteAnode(txn, vc.slot_index, vc.vol, moving.vnode, child));
      ASSIGN_OR_RETURN(sdir, agg_->ReadAnode(vc.vol, src->vnode_));
      sdir.nlink -= 1;
      RETURN_IF_ERROR(agg_->WriteAnode(txn, vc.slot_index, vc.vol, src->vnode_, sdir));
      ASSIGN_OR_RETURN(ddir, agg_->ReadAnode(vc.vol, dst->vnode_));
      ddir.nlink += 1;
      RETURN_IF_ERROR(agg_->WriteAnode(txn, vc.slot_index, vc.vol, dst->vnode_, ddir));
    }
    return Status::Ok();
  });
}

}  // namespace dfs
