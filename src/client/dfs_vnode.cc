// The client's vnode layer (Section 4.4): implements the Vnode/VFS interface
// in terms of the resource, cache, and directory layers.
#include <algorithm>
#include <cstring>
#include <optional>

#include "src/client/cache_manager.h"

namespace dfs {
namespace {

uint64_t BlockOf(uint64_t offset) { return offset / kBlockSize; }
uint64_t BlockEnd(uint64_t offset, size_t len) {
  return (offset + len + kBlockSize - 1) / kBlockSize;
}

// A data operation pays the cache pressure left behind before it starts. One
// that fetched into a disk store also pays its own once its cvnode locks are
// released, or a full slot store recycles slots the manager still lists. (On
// the memory store, evicting at the end of a streaming read makes it wait on
// a victim's lock behind a readahead install.)
class EvictOnExit {
 public:
  explicit EvictOnExit(CacheManager& cm) : cm_(cm) {}
  ~EvictOnExit() {
    if (armed) {
      cm_.MaybeEvict();
    }
  }
  EvictOnExit(const EvictOnExit&) = delete;
  EvictOnExit& operator=(const EvictOnExit&) = delete;

  bool armed = false;

 private:
  CacheManager& cm_;
};

}  // namespace

// --- DfsVfs ---

Result<VnodeRef> DfsVfs::Root() {
  {
    MutexLock lock(root_mu_);
    if (root_fid_.IsValid()) {
      return VnodeRef(std::make_shared<DfsVnode>(cm_, root_fid_));
    }
  }
  Writer w;
  w.PutU64(volume_id_);
  ASSIGN_OR_RETURN(WireMessage payload, cm_->CallVolume(volume_id_, kGetRoot, w));
  Reader r(payload);
  ASSIGN_OR_RETURN(Fid root_fid, ReadFid(r));
  ASSIGN_OR_RETURN(SyncInfo sync, ReadSyncInfo(r));
  auto cv = cm_->GetCVnode(root_fid);
  {
    OrderedLockGuard low(cv->low);
    cm_->MergeSyncLocked(*cv, sync);
  }
  {
    MutexLock lock(root_mu_);
    root_fid_ = root_fid;
  }
  return VnodeRef(std::make_shared<DfsVnode>(cm_, root_fid));
}

Result<VnodeRef> DfsVfs::VnodeByFid(const Fid& fid) {
  if (fid.volume != volume_id_) {
    return Status(ErrorCode::kStale, "FID volume mismatch");
  }
  return VnodeRef(std::make_shared<DfsVnode>(cm_, fid));
}

Status DfsVfs::Sync() { return cm_->SyncAll(); }

Result<VnodeRef> DfsVfs::ResolveMountPoint(std::string_view target) {
  std::string name(target.substr(kMountPointPrefix.size()));
  ASSIGN_OR_RETURN(VfsRef mounted, cm_->MountVolume(name));
  return mounted->Root();
}

Status DfsVfs::Rename(Vnode& src_dir, std::string_view src_name, Vnode& dst_dir,
                      std::string_view dst_name) {
  auto* src = dynamic_cast<DfsVnode*>(&src_dir);
  auto* dst = dynamic_cast<DfsVnode*>(&dst_dir);
  if (src == nullptr || dst == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "rename requires client vnodes");
  }
  auto cv_src = cm_->GetCVnode(src->fid_);
  auto cv_dst = cm_->GetCVnode(dst->fid_);
  // Same-level high locks: acquire in tag order.
  CacheManager::CVnode* first = cv_src.get();
  CacheManager::CVnode* second = (cv_src == cv_dst) ? nullptr : cv_dst.get();
  if (second != nullptr && second->high.tag() < first->high.tag()) {
    std::swap(first, second);
  }
  OrderedLockGuard h1(first->high);
  // Conditional second lock (cross-directory rename).
  // LOCK-ORDER(same-level): first/second are sorted by high.tag() above, so the
  // pair is always acquired in ascending tag order.
  MaybeLockGuard h2(second != nullptr ? &second->high : nullptr);

  Writer w;
  PutFid(w, src->fid_);
  w.PutString(src_name);
  PutFid(w, dst->fid_);
  w.PutString(dst_name);
  ASSIGN_OR_RETURN(WireMessage payload, cm_->CallVolume(volume_id_, kRename, w));
  Reader r(payload);
  ASSIGN_OR_RETURN(SyncInfo src_sync, ReadSyncInfo(r));
  ASSIGN_OR_RETURN(SyncInfo dst_sync, ReadSyncInfo(r));
  {
    OrderedLockGuard low(cv_src->low);
    cm_->MergeSyncLocked(*cv_src, src_sync);
    cv_src->lookup_cache.erase(std::string(src_name));
    cv_src->listing_valid = false;
  }
  if (cv_src != cv_dst) {
    OrderedLockGuard low(cv_dst->low);
    cm_->MergeSyncLocked(*cv_dst, dst_sync);
    cv_dst->lookup_cache.clear();
    cv_dst->listing_valid = false;
  } else {
    OrderedLockGuard low(cv_src->low);
    cv_src->lookup_cache.clear();
  }
  return Status::Ok();
}

// --- DfsVnode ---

Result<FileAttr> DfsVnode::GetAttr() {
  auto cv = cm_->GetCVnode(fid_);
  OrderedLockGuard high(cv->high);
  RETURN_IF_ERROR(cm_->EnsureStatus(*cv));
  OrderedLockGuard low(cv->low);
  return cv->attr;
}

Status DfsVnode::SetAttr(const AttrUpdate& update) {
  auto cv = cm_->GetCVnode(fid_);
  OrderedLockGuard high(cv->high);
  Writer w;
  PutFid(w, fid_);
  PutAttrUpdate(w, update);
  ASSIGN_OR_RETURN(WireMessage payload, cm_->CallVolume(fid_.volume, kStoreStatus, w));
  Reader r(payload);
  ASSIGN_OR_RETURN(SyncInfo sync, ReadSyncInfo(r));
  OrderedLockGuard low(cv->low);
  cm_->MergeSyncLocked(*cv, sync);
  return Status::Ok();
}

Result<size_t> DfsVnode::Read(uint64_t offset, std::span<uint8_t> out) {
  ASSIGN_OR_RETURN(std::vector<BufferSlice> slices, ReadSlices(offset, out.size()));
  // The span interface's one mandatory copy-out. Slices are immutable
  // regions, so it runs with no cvnode lock held.
  size_t n = 0;
  for (const BufferSlice& s : slices) {
    std::memcpy(out.data() + n, s.data(), s.size());
    n += s.size();
  }
  CacheManager::Count(cm_->hits_.bytes_copied, n);
  return n;
}

Result<std::vector<BufferSlice>> DfsVnode::ReadSlices(uint64_t offset, size_t len) {
  auto cv = cm_->GetCVnode(fid_);
  cm_->MaybeEvict();  // before any cvnode lock: eviction locks victims itself
  EvictOnExit evict(*cm_);
  OrderedLockGuard high(cv->high);

  // Serves the range from the cache when the tokens and every block are
  // present. The blocks come back as sub-slices of the store's shared
  // regions: zero copies over a sharing store. The slices stay valid past
  // eviction/overwrite — regions are immutable and writers publish new ones.
  auto try_local_locked = [&]() -> Result<std::vector<BufferSlice>> {
    cv->low.AssertHeld();  // callers hold it; lambdas are analyzed alone
    ByteRange want{offset, offset + len};
    if (!cv->attr_valid ||
        !cm_->HasTokenLocked(*cv, kTokenStatusRead | kTokenDataRead, want)) {
      return Status(ErrorCode::kNotFound, "tokens missing");
    }
    if (offset >= cv->attr.size) {
      return std::vector<BufferSlice>{};
    }
    size_t n = static_cast<size_t>(std::min<uint64_t>(len, cv->attr.size - offset));
    for (uint64_t b = BlockOf(offset); b < BlockEnd(offset, n); ++b) {
      if (cv->cached_blocks.count(b) == 0) {
        return Status(ErrorCode::kNotFound, "block missing");
      }
    }
    std::vector<BufferSlice> slices;
    bool from_prefetch = false;
    for (uint64_t b = BlockOf(offset); b < BlockEnd(offset, n); ++b) {
      uint64_t bstart = b * kBlockSize;
      uint64_t from = std::max(offset, bstart);
      uint64_t to = std::min(offset + n, bstart + kBlockSize);
      ASSIGN_OR_RETURN(BufferSlice block,
                       cm_->store_->GetSlice(fid_, b, static_cast<size_t>(to - bstart)));
      slices.push_back(
          block.Sub(static_cast<size_t>(from - bstart), static_cast<size_t>(to - from)));
      from_prefetch = cv->prefetched_blocks.erase(b) != 0 || from_prefetch;
    }
    if (from_prefetch) {
      MutexLock lock(cm_->mu_);
      cm_->stats_.prefetch_hits += 1;
    }
    if (!cm_->store_->SharesSlices()) {
      CacheManager::Count(cm_->hits_.bytes_copied, n);  // GetSlice copied out of the store
    }
    cv->last_read_end = offset + n;
    return slices;
  };

  bool sequential;
  // Feeds the readahead stream with a read that returned `slices`.
  auto served = [&](const std::vector<BufferSlice>& slices) {
    size_t got = 0;
    for (const BufferSlice& s : slices) {
      got += s.size();
    }
    cm_->MaybeStartPrefetch(cv, offset, std::max<size_t>(got, 1), sequential);
  };
  {
    Result<std::vector<BufferSlice>> local = Status(ErrorCode::kNotFound, "not tried");
    {
      OrderedLockGuard low(cv->low);
      sequential = offset == cv->last_read_end && offset != 0;
      local = try_local_locked();
    }
    if (local.ok()) {
      CacheManager::Count(cm_->hits_.data_cache_hits);
      served(*local);
      return local;
    }
  }
  CacheManager::Count(cm_->hits_.data_cache_misses);
  if (sequential && cm_->prefetcher_->enabled()) {
    // A readahead window on the wire may already cover these blocks: wait
    // for it instead of fetching them a second time, and fetch below only
    // if some are still missing once it has landed (cancelled, evicted, or
    // past the window). The next windows are claimed first, so the pipe
    // refills during the wait.
    cm_->MaybeStartPrefetch(cv, offset, std::max<size_t>(len, 1), sequential);
    if (cm_->prefetcher_->WaitForWindows(fid_, BlockOf(offset),
                                         BlockEnd(offset, std::max<size_t>(len, 1)))) {
      Result<std::vector<BufferSlice>> local = Status(ErrorCode::kNotFound, "not tried");
      {
        OrderedLockGuard low(cv->low);
        local = try_local_locked();
      }
      if (local.ok()) {
        served(*local);
        return local;
      }
    }
  }
  // Sequential reads fetch ahead. With the background prefetcher off, the
  // synchronous path inflates the foreground fetch (and its token range) past
  // the asked-for bytes so the next reads are local; with it on, the fetch
  // stays exact and the readahead runs off the critical path.
  size_t fetch_len = std::max<size_t>(len, 1);
  if (!cm_->prefetcher_->enabled() && cm_->options_.readahead_blocks > 0 && sequential) {
    fetch_len += static_cast<size_t>(cm_->options_.readahead_blocks) * kBlockSize;
  }
  // Fetch and take the slices *while processing the reply*: the grant is
  // serialized before any queued revocation (Section 6.3), so the read
  // completes under it even when conflicting writers are hammering the file.
  Result<std::vector<BufferSlice>> applied =
      Status(ErrorCode::kConflict, "read raced with revocations");
  evict.armed = cm_->disk_store_ != nullptr;
  for (int attempt = 0; attempt < 8 && !applied.ok(); ++attempt) {
    // A retry asks for a fresh data-read grant rather than matching held
    // tokens: the matched token of a lost attempt was revoked mid-flight, and
    // only a fresh grant is serialized ahead of the revocations against it.
    Status fetch = cm_->FetchAndInstall(*cv, offset, fetch_len,
                                        kTokenDataRead | kTokenStatusRead,
                                        [&] { applied = try_local_locked(); },
                                        /*token_only=*/false, /*match_data=*/attempt == 0);
    if (!fetch.ok()) {
      // A timed-out grant lost a revocation cycle (our own in-flight fetch
      // deferred the revocation the peer's grant was waiting on, or vice
      // versa); the fetch's completion just drained our queue, so retry.
      if (fetch.code() == ErrorCode::kTimedOut && attempt + 1 < 8) {
        continue;
      }
      return fetch;
    }
  }
  if (applied.ok()) {
    served(*applied);
  }
  return applied;
}

Result<size_t> DfsVnode::Write(uint64_t offset, std::span<const uint8_t> data) {
  auto cv = cm_->GetCVnode(fid_);
  cm_->MaybeEvict();  // before any cvnode lock: eviction locks victims itself
  EvictOnExit evict(*cm_);
  OrderedLockGuard high(cv->high);
  ByteRange want{BlockOf(offset) * kBlockSize, BlockEnd(offset, data.size()) * kBlockSize};

  // A write that stays inside the file needs no status-write token: the size
  // does not change, and keeping status-write out of the request lets
  // disjoint byte-range writers coexist without token ping-pong (Section 5.4).
  // Validate status with a read token first so "extends" is decided against
  // fresh attributes rather than conservatively.
  RETURN_IF_ERROR(cm_->EnsureStatus(*cv));
  uint32_t write_tokens = kTokenDataRead | kTokenDataWrite | kTokenStatusRead;
  {
    OrderedLockGuard low(cv->low);
    bool extends = !cv->attr_valid || offset + data.size() > cv->attr.size;
    if (extends) {
      write_tokens |= kTokenStatusWrite;
    }
  }

  // Requires cv->low to be held. Applies the write if tokens and edge blocks
  // are in place; returns kWouldBlock when they are not.
  auto apply_locked = [&]() -> Result<size_t> {
    cv->low.AssertHeld();  // callers hold it; lambdas are analyzed alone
    bool ready = cv->attr_valid && cm_->HasTokenLocked(*cv, write_tokens, want);
    if (ready) {
      // Edge blocks that exist on the server must be cached before a partial
      // overwrite merges into them.
      for (uint64_t b : {BlockOf(offset), BlockEnd(offset, data.size()) - 1}) {
        uint64_t bstart = b * kBlockSize;
        bool partial = (b == BlockOf(offset) && offset % kBlockSize != 0) ||
                       (b == BlockEnd(offset, data.size()) - 1 &&
                        (offset + data.size()) % kBlockSize != 0);
        if (partial && bstart < cv->attr.size && cv->cached_blocks.count(b) == 0) {
          ready = false;
        }
      }
    }
    if (!ready) {
      return Status(ErrorCode::kWouldBlock, "tokens or edge blocks missing");
    }
    // Apply locally — no RPC, no server notification: that is exactly what
    // the write data + status tokens entitle us to (Section 5.2). The size
    // extension lands first so a persistent store records each block against
    // the file size the write produces.
    if (offset + data.size() > cv->attr.size) {
      // Extension: we hold (and needed) the status-write token.
      cv->attr.size = offset + data.size();
      cv->attr.mtime += 1;
      cv->attr_dirty = true;
    }
    // Each block is a fresh region (slices handed out earlier stay intact);
    // only a partially covered, cached block starts from its old bytes.
    for (uint64_t b = BlockOf(offset); b < BlockEnd(offset, data.size()); ++b) {
      uint64_t bstart = b * kBlockSize;
      uint64_t copy_from = std::max(offset, bstart);
      uint64_t copy_to = std::min(offset + data.size(), bstart + kBlockSize);
      std::vector<uint8_t> block(kBlockSize, 0);
      if (copy_to - copy_from < kBlockSize && cv->cached_blocks.count(b) != 0) {
        ASSIGN_OR_RETURN(BufferSlice old, cm_->store_->GetSlice(fid_, b, kBlockSize));
        std::memcpy(block.data(), old.data(), kBlockSize);
      }
      std::memcpy(block.data() + (copy_from - bstart), data.data() + (copy_from - offset),
                  copy_to - copy_from);
      RETURN_IF_ERROR(cm_->StorePutLocked(*cv, b, BufferSlice::TakeOwnership(std::move(block)),
                                          /*dirty=*/true));
      cv->cached_blocks.insert(b);
      cv->dirty_blocks.insert(b);
    }
    return data.size();
  };

  // True when a partial edge block exists server-side but is not cached — the
  // only case where the write actually needs the server's bytes. A whole-range
  // overwrite (block-aligned, or edges past EOF / already cached) can take the
  // grant token-only: the fetched data would be clobbered anyway.
  auto needs_edge_fetch = [&]() -> bool {
    cv->low.AssertHeld();
    if (!cv->attr_valid) {
      return true;  // unknown size: be conservative, fetch
    }
    for (uint64_t b : {BlockOf(offset), BlockEnd(offset, data.size()) - 1}) {
      uint64_t bstart = b * kBlockSize;
      bool partial = (b == BlockOf(offset) && offset % kBlockSize != 0) ||
                     (b == BlockEnd(offset, data.size()) - 1 &&
                      (offset + data.size()) % kBlockSize != 0);
      if (partial && bstart < cv->attr.size && cv->cached_blocks.count(b) == 0) {
        return true;
      }
    }
    return false;
  };

  {
    OrderedLockGuard low(cv->low);
    auto fast = apply_locked();
    if (fast.ok()) {
      return fast;
    }
  }
  // Fetch tokens and apply the write while processing the grant reply, ahead
  // of any queued revocations (Section 6.3): the grant was serialized before
  // them at the server, so the write legitimately lands in between.
  Result<size_t> applied = Status(ErrorCode::kConflict, "write raced with revocations");
  evict.armed = cm_->disk_store_ != nullptr;
  for (int attempt = 0; attempt < 8 && !applied.ok(); ++attempt) {
    // Only a first attempt may go token-only. The choice races with
    // revocations: one that lands mid-fetch can drop the cached edge blocks
    // the choice relied on, and the write then finds them missing
    // (kWouldBlock). A retry fetches the data, so the reply itself installs
    // the edge blocks before the queued revocations of its grant apply.
    bool token_only = false;
    if (attempt == 0) {
      OrderedLockGuard low(cv->low);
      token_only = !needs_edge_fetch();
    }
    // Likewise only a first attempt matches held data tokens (ReadSlices).
    Status fetch = cm_->FetchAndInstall(*cv, offset, std::max<size_t>(data.size(), 1),
                                        write_tokens, [&] { applied = apply_locked(); },
                                        token_only, /*match_data=*/attempt == 0);
    if (!fetch.ok()) {
      // Same retry rule as ReadSlices: a timed-out grant means we lost a
      // deferred-revocation cycle, and completing this fetch drained our queue.
      if (fetch.code() == ErrorCode::kTimedOut && attempt + 1 < 8) {
        continue;
      }
      return fetch;
    }
  }
  return applied;
}

Status DfsVnode::Truncate(uint64_t new_size) {
  auto cv = cm_->GetCVnode(fid_);
  OrderedLockGuard high(cv->high);
  Writer w;
  PutFid(w, fid_);
  w.PutU64(new_size);
  ASSIGN_OR_RETURN(WireMessage payload, cm_->CallVolume(fid_.volume, kTruncate, w));
  Reader r(payload);
  ASSIGN_OR_RETURN(SyncInfo sync, ReadSyncInfo(r));
  OrderedLockGuard low(cv->low);
  cm_->MergeSyncLocked(*cv, sync);
  // Even when local dirty state blocks the merge, the truncation is ours:
  // apply the new size to the local attributes, and force the journal record
  // current — a stale persisted size must not survive a truncate.
  cv->attr.size = new_size;
  cm_->JournalAttrLocked(*cv, /*force=*/true);
  // Drop cached blocks at and beyond the new end (including the boundary
  // block, whose tail changed server-side).
  uint64_t boundary = new_size / kBlockSize;
  for (auto it = cv->cached_blocks.begin(); it != cv->cached_blocks.end();) {
    if (*it >= boundary) {
      cm_->NotePrefetchDropLocked(*cv, *it);
      cm_->store_->Erase(fid_, *it);
      cm_->RemoveLru(fid_, *it);
      cv->dirty_blocks.erase(*it);
      it = cv->cached_blocks.erase(it);
    } else {
      ++it;
    }
  }
  // Surviving entries below the boundary still carry the pre-truncate
  // file_size on the cache medium; clamp them so a warm reboot cannot
  // re-extend the file from stale persisted metadata.
  cm_->PersistClampSizeLocked(*cv, new_size);
  return Status::Ok();
}

Result<VnodeRef> DfsVnode::Lookup(std::string_view name) {
  auto cv = cm_->GetCVnode(fid_);
  OrderedLockGuard high(cv->high);
  std::string key(name);
  {
    OrderedLockGuard low(cv->low);
    auto it = cv->lookup_cache.find(key);
    if (it != cv->lookup_cache.end() &&
        cm_->HasTokenLocked(*cv, kTokenStatusRead, ByteRange::All())) {
      CacheManager::Count(cm_->hits_.lookup_cache_hits);
      if (!it->second.has_value()) {
        return Status(ErrorCode::kNotFound, "no such entry (cached): " + key);
      }
      return VnodeRef(std::make_shared<DfsVnode>(cm_, it->second->fid));
    }
  }
  // Hold a status-read token on the directory so the cached result stays
  // valid until someone changes the directory (which revokes the token).
  RETURN_IF_ERROR(cm_->EnsureStatus(*cv));
  Writer w;
  PutFid(w, fid_);
  w.PutString(name);
  auto payload = cm_->CallVolume(fid_.volume, kLookup, w);
  if (payload.code() == ErrorCode::kNotFound) {
    // Cache the miss: repeated lookups of absent names (PATH searches, etc.)
    // stay local while the directory's status-read token is held.
    OrderedLockGuard low(cv->low);
    if (cm_->HasTokenLocked(*cv, kTokenStatusRead, ByteRange::All())) {
      cv->lookup_cache[key] = std::nullopt;
    }
    return payload.status();
  }
  RETURN_IF_ERROR(payload.status());
  Reader r(*payload);
  ASSIGN_OR_RETURN(FileAttr child_attr, ReadAttr(r));
  ASSIGN_OR_RETURN(SyncInfo dir_sync, ReadSyncInfo(r));
  {
    OrderedLockGuard low(cv->low);
    cm_->MergeSyncLocked(*cv, dir_sync);
    cv->lookup_cache[key] = child_attr;
  }
  return VnodeRef(std::make_shared<DfsVnode>(cm_, child_attr.fid));
}

Result<VnodeRef> DfsVnode::Create(std::string_view name, FileType type, uint32_t mode,
                                  const Cred& cred) {
  (void)cred;  // the server derives credentials from the connection principal
  auto cv = cm_->GetCVnode(fid_);
  OrderedLockGuard high(cv->high);
  Writer w;
  PutFid(w, fid_);
  w.PutString(name);
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU32(mode);
  ASSIGN_OR_RETURN(WireMessage payload, cm_->CallVolume(fid_.volume, kCreate, w));
  Reader r(payload);
  ASSIGN_OR_RETURN(FileAttr child_attr, ReadAttr(r));
  ASSIGN_OR_RETURN(SyncInfo dir_sync, ReadSyncInfo(r));
  {
    OrderedLockGuard low(cv->low);
    cm_->MergeSyncLocked(*cv, dir_sync);
    cv->lookup_cache[std::string(name)] = child_attr;
    cv->listing_valid = false;
  }
  return VnodeRef(std::make_shared<DfsVnode>(cm_, child_attr.fid));
}

Result<VnodeRef> DfsVnode::CreateSymlink(std::string_view name, std::string_view target,
                                         const Cred& cred) {
  (void)cred;
  auto cv = cm_->GetCVnode(fid_);
  OrderedLockGuard high(cv->high);
  Writer w;
  PutFid(w, fid_);
  w.PutString(name);
  w.PutString(target);
  ASSIGN_OR_RETURN(WireMessage payload, cm_->CallVolume(fid_.volume, kSymlink, w));
  Reader r(payload);
  ASSIGN_OR_RETURN(FileAttr child_attr, ReadAttr(r));
  ASSIGN_OR_RETURN(SyncInfo dir_sync, ReadSyncInfo(r));
  {
    OrderedLockGuard low(cv->low);
    cm_->MergeSyncLocked(*cv, dir_sync);
    cv->lookup_cache[std::string(name)] = child_attr;
    cv->listing_valid = false;
  }
  return VnodeRef(std::make_shared<DfsVnode>(cm_, child_attr.fid));
}

Status DfsVnode::Link(std::string_view name, Vnode& target) {
  auto cv = cm_->GetCVnode(fid_);
  OrderedLockGuard high(cv->high);
  Writer w;
  PutFid(w, fid_);
  w.PutString(name);
  PutFid(w, target.fid());
  ASSIGN_OR_RETURN(WireMessage payload, cm_->CallVolume(fid_.volume, kLink, w));
  Reader r(payload);
  ASSIGN_OR_RETURN(SyncInfo dir_sync, ReadSyncInfo(r));
  OrderedLockGuard low(cv->low);
  cm_->MergeSyncLocked(*cv, dir_sync);
  cv->listing_valid = false;
  cv->lookup_cache.clear();
  return Status::Ok();
}

Status DfsVnode::Unlink(std::string_view name) {
  auto cv = cm_->GetCVnode(fid_);
  OrderedLockGuard high(cv->high);
  Writer w;
  PutFid(w, fid_);
  w.PutString(name);
  ASSIGN_OR_RETURN(WireMessage payload, cm_->CallVolume(fid_.volume, kRemove, w));
  Reader r(payload);
  ASSIGN_OR_RETURN(SyncInfo dir_sync, ReadSyncInfo(r));
  OrderedLockGuard low(cv->low);
  cm_->MergeSyncLocked(*cv, dir_sync);
  cv->lookup_cache.erase(std::string(name));
  cv->listing_valid = false;
  return Status::Ok();
}

Status DfsVnode::Rmdir(std::string_view name) {
  auto cv = cm_->GetCVnode(fid_);
  OrderedLockGuard high(cv->high);
  Writer w;
  PutFid(w, fid_);
  w.PutString(name);
  ASSIGN_OR_RETURN(WireMessage payload, cm_->CallVolume(fid_.volume, kRemoveDir, w));
  Reader r(payload);
  ASSIGN_OR_RETURN(SyncInfo dir_sync, ReadSyncInfo(r));
  OrderedLockGuard low(cv->low);
  cm_->MergeSyncLocked(*cv, dir_sync);
  cv->lookup_cache.erase(std::string(name));
  cv->listing_valid = false;
  return Status::Ok();
}

Result<std::vector<DirEntry>> DfsVnode::ReadDir() {
  auto cv = cm_->GetCVnode(fid_);
  OrderedLockGuard high(cv->high);
  {
    OrderedLockGuard low(cv->low);
    if (cv->listing_valid && cm_->HasTokenLocked(*cv, kTokenStatusRead, ByteRange::All())) {
      CacheManager::Count(cm_->hits_.lookup_cache_hits);
      return cv->listing;
    }
  }
  RETURN_IF_ERROR(cm_->EnsureStatus(*cv));
  Writer w;
  PutFid(w, fid_);
  ASSIGN_OR_RETURN(WireMessage payload, cm_->CallVolume(fid_.volume, kReadDir, w));
  Reader r(payload);
  ASSIGN_OR_RETURN(uint32_t n, r.ReadU32());
  std::vector<DirEntry> entries;
  for (uint32_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(DirEntry e, ReadDirEntry(r));
    entries.push_back(std::move(e));
  }
  ASSIGN_OR_RETURN(SyncInfo sync, ReadSyncInfo(r));
  OrderedLockGuard low(cv->low);
  cm_->MergeSyncLocked(*cv, sync);
  cv->listing = entries;
  cv->listing_valid = true;
  return entries;
}

Result<std::string> DfsVnode::ReadSymlink() {
  Writer w;
  PutFid(w, fid_);
  ASSIGN_OR_RETURN(WireMessage payload, cm_->CallVolume(fid_.volume, kReadlink, w));
  Reader r(payload);
  return r.ReadString();
}

Result<Acl> DfsVnode::GetAcl() {
  Writer w;
  PutFid(w, fid_);
  ASSIGN_OR_RETURN(WireMessage payload, cm_->CallVolume(fid_.volume, kGetAcl, w));
  Reader r(payload);
  return Acl::Deserialize(r);
}

Status DfsVnode::SetAcl(const Acl& acl) {
  auto cv = cm_->GetCVnode(fid_);
  OrderedLockGuard high(cv->high);
  Writer w;
  PutFid(w, fid_);
  acl.Serialize(w);
  ASSIGN_OR_RETURN(WireMessage payload, cm_->CallVolume(fid_.volume, kSetAcl, w));
  Reader r(payload);
  ASSIGN_OR_RETURN(SyncInfo sync, ReadSyncInfo(r));
  OrderedLockGuard low(cv->low);
  cm_->MergeSyncLocked(*cv, sync);
  return Status::Ok();
}

}  // namespace dfs
