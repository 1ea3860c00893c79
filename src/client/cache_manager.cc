#include "src/client/cache_manager.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <numeric>
#include <thread>

#include "src/vfs/path.h"

namespace dfs {
namespace {

uint64_t BlockOf(uint64_t offset) { return offset / kBlockSize; }
uint64_t BlockEnd(uint64_t offset, size_t len) {
  return (offset + len + kBlockSize - 1) / kBlockSize;
}

// Status and open tokens are whole-file guarantees; only data and lock
// tokens carry meaningful byte ranges (Section 5.2).
constexpr uint32_t kRangeless =
    kTokenStatusRead | kTokenStatusWrite | kTokenOpenMask | kTokenWholeVolume;

// One RPC's share of a bulk transfer.
struct Chunk {
  uint64_t off;
  uint64_t len;
};

// Cuts the `len` bytes at `off` into chunks of `limit` bytes rounded down to
// whole blocks (at least one block). A transfer that fits `limit`, or any
// transfer when `limit` is 0, is one chunk.
std::vector<Chunk> ChunksOf(uint64_t off, uint64_t len, uint64_t limit) {
  if (limit == 0 || len <= limit || len <= kBlockSize) {
    return {Chunk{off, len}};
  }
  uint64_t step = std::max<uint64_t>(kBlockSize, limit / kBlockSize * kBlockSize);
  std::vector<Chunk> chunks;
  for (uint64_t pos = 0; pos < len; pos += step) {
    chunks.push_back({off + pos, std::min(step, len - pos)});
  }
  return chunks;
}

// The kFetchData request for `len` bytes at `off`, asking for `want` tokens
// over `trange` (0 = a tokenless data chunk).
Writer FetchRequest(const Fid& fid, uint64_t off, uint64_t len, uint32_t want,
                    const ByteRange& trange, bool token_only) {
  Writer w;
  PutFid(w, fid);
  w.PutU64(off);
  w.PutU32(static_cast<uint32_t>(len));
  w.PutU32(want);
  w.PutU64(trange.start);
  w.PutU64(trange.end);
  if (token_only) {
    w.PutU8(kFetchFlagTokenOnly);
  }
  return w;
}

// The kStoreData / kRevocationStore body: one slice per block, contiguous at
// `offset`, riding out-of-band. `force_log` asks the server to force the
// volume's log before it answers (kStoreFlagForceLog).
Writer StoreBody(const Fid& fid, uint64_t offset, std::span<const BufferSlice> parts,
                 bool force_log = false) {
  Writer w;
  PutFid(w, fid);
  w.PutU64(offset);
  w.PutU32(static_cast<uint32_t>(parts.size()));
  for (const BufferSlice& part : parts) {
    w.PutSlice(part);
  }
  if (force_log) {
    w.PutU8(kStoreFlagForceLog);
  }
  return w;
}

uint32_t OpenTokenFor(OpenMode mode) {
  switch (mode) {
    case OpenMode::kRead:
      return kTokenOpenRead;
    case OpenMode::kWrite:
      return kTokenOpenWrite;
    case OpenMode::kExecute:
      return kTokenOpenExecute;
    case OpenMode::kSharedRead:
      return kTokenOpenShared;
    case OpenMode::kExclusiveWrite:
      return kTokenOpenExclusive;
  }
  return kTokenOpenRead;
}

}  // namespace

// --- OpenHandle ---

OpenHandle& OpenHandle::operator=(OpenHandle&& o) noexcept {
  if (this != &o) {
    (void)Close();
    cm_ = o.cm_;
    fid_ = o.fid_;
    token_ = o.token_;
    types_ = o.types_;
    o.cm_ = nullptr;
  }
  return *this;
}

OpenHandle::~OpenHandle() { (void)Close(); }

Status OpenHandle::Close() {
  if (cm_ == nullptr) {
    return Status::Ok();
  }
  CacheManager* cm = cm_;
  cm_ = nullptr;
  auto cv = cm->GetCVnode(fid_);
  {
    OrderedLockGuard low(cv->low);
    cv->open_count -= 1;
    // Close cancels background readahead for the file: windows in flight
    // lose the generation race and never install.
    cv->prefetch_gen += 1;
    for (auto it = cv->tokens.begin(); it != cv->tokens.end(); ++it) {
      if (it->id == token_) {
        cm->JournalEraseLocked(*cv, *it);
        cv->tokens.erase(it);
        break;
      }
    }
  }
  cm->prefetcher_->Forget(fid_);
  return cm->ReturnToken(fid_, token_, types_);
}

// --- CacheManager ---

CacheManager::CacheManager(Network& network, std::vector<NodeId> vldb_nodes, Ticket ticket,
                           Options options)
    : network_(network),
      vldb_(network, options.node, std::move(vldb_nodes)),
      ticket_(std::move(ticket)),
      options_(options) {
  // A caller-owned disk outlives this client, so its store logs its index
  // and journals tokens; otherwise a non-diskless client caches on a private
  // disk that dies with it. An open failure (undersized or corrupt medium)
  // falls through to the next choice: the client runs, just not persistently.
  if (options_.persistent_cache_disk != nullptr) {
    auto pstore = PersistentCacheStore::Open(options_.persistent_cache_disk);
    if (pstore.ok()) {
      persist_ = pstore->get();
      disk_store_ = persist_;
      store_ = std::move(*pstore);
    }
  }
  if (store_ == nullptr && !options_.diskless) {
    auto pstore = PersistentCacheStore::CreatePrivate(options_.cache_disk_blocks);
    if (pstore.ok()) {
      disk_store_ = pstore->get();
      store_ = std::move(*pstore);
    }
  }
  if (store_ == nullptr) {
    store_ = std::make_unique<MemoryCacheStore>();
  }
  cache_blocks_ = disk_store_ == nullptr
                      ? options_.max_cached_blocks
                      : std::min<uint64_t>(options_.max_cached_blocks, disk_store_->data_slots());
  prefetcher_ = std::make_unique<Prefetcher>(Prefetcher::Options{
      options_.prefetch_threads, options_.readahead_min_blocks, options_.readahead_max_blocks,
      cache_blocks_});
  (void)network_.RegisterNode(options_.node, this, options_.rpc);
  if (options_.keepalive_interval_ms > 0) {
    keepalive_ = std::thread([this] { KeepAliveLoop(); });
  }
}

CacheManager::~CacheManager() {
  // Stop the daemons before dropping off the network: a pass in progress may
  // still be issuing RPCs through it. The prefetch pool goes first — its
  // tasks touch the stats, the store and the network, and member destruction
  // order would otherwise tear those down before the pool joins. Join via
  // Shutdown() while `prefetcher_` still points at the object: reset() nulls
  // the member before ~Prefetcher runs, and an in-flight window task reads
  // the prefetcher back through `prefetcher_` to release its claim.
  if (prefetcher_ != nullptr) {
    prefetcher_->Shutdown();
  }
  prefetcher_.reset();
  if (keepalive_.joinable()) {
    {
      MutexLock lock(keepalive_mu_);
      keepalive_shutdown_ = true;
    }
    keepalive_cv_.NotifyAll();
    keepalive_.join();
  }
  network_.UnregisterNode(options_.node);
}

CacheManager::CVnodeRef CacheManager::GetCVnode(const Fid& fid) {
  MutexLock lock(mu_);
  auto it = cvnodes_.find(fid);
  if (it == cvnodes_.end()) {
    it = cvnodes_.emplace(fid, std::make_shared<CVnode>(fid, next_tag_++)).first;
  }
  return it->second;
}

CacheManager::Stats CacheManager::stats() const {
  MutexLock lock(mu_);
  Stats s = stats_;
  s.inflight_highwater = inflight_highwater_.load(std::memory_order_relaxed);
  s.attr_cache_hits = hits_.attr_cache_hits.load(std::memory_order_relaxed);
  s.lookup_cache_hits = hits_.lookup_cache_hits.load(std::memory_order_relaxed);
  s.data_cache_hits = hits_.data_cache_hits.load(std::memory_order_relaxed);
  s.data_cache_misses = hits_.data_cache_misses.load(std::memory_order_relaxed);
  s.bytes_copied = hits_.bytes_copied.load(std::memory_order_relaxed);
  return s;
}

int CacheManager::RpcsInFlight(const Fid& fid) {
  CVnodeRef cv = GetCVnode(fid);
  OrderedLockGuard low(cv->low);
  return cv->rpc_in_flight;
}

// --- Resource layer ---

Result<NodeId> CacheManager::ServerForVolume(uint64_t volume_id, bool refresh) {
  if (refresh) {
    vldb_.InvalidateCache(volume_id);
  }
  ASSIGN_OR_RETURN(VolumeLocation loc, vldb_.LookupById(volume_id));
  return loc.server;
}

Status CacheManager::EnsureConnected(NodeId server) {
  {
    MutexLock lock(mu_);
    if (connected_.count(server) != 0) {
      return Status::Ok();
    }
  }
  Writer w;
  ticket_.Serialize(w);
  ASSIGN_OR_RETURN(
      WireMessage payload,
      UnwrapReply(network_.Call(options_.node, server, kConnect, w.data(), ticket_.principal)));
  // Reply: principal string, then the server's incarnation epoch (appended
  // to the wire format; tolerate its absence so old-format replies parse).
  Reader r(payload);
  uint64_t epoch = 0;
  if (r.ReadString().ok() && r.Remaining() >= sizeof(uint64_t)) {
    auto e = r.ReadU64();
    if (e.ok()) {
      epoch = *e;
    }
  }
  if (network_.clock() != nullptr) {
    last_contact_ns_.store(network_.clock()->Now(), std::memory_order_relaxed);
  }
  MutexLock lock(mu_);
  connected_.insert(server);
  if (epoch != 0) {
    server_epochs_[server] = epoch;
  }
  return Status::Ok();
}

uint64_t CacheManager::EpochFor(NodeId server) {
  MutexLock lock(mu_);
  auto it = server_epochs_.find(server);
  return it == server_epochs_.end() ? 0 : it->second;
}

Result<NodeId> CacheManager::RouteVolume(uint64_t volume_id, bool refresh,
                                         bool allow_recovery) {
  ASSIGN_OR_RETURN(NodeId server, ServerForVolume(volume_id, refresh));
  RETURN_IF_ERROR(EnsureConnected(server));
  // The VLDB entry carries the serving server's epoch. If it is ahead of the
  // one we learned at connect time, the server restarted since — reassert
  // proactively instead of eating a kStaleEpoch bounce.
  if (allow_recovery) {
    auto loc = vldb_.Peek(volume_id);
    uint64_t known = EpochFor(server);
    if (loc.has_value() && loc->epoch != 0 && known != 0 && loc->epoch > known) {
      (void)HandleStaleEpoch(server, nullptr);
    }
  }
  return server;
}

bool CacheManager::CallVolumeRetries(ErrorCode code) {
  return code == ErrorCode::kBusy || code == ErrorCode::kUnavailable ||
         code == ErrorCode::kAuthFailed || code == ErrorCode::kStaleEpoch ||
         code == ErrorCode::kRecovering;
}

Result<WireMessage> CacheManager::CallVolume(uint64_t volume_id, uint32_t proc,
                                             const Writer& w, const Fid* fid,
                                             bool allow_recovery, FirstAnswer* first) {
  Status last = Status::Ok();
  uint32_t backoff_ms = 1;  // doubles per kRecovering answer, capped at 16
  for (int attempt = 0; attempt < 100; ++attempt) {
    bool answered = attempt == 0 && first != nullptr;
    Result<NodeId> server =
        answered ? first->server : RouteVolume(volume_id, attempt > 0, allow_recovery);
    if (!server.ok()) {
      last = server.status();
    } else {
      // Ship the full message (head + any scatter-gather segments); the
      // Writer outlives the retry loop, so each attempt re-sends a cheap
      // copy that shares the segment regions.
      auto payload = answered ? std::move(first->reply)
                              : UnwrapReply(network_.Call(options_.node, *server, proc,
                                                          w.Message(), ticket_.principal,
                                                          EpochFor(*server)));
      if (payload.ok()) {
        if (network_.clock() != nullptr) {
          last_contact_ns_.store(network_.clock()->Now(), std::memory_order_relaxed);
        }
        return payload;
      }
      last = payload.status();
      ErrorCode code = last.code();
      if (code == ErrorCode::kAuthFailed) {
        // A restarted server forgot our kConnect registration; reconnect
        // and retry (the host module is rebuilt on the fly).
        MutexLock lock(mu_);
        connected_.erase(*server);
      }
      if (code == ErrorCode::kStaleEpoch) {
        // The server restarted under us. Reconnect, learn the new epoch,
        // and reassert every token we hold from it before retrying the
        // call — otherwise the retry runs tokenless against a server that
        // may grant conflicts to other clients first.
        {
          MutexLock lock(mu_);
          stats_.stale_epoch_retries += 1;
        }
        if (!allow_recovery) {
          // Holder of a cvnode low lock: reasserting here would relock it.
          // Drop the stale connection and let a foreground path recover.
          MutexLock lock(mu_);
          connected_.erase(*server);
          return last;
        }
        std::unordered_set<Fid, FidHash> invalidated;
        Status reassert = HandleStaleEpoch(*server, &invalidated);
        if (!reassert.ok()) {
          last = reassert;
        } else if (fid != nullptr && invalidated.count(*fid) != 0) {
          // The very file this call is about lost its tokens in the
          // restart; its dirty data was discarded. Retrying (a store,
          // say) would push data we no longer have the right to write.
          return Status(ErrorCode::kIoError,
                        "write token lost in server restart; dirty data discarded");
        }
        continue;  // retry immediately with the new epoch
      }
      if (code == ErrorCode::kRecovering) {
        // Post-restart grace period: the server is waiting for survivors
        // to reassert. Back off (capped exponential) and retry; our own
        // reassertion has already been sent by the kStaleEpoch path.
        {
          MutexLock lock(mu_);
          stats_.recovering_retries += 1;
        }
        if (!allow_recovery) {
          return last;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
        backoff_ms = std::min<uint32_t>(backoff_ms * 2, 16);
        continue;
      }
      if (!CallVolumeRetries(code)) {
        return last;
      }
    }
    {
      MutexLock lock(mu_);
      stats_.location_retries += 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return last;
}

Status CacheManager::HandleStaleEpoch(NodeId server,
                                      std::unordered_set<Fid, FidHash>* invalidated) {
  // A second restart can race the reassertion itself (the batch comes back
  // kStaleEpoch again); loop a few times before giving up.
  for (int round = 0; round < 3; ++round) {
    {
      MutexLock lock(mu_);
      connected_.erase(server);
    }
    RETURN_IF_ERROR(EnsureConnected(server));  // learns the new epoch
    uint64_t epoch = EpochFor(server);

    // Snapshot the cvnodes, then filter to files this server owns. The
    // volume lookup takes no cvnode locks.
    std::vector<CVnodeRef> cvs;
    {
      MutexLock lock(mu_);
      cvs.reserve(cvnodes_.size());
      for (auto& [f, cv] : cvnodes_) {
        cvs.push_back(cv);
      }
    }
    std::vector<CVnodeRef> mine;
    for (CVnodeRef& cv : cvs) {
      auto owner = ServerForVolume(cv->fid.volume, /*refresh=*/false);
      if (owner.ok() && *owner == server) {
        mine.push_back(cv);
      }
    }

    // Collect every token under the low locks (one at a time — we may be on
    // a thread already holding some cvnode's high lock, which is fine: low
    // is below high and we take each low singly).
    Writer w;
    std::vector<std::pair<CVnodeRef, std::vector<Token>>> held;
    uint32_t count = 0;
    for (CVnodeRef& cv : mine) {
      OrderedLockGuard low(cv->low);
      if (cv->tokens.empty()) {
        continue;
      }
      held.push_back({cv, cv->tokens});
      count += static_cast<uint32_t>(cv->tokens.size());
    }
    Writer body;
    body.PutU32(count);
    for (auto& [cv, tokens] : held) {
      for (const Token& t : tokens) {
        t.Serialize(body);
      }
    }
    w.PutRaw(body.data());

    // One batched reassertion, sent directly (not CallVolume: this *is* the
    // recovery path) with the new epoch.
    auto payload = UnwrapReply(network_.Call(options_.node, server, kReassertTokens, w.data(),
                                             ticket_.principal, epoch));
    if (payload.code() == ErrorCode::kStaleEpoch) {
      continue;  // restarted again mid-recovery; start over
    }
    RETURN_IF_ERROR(payload.status());
    Reader r(*payload);
    ASSIGN_OR_RETURN(uint64_t server_epoch, r.ReadU64());
    (void)server_epoch;
    ASSIGN_OR_RETURN(uint32_t verdicts, r.ReadU32());
    if (verdicts != count) {
      return Status(ErrorCode::kInternal, "short kReassertTokens reply");
    }

    // Apply the verdicts per cvnode: accepted tokens survive; rejected ones
    // are dropped along with every piece of cached state they vouched for.
    for (auto& [cv, tokens] : held) {
      OrderedLockGuard low(cv->low);
      bool lost_any = false;
      for (const Token& t : tokens) {
        ASSIGN_OR_RETURN(uint8_t accepted, r.ReadU8());
        if (accepted != 0) {
          // Re-journal the surviving grant so the on-disk record carries the
          // new incarnation epoch.
          JournalGrantLocked(*cv, t);
          MutexLock lock(mu_);
          stats_.reasserted_tokens += 1;
          continue;
        }
        lost_any = true;
        for (auto it = cv->tokens.begin(); it != cv->tokens.end(); ++it) {
          if (it->id == t.id) {
            cv->tokens.erase(it);
            break;
          }
        }
        JournalEraseLocked(*cv, t);
        MutexLock lock(mu_);
        stats_.reassert_rejected += 1;
      }
      if (!lost_any) {
        continue;
      }
      // Without its tokens the cached state is unvouched-for: drop it. Dirty
      // data cannot be stored back (the write token is gone and a peer may
      // already hold a conflicting grant) — it is lost, and the loss is
      // surfaced on the next foreground fsync/store via dirty_lost.
      if (!cv->dirty_blocks.empty() || cv->attr_dirty) {
        cv->dirty_lost = true;
      }
      cv->prefetch_gen += 1;
      for (uint64_t b : cv->cached_blocks) {
        NotePrefetchDropLocked(*cv, b);
        store_->Erase(cv->fid, b);
        RemoveLru(cv->fid, b);
      }
      cv->cached_blocks.clear();
      cv->dirty_blocks.clear();
      cv->attr_valid = false;
      cv->attr_dirty = false;
      cv->listing_valid = false;
      cv->lookup_cache.clear();
      if (invalidated != nullptr) {
        invalidated->insert(cv->fid);
      }
    }
    return Status::Ok();
  }
  return Status(ErrorCode::kUnavailable, "server kept restarting during token reassertion");
}

// --- Cache layer ---

bool CacheManager::HasTokenLocked(CVnode& cv, uint32_t types, const ByteRange& range,
                                  std::vector<HeldToken>* used) const {
  // Client-side lease (the paper's token lifetimes): if we have been out of
  // touch with the servers longer than the lease, our tokens may already
  // have been garbage-collected — stop trusting them and go ask.
  if (options_.client_lease_ttl_ms > 0 && network_.clock() != nullptr) {
    // Holding any token implies a past successful contact, so last_contact
    // is meaningful here even at its 0 initial value (virtual clocks start
    // at 0 — "never contacted" and "contacted at t=0" expire identically).
    uint64_t last = last_contact_ns_.load(std::memory_order_relaxed);
    uint64_t now = network_.clock()->Now();
    if (now > last && now - last > uint64_t{options_.client_lease_ttl_ms} * 1'000'000ull) {
      return false;
    }
  }
  // Rangeless types are covered by any token carrying them. For the rangeful
  // types, several adjacent tokens compose: coverage is by union.
  for (uint32_t bit = 1; bit != 0 && types != 0; bit <<= 1) {
    if ((types & bit) == 0) {
      continue;
    }
    bool covered = false;
    if ((bit & kRangeless) != 0) {
      for (const Token& t : cv.tokens) {
        if ((t.types & bit) != 0) {
          covered = true;
          break;
        }
      }
    } else {
      covered = CoveredByUnion(range, [&](const auto& extend) {
        cv.low.AssertHeld();  // callers hold it; lambdas are analyzed alone
        for (const Token& t : cv.tokens) {
          if ((t.types & bit) != 0 && extend(t) && used != nullptr) {
            used->push_back(HeldToken{t.id, bit});
          }
        }
      });
    }
    if (!covered) {
      return false;
    }
    types &= ~bit;
  }
  return true;
}

uint32_t CacheManager::MissingTypesLocked(CVnode& cv, uint32_t want, const ByteRange& range,
                                          std::vector<HeldToken>* matched) const {
  for (uint32_t bit = 1; bit != 0; bit <<= 1) {
    if ((want & bit) == 0) {
      continue;
    }
    size_t mark = matched->size();
    if (HasTokenLocked(cv, bit, range, matched)) {
      want &= ~bit;
    } else {
      matched->resize(mark);  // a partial cover vouches for nothing
    }
  }
  return want;
}

bool CacheManager::StillHeldLocked(CVnode& cv, const std::vector<HeldToken>& held) const {
  for (const HeldToken& h : held) {
    bool found = false;
    for (const Token& t : cv.tokens) {
      if (t.id == h.id && (t.types & h.type) != 0) {
        found = true;
        break;
      }
    }
    if (!found) {
      return false;
    }
  }
  return true;
}

void CacheManager::AddTokenLocked(CVnode& cv, const Token& token) {
  cv.tokens.push_back(token);
  JournalGrantLocked(cv, token);
}

bool CacheManager::MergeSyncLocked(CVnode& cv, const SyncInfo& sync) {
  // Old status never overwrites new (Sections 6.3/6.4).
  if (sync.stamp <= cv.stamp) {
    return false;
  }
  cv.stamp = sync.stamp;
  // While we hold a status-write token with unstored local modifications, our
  // attributes are the authoritative ones — the server's reflect a file whose
  // dirty pages it has not seen yet.
  if (cv.attr_dirty) {
    return false;
  }
  cv.attr = sync.attr;
  cv.attr_valid = true;
  // Every applied merge refreshes the persisted attribute record, so a warm
  // reboot whose status token survives can trust the journal (no merge path
  // may skip this — a stale record plus a surviving token would resurrect
  // old attributes as authoritative).
  JournalAttrLocked(cv);
  return true;
}

Status CacheManager::StoreDirtyRangeLocked(CVnode& cv, const ByteRange& range,
                                           bool revocation_path) {
  // Collect contiguous dirty runs intersecting `range`.
  std::vector<std::pair<uint64_t, uint64_t>> runs;  // [first_block, last_block]
  for (uint64_t b : cv.dirty_blocks) {
    uint64_t bstart = b * kBlockSize;
    if (!range.Overlaps(ByteRange{bstart, bstart + kBlockSize})) {
      continue;
    }
    if (!runs.empty() && runs.back().second + 1 == b) {
      runs.back().second = b;
    } else {
      runs.push_back({b, b});
    }
  }
  for (const auto& [first, last] : runs) {
    uint64_t offset = first * kBlockSize;
    uint64_t end = std::min<uint64_t>((last + 1) * kBlockSize, cv.attr.size);
    if (end <= offset) {
      for (uint64_t b = first; b <= last; ++b) {
        cv.dirty_blocks.erase(b);
      }
      continue;
    }
    Writer w = StoreBody(cv.fid, offset, RunSlicesLocked(cv, first, end - offset));
    if (revocation_path) {
      cv.store_backs += 1;  // counted before the call: a lost reply may still have landed
    }
    ASSIGN_OR_RETURN(WireMessage payload,
                     CallVolume(cv.fid.volume, revocation_path ? kRevocationStore : kStoreData,
                                w, &cv.fid, /*allow_recovery=*/false));
    Reader r(payload);
    ASSIGN_OR_RETURN(SyncInfo sync, ReadSyncInfo(r));
    for (uint64_t b = first; b <= last; ++b) {
      cv.dirty_blocks.erase(b);
    }
    if (cv.dirty_blocks.empty()) {
      cv.attr_dirty = false;  // the server has everything; its attr rules again
    }
    StoreMarkCleanLocked(cv, first, last, sync);
    MergeSyncLocked(cv, sync);
    JournalAttrLocked(cv);
    MutexLock lock(mu_);
    if (revocation_path) {
      stats_.revocation_stores += 1;
    } else {
      stats_.dirty_stores += 1;
    }
  }
  return Status::Ok();
}

std::vector<BufferSlice> CacheManager::RunSlicesLocked(CVnode& cv, uint64_t first,
                                                       uint64_t run_len) {
  std::vector<BufferSlice> parts;
  for (uint64_t boff = 0; boff < run_len; boff += kBlockSize) {
    size_t n = std::min<size_t>(kBlockSize, run_len - boff);
    auto slice = store_->GetSlice(cv.fid, first + boff / kBlockSize, n);
    parts.push_back(slice.ok() ? *std::move(slice)
                               : BufferSlice::TakeOwnership(std::vector<uint8_t>(n, 0)));
  }
  if (!store_->SharesSlices()) {
    Count(hits_.bytes_copied, run_len);  // GetSlice copied out of the store
  }
  MutexLock lock(mu_);
  stats_.bytes_moved += run_len;
  return parts;
}

Status CacheManager::ApplyRevocationLocked(CVnode& cv, const Token& token, uint32_t types,
                                           uint64_t stamp) {
  (void)stamp;
  // Write tokens: modified data and status go back to the server first, via
  // the special store the revocation code path is entitled to (Sections 5.3,
  // 6.4). A status-write revocation pushes everything dirty: the server's
  // attributes (size, mtime) become authoritative again only once it has
  // seen all of our writes.
  if (types & kTokenDataWrite) {
    RETURN_IF_ERROR(StoreDirtyRangeLocked(cv, token.range, /*revocation_path=*/true));
  }
  if ((types & kTokenStatusWrite) && cv.attr_dirty) {
    RETURN_IF_ERROR(StoreDirtyRangeLocked(cv, ByteRange::All(), /*revocation_path=*/true));
  }
  if (types & (kTokenDataRead | kTokenDataWrite)) {
    // A data revocation cancels background readahead for the file: windows
    // already in flight lose the generation race, and the stream restarts
    // cold if the reader comes back.
    cv.prefetch_gen += 1;
    prefetcher_->Forget(cv.fid);
    // Blocks still dirty stay: they are our newest bytes, held under a
    // separate write token (a write revocation has already stored its range
    // above, so its blocks are clean by now).
    for (auto it = cv.cached_blocks.begin(); it != cv.cached_blocks.end();) {
      uint64_t bstart = *it * kBlockSize;
      if (token.range.Overlaps(ByteRange{bstart, bstart + kBlockSize}) &&
          cv.dirty_blocks.count(*it) == 0) {
        NotePrefetchDropLocked(cv, *it);
        store_->Erase(cv.fid, *it);
        RemoveLru(cv.fid, *it);
        it = cv.cached_blocks.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (types & (kTokenStatusRead | kTokenStatusWrite)) {
    cv.attr_valid = false;
    cv.listing_valid = false;
    cv.lookup_cache.clear();
  }
  if (types & (kTokenLockRead | kTokenLockWrite)) {
    cv.local_locks.clear();
  }
  for (auto it = cv.tokens.begin(); it != cv.tokens.end(); ++it) {
    if (it->id == token.id) {
      it->types &= ~types;
      if (it->types == 0) {
        JournalEraseLocked(cv, *it);
        cv.tokens.erase(it);
      } else {
        // Partial revocation: the journaled grant is updated in place (the
        // record is keyed by token id) so recovery reasserts what remains.
        JournalGrantLocked(cv, *it);
      }
      break;
    }
  }
  return Status::Ok();
}

std::vector<std::pair<TokenId, uint32_t>> CacheManager::DrainPendingLocked(CVnode& cv) {
  std::vector<std::pair<TokenId, uint32_t>> to_return;
  std::sort(cv.pending.begin(), cv.pending.end(),
            [](const PendingRevocation& a, const PendingRevocation& b) {
              return a.stamp < b.stamp;
            });
  for (auto it = cv.pending.begin(); it != cv.pending.end();) {
    bool known = false;
    for (const Token& t : cv.tokens) {
      if (t.id == it->token.id) {
        known = true;
        break;
      }
    }
    if (known) {
      (void)ApplyRevocationLocked(cv, it->token, it->types, it->stamp);
      to_return.push_back({it->token.id, it->types});
      it = cv.pending.erase(it);
    } else if (cv.rpc_in_flight == 0) {
      // The grant-carrying reply never arrived (error path); the server still
      // holds the token for us — return it sight unseen.
      to_return.push_back({it->token.id, it->types});
      it = cv.pending.erase(it);
    } else {
      ++it;
    }
  }
  return to_return;
}

Status CacheManager::ReturnToken(const Fid& fid, TokenId id, uint32_t types) {
  Writer w;
  w.PutU64(id);
  w.PutU32(types);
  // Callers may hold a cvnode low lock (FetchAndInstall's drain loop), so the
  // reassert-on-stale-epoch machinery must stay off. A return the restarted
  // server never heard of is harmless — the token died with the old epoch.
  return CallVolume(fid.volume, kReturnToken, w, &fid, /*allow_recovery=*/false).status();
}

// --- Disk store and persistent cache hooks ---

Status CacheManager::StorePutLocked(CVnode& cv, uint64_t block, BufferSlice data, bool dirty) {
  if (disk_store_ == nullptr) {
    return store_->PutSlice(cv.fid, block, std::move(data));
  }
  uint64_t dv = cv.attr_valid ? cv.attr.data_version : 0;
  uint64_t size = cv.attr_valid ? cv.attr.size : 0;
  Status s = disk_store_->PutBlock(cv.fid, block, data.span(), dirty, cv.stamp, dv, size);
  if (s.ok()) {
    // Keep the persisted attribute snapshot in step with the blocks it
    // vouches for (deduplicated by stamp, so steady-state stores are free).
    JournalAttrLocked(cv);
  }
  return s;
}

void CacheManager::StoreMarkCleanLocked(CVnode& cv, uint64_t first, uint64_t last,
                                        const SyncInfo& sync) {
  if (disk_store_ == nullptr) {
    return;
  }
  // The store reply's attributes describe the file *after* our write landed:
  // that is the version the (now clean) on-disk bytes belong to.
  for (uint64_t b = first; b <= last; ++b) {
    (void)disk_store_->MarkClean(cv.fid, b, sync.stamp, sync.attr.data_version, sync.attr.size);
  }
}

void CacheManager::PersistClampSizeLocked(CVnode& cv, uint64_t new_size) {
  if (persist_ == nullptr) {
    return;
  }
  (void)persist_->ClampFileSizes(cv.fid, new_size);
}

void CacheManager::JournalGrantLocked(const CVnode& cv, const Token& token) {
  if (persist_ == nullptr) {
    return;
  }
  (void)persist_->Journal(PersistentCacheStore::JournalOp::kGrant, token,
                          JournalEpochFor(cv.fid.volume));
}

void CacheManager::JournalEraseLocked(const CVnode& cv, const Token& token) {
  if (persist_ == nullptr) {
    return;
  }
  (void)persist_->Journal(PersistentCacheStore::JournalOp::kErase, token,
                          JournalEpochFor(cv.fid.volume));
}

void CacheManager::JournalAttrLocked(CVnode& cv, bool force) {
  if (persist_ == nullptr || !cv.attr_valid ||
      (!force && cv.stamp == cv.attr_journal_stamp)) {
    return;
  }
  if (persist_->JournalAttr(cv.fid, cv.stamp, cv.attr, JournalEpochFor(cv.fid.volume)).ok()) {
    cv.attr_journal_stamp = cv.stamp;
  }
}

uint64_t CacheManager::JournalEpochFor(uint64_t volume) {
  auto loc = vldb_.Peek(volume);
  if (!loc.has_value()) {
    return 0;
  }
  MutexLock lock(mu_);
  auto it = server_epochs_.find(loc->server);
  return it == server_epochs_.end() ? 0 : it->second;
}

Status CacheManager::Recover() {
  if (persist_ == nullptr) {
    return Status::Ok();
  }
  const PersistentCacheStore::RecoveredState& rec = persist_->recovered();
  if (!rec.recovered) {
    return Status::Ok();
  }

  // 1) Re-drive kReassertTokens from the on-disk journal, batched per server.
  //    This is PR 3's HandleStaleEpoch protocol with the token list coming
  //    from the medium instead of memory: the journal's conservative
  //    semantics (a torn append loses the grant, a lost erasure reasserts a
  //    dead token) are resolved here — the server rejects what conflicts, and
  //    everything accepted is still revalidated per file below.
  std::map<NodeId, std::vector<Token>> by_server;
  for (const PersistentCacheStore::JournalRecord& jr : rec.tokens) {
    auto server = ServerForVolume(jr.token.fid.volume, /*refresh=*/false);
    if (!server.ok()) {
      MutexLock lock(mu_);
      stats_.warm_tokens_dropped += 1;
      continue;
    }
    by_server[*server].push_back(jr.token);
  }
  std::vector<PersistentCacheStore::JournalRecord> live;
  for (auto& [server, toks] : by_server) {
    // A second restart can race the reassertion (kStaleEpoch on the batch);
    // bounded retry like HandleStaleEpoch.
    bool applied = false;
    for (int round = 0; round < 3 && !applied; ++round) {
      {
        MutexLock lock(mu_);
        connected_.erase(server);
      }
      if (!EnsureConnected(server).ok()) {
        break;  // unreachable: its tokens stay un-reasserted and are dropped
      }
      uint64_t epoch = EpochFor(server);
      Writer w;
      w.PutU32(static_cast<uint32_t>(toks.size()));
      for (const Token& t : toks) {
        t.Serialize(w);
      }
      auto payload = UnwrapReply(network_.Call(options_.node, server, kReassertTokens,
                                               w.data(), ticket_.principal, epoch));
      if (payload.code() == ErrorCode::kStaleEpoch) {
        continue;
      }
      if (!payload.ok()) {
        break;
      }
      Reader r(*payload);
      auto server_epoch = r.ReadU64();
      auto count = r.ReadU32();
      if (!server_epoch.ok() || !count.ok() || *count != toks.size()) {
        break;
      }
      for (const Token& t : toks) {
        auto verdict = r.ReadU8();
        if (verdict.ok() && *verdict != 0) {
          CVnodeRef cv = GetCVnode(t.fid);
          OrderedLockGuard low(cv->low);
          AddTokenLocked(*cv, t);  // re-journals the grant under the new epoch
          PersistentCacheStore::JournalRecord rec;
          rec.op = PersistentCacheStore::JournalOp::kGrant;
          rec.token = t;
          rec.epoch = epoch;
          live.push_back(rec);
          MutexLock lock(mu_);
          stats_.warm_tokens_recovered += 1;
          stats_.reasserted_tokens += 1;
        } else {
          MutexLock lock(mu_);
          stats_.warm_tokens_dropped += 1;
          stats_.reassert_rejected += 1;
        }
      }
      applied = true;
    }
    if (!applied) {
      MutexLock lock(mu_);
      stats_.warm_tokens_dropped += toks.size();
    }
  }

  // 2) Hydrate and revalidate every recovered file against the server's
  //    current truth: one tokenless kFetchStatus per file, then a per-block
  //    data_version comparison. Clean blocks whose recorded version matches
  //    (and whose range a reasserted data-read token covers) come back warm;
  //    everything else is dropped. Dirty blocks resume their interrupted push
  //    only if the server has not moved past their base version under a
  //    still-held write token — otherwise the data is gone and the loss
  //    surfaces as kIoError on the next fsync, the stale-epoch contract.
  for (const PersistentCacheStore::RecoveredFile& f : rec.files) {
    CVnodeRef cv = GetCVnode(f.fid);
    OrderedLockGuard high(cv->high);
    bool have_sync = false;
    SyncInfo sync;
    // Warm-attr fast path: a persisted attribute snapshot plus a status-read
    // token the server just re-accepted means no conflicting grant was issued
    // since the snapshot — the attributes cannot have changed, so the
    // revalidation RPC is pure overhead. (Token survival is the proof: any
    // peer write would have had to revoke the status token first, and the
    // reassertion would then have rejected it.)
    if (f.has_attr) {
      OrderedLockGuard low(cv->low);
      if (HasTokenLocked(*cv, kTokenStatusRead, ByteRange::All())) {
        sync.attr = f.attr;
        sync.stamp = f.attr_stamp;
        have_sync = true;
        MutexLock lock(mu_);
        stats_.warm_attr_hits += 1;
      }
    }
    if (!have_sync) {
      Writer w;
      PutFid(w, f.fid);
      w.PutU32(0);  // status only; no token wanted
      auto payload = CallVolume(f.fid.volume, kFetchStatus, w, &f.fid);
      if (payload.ok()) {
        Reader r(*payload);
        auto has_token = r.ReadBool();
        if (has_token.ok() && !*has_token) {
          auto s = ReadSyncInfo(r);
          if (s.ok()) {
            sync = *s;
            have_sync = true;
          }
        }
      }
    }
    OrderedLockGuard low(cv->low);
    if (have_sync) {
      MergeSyncLocked(*cv, sync);
    }
    bool any_dirty_lost = false;
    uint64_t resumed_size = 0;
    for (const PersistentCacheStore::RecoveredBlock& b : f.blocks) {
      ByteRange brange{b.block * kBlockSize, (b.block + 1) * kBlockSize};
      bool version_ok = have_sync && b.data_version != 0 &&
                        b.data_version == sync.attr.data_version;
      if (b.dirty) {
        if (version_ok && HasTokenLocked(*cv, kTokenDataWrite, brange)) {
          cv->cached_blocks.insert(b.block);
          cv->dirty_blocks.insert(b.block);
          TouchLru(f.fid, b.block);
          resumed_size = std::max(resumed_size, b.file_size);
          MutexLock lock(mu_);
          stats_.warm_dirty_resumed += 1;
        } else {
          any_dirty_lost = true;
          store_->Erase(f.fid, b.block);
          MutexLock lock(mu_);
          stats_.warm_blocks_dropped += 1;
        }
      } else {
        if (version_ok && HasTokenLocked(*cv, kTokenDataRead, brange)) {
          cv->cached_blocks.insert(b.block);
          TouchLru(f.fid, b.block);
          MutexLock lock(mu_);
          stats_.warm_blocks_recovered += 1;
        } else {
          store_->Erase(f.fid, b.block);
          MutexLock lock(mu_);
          stats_.warm_blocks_dropped += 1;
        }
      }
    }
    if (cv->attr_valid && resumed_size > cv->attr.size) {
      // The size extension that went with the resumed dirty data lived only
      // in the dead client's memory; the write-time size recorded in the
      // index restores it, and the resumed push re-extends the server copy.
      cv->attr.size = resumed_size;
      cv->attr.mtime += 1;
      cv->attr_dirty = true;
    }
    if (any_dirty_lost) {
      cv->dirty_lost = true;
    }
  }

  // 3) The surviving token set becomes the journal's new baseline (the
  //    appends from AddTokenLocked above compact away into it).
  (void)persist_->CheckpointJournal(live);
  return Status::Ok();
}

void CacheManager::TouchLru(const Fid& fid, uint64_t block) {
  MutexLock lock(mu_);
  LruKey key{fid, block};
  auto it = lru_index_.find(key);
  if (it != lru_index_.end()) {
    lru_.erase(it->second);
  }
  lru_.push_back(key);
  lru_index_[key] = std::prev(lru_.end());
  lru_size_.store(lru_.size(), std::memory_order_relaxed);
}

void CacheManager::RemoveLru(const Fid& fid, uint64_t block) {
  MutexLock lock(mu_);
  LruKey key{fid, block};
  auto it = lru_index_.find(key);
  if (it != lru_index_.end()) {
    lru_.erase(it->second);
    lru_index_.erase(it);
    lru_size_.store(lru_.size(), std::memory_order_relaxed);
  }
}

void CacheManager::MaybeEvict() {
  size_t size = lru_size_.load(std::memory_order_relaxed);
  if (size <= cache_blocks_) {
    return;
  }
  size_t budget = 2 * size + 16;  // bound: a fully dirty cache cannot spin us
  for (size_t step = 0; step < budget; ++step) {
    LruKey victim;
    {
      MutexLock lock(mu_);
      if (lru_.size() <= cache_blocks_) {
        return;
      }
      victim = lru_.front();
      lru_.pop_front();
      lru_index_.erase(victim);
      lru_size_.store(lru_.size(), std::memory_order_relaxed);
    }
    CVnodeRef cv = GetCVnode(victim.first);
    OrderedLockGuard low(cv->low);
    if (cv->dirty_blocks.count(victim.second) != 0) {
      // Dirty blocks are not evictable; recycle to the back of the LRU.
      TouchLru(victim.first, victim.second);
      continue;
    }
    if (cv->cached_blocks.erase(victim.second) != 0) {
      NotePrefetchDropLocked(*cv, victim.second);
      store_->Erase(victim.first, victim.second);
      MutexLock lock(mu_);
      stats_.cache_evictions += 1;
    }
  }
}

void CacheManager::NotePrefetchDropLocked(CVnode& cv, uint64_t block) {
  if (cv.prefetched_blocks.erase(block) != 0) {
    MutexLock lock(mu_);
    stats_.prefetch_wasted += 1;
  }
}

ByteRange CacheManager::TokenRangeFor(uint64_t offset, size_t len) const {
  if (options_.whole_file_data_tokens) {
    return ByteRange::All();
  }
  return ByteRange{BlockOf(offset) * kBlockSize, BlockEnd(offset, len) * kBlockSize};
}

Status CacheManager::InstallFetchReplyLocked(CVnode& cv, uint64_t aligned_off,
                                             uint64_t aligned_len, const WireMessage& reply,
                                             bool install_data, bool mark_prefetched,
                                             std::vector<HeldToken>& held,
                                             std::vector<uint64_t>* installed) {
  Reader r(reply);
  ASSIGN_OR_RETURN(bool has_token, r.ReadBool());
  Token token;
  if (has_token) {
    ASSIGN_OR_RETURN(token, Token::Deserialize(r));
  }
  ASSIGN_OR_RETURN(SyncInfo sync, ReadSyncInfo(r));
  // Zero-copy: the data payload arrives as a shared region of the reply
  // message; whole blocks install as sub-slices of it, untouched.
  ASSIGN_OR_RETURN(BufferSlice data, r.ReadSlice());
  // Sync and token land unconditionally: even a cancelled prefetch must keep
  // the token it was granted (dropping it would leak it at the server) and
  // the stamp rule makes the sync merge safe in any order.
  MergeSyncLocked(cv, sync);
  if (install_data && !StillHeldLocked(cv, held)) {
    // A token this fetch relied on was revoked while it was in flight: the
    // write behind that revocation may postdate the server's read, so the
    // bytes go, as a cancelled prefetch window's do. The caller's own token
    // check then finds the range uncovered and asks again.
    install_data = false;
    MutexLock lock(mu_);
    stats_.match_drops += 1;
  }
  if (has_token) {
    AddTokenLocked(cv, token);
    for (uint32_t bit : {kTokenDataRead, kTokenDataWrite}) {
      if ((token.types & bit) != 0) {
        held.push_back(HeldToken{token.id, bit});
      }
    }
  }
  if (!install_data) {
    return Status::Ok();
  }
  // Install whole blocks; the tail block of the file is zero-padded. Blocks
  // we have dirty locally are NOT overwritten: our copy is newer than what
  // the server just sent. Only a short tail (needing the zero pad) or a
  // store that does not share slices (it writes its own copy) costs a copy.
  uint64_t copied = 0;
  for (uint64_t i = 0; i * kBlockSize < data.size(); ++i) {
    uint64_t block = BlockOf(aligned_off) + i;
    if (cv.dirty_blocks.count(block) != 0) {
      continue;
    }
    size_t n = std::min<size_t>(kBlockSize, data.size() - i * kBlockSize);
    BufferSlice slice = data.Sub(i * kBlockSize, n);
    if (n < kBlockSize) {
      std::vector<uint8_t> blockbuf(kBlockSize, 0);
      std::memcpy(blockbuf.data(), slice.data(), n);
      slice = BufferSlice::TakeOwnership(std::move(blockbuf));
    }
    if (n < kBlockSize || !store_->SharesSlices()) {
      copied += n;
    }
    RETURN_IF_ERROR(StorePutLocked(cv, block, std::move(slice), /*dirty=*/false));
    bool fresh = cv.cached_blocks.insert(block).second;
    TouchLru(cv.fid, block);
    if (fresh && installed != nullptr) {
      installed->push_back(block);
    }
    if (mark_prefetched && fresh) {
      cv.prefetched_blocks.insert(block);
    }
  }
  Count(hits_.bytes_copied, copied);
  {
    MutexLock lock(mu_);
    stats_.bytes_moved += data.size();
  }
  // Blocks past EOF within the fetched range are implicit zeros: cacheable.
  // A single shared zero region serves every such block (no wire bytes, no
  // copy over a sharing store).
  static const BufferSlice kZeroBlock =
      BufferSlice::TakeOwnership(std::vector<uint8_t>(kBlockSize, 0));
  for (uint64_t block = BlockOf(aligned_off) + (data.size() + kBlockSize - 1) / kBlockSize;
       block < BlockEnd(aligned_off, aligned_len) &&
       block * kBlockSize >= cv.attr.size && cv.attr_valid;
       ++block) {
    RETURN_IF_ERROR(StorePutLocked(cv, block, kZeroBlock, /*dirty=*/false));
    bool fresh = cv.cached_blocks.insert(block).second;
    TouchLru(cv.fid, block);
    if (fresh && installed != nullptr) {
      installed->push_back(block);
    }
    if (mark_prefetched && fresh) {
      cv.prefetched_blocks.insert(block);
    }
  }
  return Status::Ok();
}

CacheManager::SentCall::SentCall(CacheManager* cm, const Result<NodeId>& server, uint32_t proc,
                                 Writer body)
    : cm_(cm), proc_(proc), w_(std::move(body)) {
  if (!server.ok()) {
    return;
  }
  server_ = *server;
  inflight_.emplace(cm_);
  call_ = cm_->network_.CallAsync(cm_->options_.node, *server_, proc_, w_.Message(),
                                  cm_->ticket_.principal, cm_->EpochFor(*server_));
}

Result<WireMessage> CacheManager::SentCall::Finish(uint64_t volume_id, const Fid* fid) {
  if (!server_.has_value()) {
    // CallVolume retries a routing failure.
    InflightTracker inflight(cm_);
    return cm_->CallVolume(volume_id, proc_, w_, fid);
  }
  Result<WireMessage> reply = UnwrapReply(call_.Wait());
  if (reply.ok()) {
    if (cm_->network_.clock() != nullptr) {
      cm_->last_contact_ns_.store(cm_->network_.clock()->Now(), std::memory_order_relaxed);
    }
  } else if (CallVolumeRetries(reply.code())) {
    FirstAnswer first{*server_, std::move(reply)};
    reply = cm_->CallVolume(volume_id, proc_, w_, fid, /*allow_recovery=*/true, &first);
  }
  inflight_.reset();
  return reply;
}

void CacheManager::CallChunks(
    uint64_t volume_id, uint32_t proc, size_t count, const std::function<Writer(size_t)>& request,
    const Fid* fid, const std::function<void(size_t, Result<WireMessage>)>& on_reply) {
  Result<NodeId> server = RouteVolume(volume_id, /*refresh=*/false, /*allow_recovery=*/true);
  std::deque<SentCall> window;
  size_t issued = 0;
  for (size_t i = 0; i < count; ++i) {
    while (issued < count && issued < i + kMaxInflightChunks) {
      window.emplace_back(this, server, proc, request(issued++));
    }
    Result<WireMessage> reply = window.front().Finish(volume_id, fid);
    window.pop_front();
    on_reply(i, std::move(reply));
  }
}

Status CacheManager::FetchAndInstall(CVnode& cv, uint64_t offset, size_t len,
                                     uint32_t want_types,
                                     const std::function<void()>& after_install,
                                     bool token_only, bool match_data) {
  ByteRange trange = TokenRangeFor(offset, len);
  uint64_t aligned_off = BlockOf(offset) * kBlockSize;
  uint64_t aligned_len = BlockEnd(offset, len) * kBlockSize - aligned_off;
  // A token-only fetch carries no data, so there is nothing to split.
  std::vector<Chunk> chunks =
      ChunksOf(aligned_off, aligned_len, token_only ? 0 : options_.max_rpc_bytes);
  if (chunks.size() > 1) {
    MutexLock lock(mu_);
    stats_.bulk_rpcs_split += 1;
  }

  // The held tokens the transfer relies on instead of fresh grants; chunk 0's
  // grant joins them when it installs.
  std::vector<HeldToken> held;
  {
    OrderedLockGuard low(cv.low);
    cv.rpc_in_flight += 1;
    uint32_t matchable = match_data ? want_types : (want_types & kRangeless);
    want_types = MissingTypesLocked(cv, matchable, trange, &held) | (want_types & ~matchable);
  }

  std::vector<Status> statuses(chunks.size(), Status::Ok());
  std::vector<std::vector<uint64_t>> installed(chunks.size());
  auto install = [&](size_t i, const Result<WireMessage>& payload) -> Status {
    cv.low.AssertHeld();  // callers hold it; lambdas are analyzed alone
    RETURN_IF_ERROR(payload.status());
    return InstallFetchReplyLocked(cv, chunks[i].off, chunks[i].len, *payload,
                                   /*install_data=*/true, /*mark_prefetched=*/false, held,
                                   &installed[i]);
  };

  // Chunk 0 carries the token, whose range covers the whole transfer, and is
  // a *barrier*: it runs first and alone, so by the time the tokenless data
  // chunks are on the wire the token is already ours — a conflicting write
  // must revoke it first. Issuing tokenless chunks concurrently with the
  // grant would let another client's write land between a chunk's
  // server-side read and the grant, leaving this client serving stale bytes
  // under a valid token with no revocation ever aimed at it. The data chunks
  // are then pipelined from this thread, each merged under `low` as its
  // reply lands, and each installs only while the transfer's tokens (matched
  // and granted) are still held.
  Result<WireMessage> first = [&] {
    Writer w = FetchRequest(cv.fid, chunks[0].off, chunks[0].len, want_types, trange, token_only);
    InflightTracker inflight(this);
    return CallVolume(cv.fid.volume, kFetchData, w);
  }();
  if (first.ok() && token_only) {
    MutexLock lock(mu_);
    stats_.token_only_grants += 1;
  }
  bool lone = chunks.size() == 1;
  if (!lone) {
    {
      OrderedLockGuard low(cv.low);
      statuses[0] = install(0, first);
    }
    if (statuses[0].ok()) {
      CallChunks(
          cv.fid.volume, kFetchData, chunks.size() - 1,
          [&](size_t k) {
            const Chunk& c = chunks[k + 1];
            return FetchRequest(cv.fid, c.off, c.len, 0, trange, /*token_only=*/false);
          },
          nullptr,
          [&](size_t k, Result<WireMessage> payload) {
            OrderedLockGuard low(cv.low);
            statuses[k + 1] = install(k + 1, payload);
          });
    }
  }

  OrderedLockGuard low(cv.low);
  cv.rpc_in_flight -= 1;
  if (lone) {
    // A lone chunk installs in the same critical section as after_install
    // and the drain, so no revocation can reach its fresh token before the
    // operation that asked for it completes (Section 6.3).
    statuses[0] = install(0, first);
  }
  Status result = Status::Ok();
  for (const Status& s : statuses) {  // first error in chunk order wins
    if (!s.ok()) {
      result = s;
      break;
    }
  }
  if (!result.ok()) {
    // Roll back the blocks this op freshly installed (`installed` never lists
    // blocks that were validly cached before the op), so a failed fetch
    // leaves the cache exactly as it found it.
    for (const auto& blocks : installed) {
      for (uint64_t b : blocks) {
        if (cv.dirty_blocks.count(b) != 0) {
          continue;
        }
        if (cv.cached_blocks.erase(b) != 0) {
          NotePrefetchDropLocked(cv, b);
          store_->Erase(cv.fid, b);
          RemoveLru(cv.fid, b);
        }
      }
    }
  }
  if (result.ok() && after_install != nullptr) {
    after_install();
  }
  auto to_return = DrainPendingLocked(cv);
  for (const auto& [id, types] : to_return) {
    (void)ReturnToken(cv.fid, id, types);
  }
  return result;
}

void CacheManager::MaybeStartPrefetch(const CVnodeRef& cv, uint64_t offset, size_t len,
                                      bool sequential) {
  if (!prefetcher_->enabled()) {
    return;
  }
  if (!sequential) {
    // Seek: cancel the stream. Windows already in flight lose the generation
    // race, but keep their single-flight claims (Advance's seek path, not
    // Forget — that would let a resumed sequential reader re-claim and
    // re-fetch a window still on the wire); Forget stays reserved for close
    // and revocation. The detector restarts cold from this position.
    {
      OrderedLockGuard low(cv->low);
      cv->prefetch_gen += 1;
    }
    (void)prefetcher_->Advance(cv->fid, BlockEnd(offset, std::max<size_t>(len, 1)),
                               /*sequential=*/false);
    return;
  }
  uint64_t gen;
  uint64_t file_blocks = UINT64_MAX;
  {
    OrderedLockGuard low(cv->low);
    gen = cv->prefetch_gen;
    if (cv->attr_valid) {
      file_blocks = (cv->attr.size + kBlockSize - 1) / kBlockSize;
    }
  }
  // Claim windows until the lead or the in-flight bound stops the stream.
  uint64_t read_end = BlockEnd(offset, std::max<size_t>(len, 1));
  while (auto win = prefetcher_->Advance(cv->fid, read_end, /*sequential=*/true)) {
    if (!SendWindow(cv, *win, gen, file_blocks)) {
      return;
    }
  }
}

bool CacheManager::SendWindow(const CVnodeRef& cv, Prefetcher::Window win, uint64_t gen,
                              uint64_t file_blocks) {
  if (win.start_block >= file_blocks) {
    // Nothing past EOF; release the claim quietly (the stream keeps its
    // position — a subsequent append by a peer re-opens the window).
    prefetcher_->WindowDone(cv->fid, win.start_block);
    return false;
  }
  // The window (and its token range) stops at EOF: a window reaching past it
  // would ask for a range no held token covers on every pass.
  win.blocks = static_cast<uint32_t>(std::min<uint64_t>(win.blocks, file_blocks - win.start_block));
  uint64_t off = win.start_block * kBlockSize;
  uint64_t len_bytes = uint64_t{win.blocks} * kBlockSize;
  ByteRange trange = TokenRangeFor(off, len_bytes);
  std::vector<HeldToken> held;
  std::optional<Writer> request;
  bool cancelled = false;
  {
    OrderedLockGuard low(cv->low);
    bool all_cached = true;
    for (uint64_t b = win.start_block; b < win.start_block + win.blocks; ++b) {
      if (cv->cached_blocks.count(b) == 0) {
        all_cached = false;
        break;
      }
    }
    // A warm rescan finds the window resident and skips the fetch; a seek,
    // close or revocation since `gen` was read cancels it.
    cancelled = !all_cached && cv->prefetch_gen != gen;
    if (!all_cached && !cancelled) {
      // Counted like any foreground fetch: revocations for tokens this very
      // RPC may be granting get queued (Section 6.3) instead of bounced.
      cv->rpc_in_flight += 1;
      uint32_t want = MissingTypesLocked(*cv, kTokenDataRead | kTokenStatusRead, trange, &held);
      request = FetchRequest(cv->fid, off, len_bytes, want, trange, /*token_only=*/false);
    }
  }
  if (!request.has_value()) {
    if (cancelled) {
      MutexLock lock(mu_);
      stats_.prefetch_cancelled += 1;
    }
    prefetcher_->WindowDone(cv->fid, win.start_block);
    return !cancelled;
  }
  {
    MutexLock lock(mu_);
    stats_.prefetch_issued += 1;
  }
  auto call = std::make_shared<SentCall>(
      this, RouteVolume(cv->fid.volume, /*refresh=*/false, /*allow_recovery=*/true), kFetchData,
      std::move(*request));
  CVnodeRef ref = cv;
  auto harvest = [this, ref, win, gen, held, call] {
    HarvestWindow(*ref, win, gen, held, *call);
  };
  if (!prefetcher_->Submit(harvest)) {
    harvest();  // the granted token must be installed or returned either way
  }
  return true;
}

void CacheManager::HarvestWindow(CVnode& cv, Prefetcher::Window win, uint64_t gen,
                                 std::vector<HeldToken> held, SentCall& call) {
  uint64_t off = win.start_block * kBlockSize;
  uint64_t len = uint64_t{win.blocks} * kBlockSize;
  Result<WireMessage> payload = call.Finish(cv.fid.volume, nullptr);
  {
    OrderedLockGuard low(cv.low);
    cv.rpc_in_flight -= 1;
    if (payload.ok()) {
      // A revocation (or seek/close) that raced us wins: its generation bump
      // keeps our data out of the cache. The reply's token and sync info are
      // installed regardless — a granted token dropped on the floor would
      // leak at the server, and DrainPendingLocked below hands it straight
      // to any revocation that was queued against it.
      bool live = cv.prefetch_gen == gen;
      (void)InstallFetchReplyLocked(cv, off, len, *payload, /*install_data=*/live,
                                    /*mark_prefetched=*/live, held, nullptr);
      if (!live) {
        MutexLock lock(mu_);
        stats_.prefetch_cancelled += 1;
      }
    }
    auto to_return = DrainPendingLocked(cv);
    for (const auto& [id, types] : to_return) {
      (void)ReturnToken(cv.fid, id, types);
    }
  }
  prefetcher_->WindowDone(cv.fid, win.start_block);
  MaybeEvict();  // prefetched blocks add cache pressure; pay it here, not in Read
}

Status CacheManager::EnsureStatus(CVnode& cv) {
  {
    OrderedLockGuard low(cv.low);
    if (cv.attr_valid && HasTokenLocked(cv, kTokenStatusRead, ByteRange::All())) {
      Count(hits_.attr_cache_hits);
      return Status::Ok();
    }
    cv.rpc_in_flight += 1;
  }
  Writer w;
  PutFid(w, cv.fid);
  w.PutU32(kTokenStatusRead);
  auto payload = CallVolume(cv.fid.volume, kFetchStatus, w);

  OrderedLockGuard low(cv.low);
  cv.rpc_in_flight -= 1;
  Status result = [&]() -> Status {
    cv.low.AssertHeld();  // the enclosing scope's guard; lambdas are analyzed alone
    RETURN_IF_ERROR(payload.status());
    Reader r(*payload);
    ASSIGN_OR_RETURN(bool has_token, r.ReadBool());
    Token token;
    if (has_token) {
      ASSIGN_OR_RETURN(token, Token::Deserialize(r));
    }
    ASSIGN_OR_RETURN(SyncInfo sync, ReadSyncInfo(r));
    MergeSyncLocked(cv, sync);
    if (has_token) {
      AddTokenLocked(cv, token);
    }
    cv.attr_valid = true;
    // A freshly fetched status token only vouches for the directory from this
    // moment on; lookup results and listings cached while we held no token
    // may already be stale — drop them.
    cv.lookup_cache.clear();
    cv.listing_valid = false;
    return Status::Ok();
  }();
  auto to_return = DrainPendingLocked(cv);
  for (const auto& [id, types] : to_return) {
    (void)ReturnToken(cv.fid, id, types);
  }
  return result;
}

// --- Revocation handler (server -> client RPC, dedicated pool) ---

uint8_t CacheManager::HandleOneRevocation(const Token& token, uint32_t types, uint64_t stamp) {
  CVnodeRef cv = GetCVnode(token.fid);
  OrderedLockGuard low(cv->low);
  {
    MutexLock lock(mu_);
    stats_.revocations_handled += 1;
  }
  bool known = false;
  for (const Token& t : cv->tokens) {
    if (t.id == token.id) {
      known = true;
      break;
    }
  }
  if (!known) {
    if (cv->rpc_in_flight > 0) {
      // Section 6.3: the grant may be in a reply we have not processed yet.
      cv->pending.push_back(PendingRevocation{token, types, stamp});
      {
        MutexLock lock(mu_);
        stats_.revocations_deferred += 1;
      }
      return kRevokeDeferred;
    }
    return kRevokeReturned;  // never had it / already gone
  }
  if ((types & kTokenOpenMask) != 0 && cv->open_count > 0) {
    // Open tokens for files we actually have open are not returned
    // (Section 5.3: "this is the normal action").
    return kRevokeRefused;
  }
  if ((types & (kTokenLockRead | kTokenLockWrite)) != 0 && !cv->local_locks.empty()) {
    return kRevokeRefused;
  }
  Status applied = ApplyRevocationLocked(*cv, token, types, stamp);
  return applied.ok() ? kRevokeReturned : kRevokeDeferred;
}

Result<WireMessage> CacheManager::Handle(const RpcRequest& req) {
  Reader r(req.payload);
  if (req.proc == kRevokeToken) {
    auto parse = [&]() -> Result<std::tuple<Token, uint32_t, uint64_t>> {
      ASSIGN_OR_RETURN(Token token, Token::Deserialize(r));
      ASSIGN_OR_RETURN(uint32_t types, r.ReadU32());
      ASSIGN_OR_RETURN(uint64_t stamp, r.ReadU64());
      return std::make_tuple(token, types, stamp);
    };
    auto parsed = parse();
    if (!parsed.ok()) {
      return EncodeErrorReply(parsed.status());
    }
    auto [token, types, stamp] = *parsed;
    Writer w;
    w.PutU8(HandleOneRevocation(token, types, stamp));
    return EncodeOkReply(std::move(w));
  }
  if (req.proc == kRevokeTokenBatch) {
    // One fan-out round's revocations against this client, coalesced into a
    // single RPC; the verdicts come back in item order.
    auto handle = [&]() -> Result<Writer> {
      ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
      Writer w;
      w.PutU32(count);
      for (uint32_t i = 0; i < count; ++i) {
        ASSIGN_OR_RETURN(Token token, Token::Deserialize(r));
        ASSIGN_OR_RETURN(uint32_t types, r.ReadU32());
        ASSIGN_OR_RETURN(uint64_t stamp, r.ReadU64());
        w.PutU8(HandleOneRevocation(token, types, stamp));
      }
      {
        MutexLock lock(mu_);
        stats_.revocation_batches += 1;
      }
      return w;
    };
    auto body = handle();
    if (!body.ok()) {
      return EncodeErrorReply(body.status());
    }
    return EncodeOkReply(std::move(*body));
  }
  return EncodeErrorReply(Status(ErrorCode::kNotSupported, "unknown client procedure"));
}

// --- Public operations ---

Result<VfsRef> CacheManager::MountVolume(const std::string& name) {
  ASSIGN_OR_RETURN(VolumeLocation loc, vldb_.LookupByName(name));
  return MountVolumeById(loc.volume_id);
}

Result<VfsRef> CacheManager::MountVolumeById(uint64_t volume_id) {
  return VfsRef(std::make_shared<DfsVfs>(this, volume_id));
}

Result<OpenHandle> CacheManager::Open(Vfs& vfs, const std::string& path, OpenMode mode) {
  ASSIGN_OR_RETURN(VnodeRef vnode, ResolvePath(vfs, path));
  Fid fid = vnode->fid();
  CVnodeRef cv = GetCVnode(fid);
  OrderedLockGuard high(cv->high);

  uint32_t type = OpenTokenFor(mode);
  Writer w;
  PutFid(w, fid);
  w.PutU32(type);
  w.PutU64(0);
  w.PutU64(UINT64_MAX);
  auto payload = CallVolume(fid.volume, kGetToken, w);
  if (!payload.ok()) {
    if (payload.code() == ErrorCode::kConflict) {
      return Status(ErrorCode::kTextBusy, "open mode conflicts with another client's open");
    }
    return payload.status();
  }
  Reader r(*payload);
  ASSIGN_OR_RETURN(Token token, Token::Deserialize(r));
  {
    OrderedLockGuard low(cv->low);
    AddTokenLocked(*cv, token);
    cv->open_count += 1;
  }
  return OpenHandle(this, fid, token.id, token.types);
}

Status CacheManager::Fsync(const Fid& fid) {
  CVnodeRef cv = GetCVnode(fid);
  {
    OrderedLockGuard high(cv->high);
    // With the high lock held nothing new gets dirty, so a dirty block below
    // EOF now is one this push stores (a run past EOF is discarded instead).
    bool pushes = false;
    uint64_t store_backs = 0;
    {
      OrderedLockGuard low(cv->low);
      pushes = !cv->dirty_blocks.empty() && *cv->dirty_blocks.begin() * kBlockSize < cv->attr.size;
      store_backs = cv->store_backs;
    }
    RETURN_IF_ERROR(FsyncHighLocked(*cv, /*force_log=*/true));
    OrderedLockGuard low(cv->low);
    if (pushes && cv->store_backs == store_backs) {
      return Status::Ok();  // every store forced the server's log as it answered
    }
  }
  // Nothing was pushed, or a revocation store-back (which forces nothing)
  // pushed some of it while we ran: make the server's metadata durable with
  // a log flush of its own — the full fsync contract.
  Writer w;
  w.PutU64(fid.volume);
  return CallVolume(fid.volume, kSyncVolume, w).status();
}

// Pushes the dirty runs one at a time, releasing the low-level lock across
// each normal store RPC (the rule of Section 6.1: the low lock is never held
// over a client-initiated call, because the server may be holding its vnode
// lock while revoking one of our tokens — which needs our low lock).
Status CacheManager::FsyncHighLocked(CVnode& cv, bool force_log) {
  for (;;) {
    uint64_t offset = 0;
    uint64_t run_len = 0;
    std::vector<BufferSlice> parts;  // one per block of the run, in block order
    {
      OrderedLockGuard low(cv.low);
      if (cv.dirty_lost) {
        // A server restart rejected this file's reassertion while it had dirty
        // data; that data is gone. The caller gets the error once, then the
        // flag clears.
        cv.dirty_lost = false;
        return Status(ErrorCode::kIoError,
                      "dirty data discarded: write token lost in server restart");
      }
      if (cv.dirty_blocks.empty()) {
        return Status::Ok();
      }
      uint64_t first = *cv.dirty_blocks.begin();
      uint64_t last = first;
      while (cv.dirty_blocks.count(last + 1) != 0) {
        ++last;
      }
      offset = first * kBlockSize;
      uint64_t end = std::min<uint64_t>((last + 1) * kBlockSize, cv.attr.size);
      if (end <= offset) {
        for (uint64_t b = first; b <= last; ++b) {
          cv.dirty_blocks.erase(b);
        }
        continue;  // run past EOF (truncate): discard it and look again
      }
      run_len = end - offset;
      parts = RunSlicesLocked(cv, first, run_len);
    }
    // The run drains as block-aligned chunks (one when it fits max_rpc_bytes)
    // pipelined from this thread. Each chunk is all-or-retry — a successful
    // chunk's blocks come off the dirty set as its reply lands (the server
    // has them), and the sync infos merge under the stamp rule.
    std::vector<Chunk> chunks = ChunksOf(offset, run_len, options_.max_rpc_bytes);
    if (chunks.size() > 1) {
      MutexLock lock(mu_);
      stats_.bulk_rpcs_split += 1;
    }
    std::vector<Status> statuses(chunks.size(), Status::Ok());
    // Stores the chunks listed in `idx`, recording each one's outcome.
    auto store_chunks = [&](const std::vector<size_t>& idx) {
      CallChunks(
          cv.fid.volume, kStoreData, idx.size(),
          [&](size_t k) {
            const Chunk& c = chunks[idx[k]];
            uint64_t first = BlockOf(c.off);
            return StoreBody(cv.fid, c.off,
                             std::span<const BufferSlice>(parts).subspan(
                                 first - BlockOf(offset), BlockEnd(c.off, c.len) - first),
                             force_log);
          },
          &cv.fid,
          [&](size_t k, Result<WireMessage> payload) {
            size_t i = idx[k];
            statuses[i] = [&]() -> Status {
              RETURN_IF_ERROR(payload.status());
              Reader r(*payload);
              ASSIGN_OR_RETURN(SyncInfo sync, ReadSyncInfo(r));
              uint64_t first = BlockOf(chunks[i].off);
              uint64_t end = BlockEnd(chunks[i].off, chunks[i].len);
              OrderedLockGuard low(cv.low);
              for (uint64_t b = first; b < end; ++b) {
                cv.dirty_blocks.erase(b);
              }
              if (cv.dirty_blocks.empty()) {
                cv.attr_dirty = false;  // the server has everything; its attr rules again
              }
              StoreMarkCleanLocked(cv, first, end - 1, sync);
              MergeSyncLocked(cv, sync);
              JournalAttrLocked(cv);
              return Status::Ok();
            }();
          });
    };
    std::vector<size_t> all(chunks.size());
    std::iota(all.begin(), all.end(), size_t{0});
    store_chunks(all);
    for (int attempt = 0; attempt < 8; ++attempt) {
      // kConflict: our write token is gone — the server restarted, or a peer's
      // grant revoked it while the chunk was on the wire. In the latter case
      // the revocation handler's pre-authorized store-back may have pushed the
      // chunk already: if none of its blocks is dirty any more, the server has
      // that data and the chunk counts as stored. The rest re-acquire the token
      // in one refetch covering the whole run and retry (bounded, like
      // Read/Write's grant loops, so a storm of reader grants cannot starve the
      // store on one bounce); dirty blocks are immune to the refetch, so no
      // local data is lost.
      std::vector<size_t> retry_idx;
      {
        OrderedLockGuard low(cv.low);
        for (size_t i = 0; i < chunks.size(); ++i) {
          if (statuses[i].code() != ErrorCode::kConflict) {
            continue;
          }
          bool still_dirty = false;
          for (uint64_t b = BlockOf(chunks[i].off); b < BlockEnd(chunks[i].off, chunks[i].len);
               ++b) {
            if (cv.dirty_blocks.count(b) != 0) {
              still_dirty = true;
              break;
            }
          }
          if (still_dirty) {
            retry_idx.push_back(i);
          } else {
            statuses[i] = Status::Ok();
          }
        }
      }
      if (retry_idx.empty()) {
        break;
      }
      Status refetch = FetchAndInstall(
          cv, offset, run_len,
          kTokenDataRead | kTokenDataWrite | kTokenStatusRead | kTokenStatusWrite);
      if (!refetch.ok()) {
        if (refetch.code() == ErrorCode::kTimedOut) {
          continue;  // the grant lost a deferred-revocation cycle; retry
        }
        for (size_t i : retry_idx) {
          statuses[i] = refetch;
        }
        break;
      }
      store_chunks(retry_idx);
    }
    Status store_result = Status::Ok();
    for (const Status& s : statuses) {  // first error in chunk order wins
      if (!s.ok()) {
        store_result = s;
        break;
      }
    }
    if (store_result.code() == ErrorCode::kStale) {
      // The file itself is gone (deleted remotely, or lost with an unsynced
      // server crash): there is nothing to store into. Drop our cached state
      // and report the staleness.
      OrderedLockGuard low(cv.low);
      cv.prefetch_gen += 1;
      for (uint64_t b : cv.cached_blocks) {
        NotePrefetchDropLocked(cv, b);
        store_->Erase(cv.fid, b);
        RemoveLru(cv.fid, b);
      }
      cv.cached_blocks.clear();
      cv.dirty_blocks.clear();
      cv.attr_valid = false;
      cv.attr_dirty = false;
      return store_result;
    }
    RETURN_IF_ERROR(store_result);
    MutexLock lock(mu_);
    stats_.dirty_stores += 1;
  }
}

// --- keep-alive daemon ---

void CacheManager::KeepAliveLoop() {
  UniqueMutexLock lock(keepalive_mu_);
  while (!keepalive_shutdown_) {
    (void)keepalive_cv_.WaitFor(lock,
                                std::chrono::milliseconds(options_.keepalive_interval_ms));
    if (keepalive_shutdown_) {
      return;
    }
    lock.Unlock();
    KeepAlivePass();
    lock.Lock();
  }
}

void CacheManager::KeepAlivePass() {
  std::vector<NodeId> servers;
  {
    MutexLock lock(mu_);
    servers.assign(connected_.begin(), connected_.end());
    // Also probe servers we know an epoch for but are not connected to: a
    // reconnect that failed mid-recovery (the server was still down) erased
    // the connection, and the ping is what discovers the server came back —
    // reassertion must not have to wait for foreground traffic.
    for (const auto& [server, epoch] : server_epochs_) {
      if (std::find(servers.begin(), servers.end(), server) == servers.end()) {
        servers.push_back(server);
      }
    }
  }
  // Pipelined pings: issue one kKeepAlive per server before waiting for any
  // reply, so a slow (or dead) server does not delay the others' renewals.
  std::vector<Network::PendingCall> pings;
  pings.reserve(servers.size());
  for (NodeId server : servers) {
    Writer w;
    {
      MutexLock lock(mu_);
      stats_.keepalives_sent += 1;
    }
    pings.push_back(network_.CallAsync(options_.node, server, kKeepAlive, w.data(),
                                       ticket_.principal, EpochFor(server)));
  }
  for (size_t i = 0; i < servers.size(); ++i) {
    NodeId server = servers[i];
    auto payload = UnwrapReply(pings[i].Wait());
    if (!payload.ok()) {
      if (payload.code() == ErrorCode::kAuthFailed ||
          payload.code() == ErrorCode::kStaleEpoch) {
        // The server does not know us anymore: it restarted and lost its
        // host module. Reconnect and reassert right away rather than letting
        // a foreground operation trip over it.
        (void)HandleStaleEpoch(server, nullptr);
      }
      // Otherwise down or partitioned: nothing to renew; the lease lapses as
      // designed.
      continue;
    }
    if (network_.clock() != nullptr) {
      last_contact_ns_.store(network_.clock()->Now(), std::memory_order_relaxed);
    }
    Reader r(*payload);
    auto epoch = r.ReadU64();
    if (epoch.ok() && *epoch != 0 && *epoch != EpochFor(server)) {
      // The server restarted between data RPCs; reassert before a foreground
      // operation trips over kStaleEpoch.
      (void)HandleStaleEpoch(server, nullptr);
    }
  }
  // The daemon already woke up; use the pass for journal maintenance too.
  MaybeCheckpointJournal();
}

void CacheManager::MaybeCheckpointJournal() {
  if (persist_ == nullptr || options_.journal_checkpoint_appends == 0) {
    return;
  }
  if (persist_->journal_appends_since_checkpoint() < options_.journal_checkpoint_appends) {
    return;
  }
  if (persist_->SelfCheckpoint().ok()) {
    MutexLock lock(mu_);
    stats_.journal_checkpoints += 1;
  }
}

Status CacheManager::SyncAll() {
  std::vector<CVnodeRef> cvs;
  {
    MutexLock lock(mu_);
    for (auto& [fid, cv] : cvnodes_) {
      cvs.push_back(cv);
    }
  }
  for (CVnodeRef& cv : cvs) {
    bool has_dirty;
    {
      OrderedLockGuard low(cv->low);
      has_dirty = !cv->dirty_blocks.empty();
    }
    if (has_dirty) {
      RETURN_IF_ERROR(Fsync(cv->fid));
    }
  }
  return Status::Ok();
}

Status CacheManager::ReturnAllTokens() {
  std::vector<CVnodeRef> cvs;
  {
    MutexLock lock(mu_);
    for (auto& [fid, cv] : cvnodes_) {
      cvs.push_back(cv);
    }
  }
  for (CVnodeRef& cv : cvs) {
    std::vector<Token> tokens;
    {
      OrderedLockGuard high(cv->high);
      Status s = FsyncHighLocked(*cv, /*force_log=*/false);
      if (!s.ok() && s.code() != ErrorCode::kStale) {
        return s;  // stale = the file no longer exists; nothing to push
      }
    }
    {
      OrderedLockGuard low(cv->low);
      tokens = cv->tokens;
      for (const Token& t : tokens) {
        JournalEraseLocked(*cv, t);
      }
      cv->tokens.clear();
      cv->attr_valid = false;
      cv->listing_valid = false;
      cv->lookup_cache.clear();
      cv->prefetch_gen += 1;
      for (uint64_t b : cv->cached_blocks) {
        NotePrefetchDropLocked(*cv, b);
        store_->Erase(cv->fid, b);
        RemoveLru(cv->fid, b);
      }
      cv->cached_blocks.clear();
      cv->open_count = 0;
    }
    for (const Token& t : tokens) {
      (void)ReturnToken(cv->fid, t.id, t.types);
    }
  }
  return Status::Ok();
}

Status CacheManager::AcquireLockToken(const Fid& fid, bool exclusive, ByteRange range) {
  CVnodeRef cv = GetCVnode(fid);
  OrderedLockGuard high(cv->high);
  Writer w;
  PutFid(w, fid);
  w.PutU32(exclusive ? kTokenLockWrite : kTokenLockRead);
  w.PutU64(range.start);
  w.PutU64(range.end);
  ASSIGN_OR_RETURN(WireMessage payload, CallVolume(fid.volume, kGetToken, w));
  Reader r(payload);
  ASSIGN_OR_RETURN(Token token, Token::Deserialize(r));
  OrderedLockGuard low(cv->low);
  AddTokenLocked(*cv, token);
  return Status::Ok();
}

Status CacheManager::SetLock(const Fid& fid, ByteRange range, bool exclusive, uint64_t owner) {
  CVnodeRef cv = GetCVnode(fid);
  OrderedLockGuard high(cv->high);
  {
    OrderedLockGuard low(cv->low);
    uint32_t needed = exclusive ? kTokenLockWrite : kTokenLockRead;
    if (HasTokenLocked(*cv, needed, range)) {
      // With a lock token the server guarantees no conflicting locks exist;
      // record it locally with zero RPCs.
      cv->local_locks.push_back({range, owner});
      return Status::Ok();
    }
  }
  Writer w;
  PutFid(w, fid);
  w.PutU64(range.start);
  w.PutU64(range.end);
  w.PutBool(exclusive);
  w.PutU64(owner);
  return CallVolume(fid.volume, kSetLock, w).status();
}

Status CacheManager::ClearLock(const Fid& fid, ByteRange range, uint64_t owner) {
  CVnodeRef cv = GetCVnode(fid);
  OrderedLockGuard high(cv->high);
  {
    OrderedLockGuard low(cv->low);
    auto it = std::find_if(cv->local_locks.begin(), cv->local_locks.end(),
                           [&](const auto& l) { return l.first == range && l.second == owner; });
    if (it != cv->local_locks.end()) {
      cv->local_locks.erase(it);
      return Status::Ok();
    }
  }
  Writer w;
  PutFid(w, fid);
  w.PutU64(range.start);
  w.PutU64(range.end);
  w.PutU64(owner);
  return CallVolume(fid.volume, kClearLock, w).status();
}

}  // namespace dfs
