#include "src/tokens/token_manager.h"

#include <algorithm>
#include <set>
#include <utility>

namespace dfs {

namespace {
// Mixes volume ids (often small and sequential) into shard indices.
uint64_t MixVolume(uint64_t volume) {
  volume ^= volume >> 33;
  volume *= 0xff51afd7ed558ccdULL;
  volume ^= volume >> 33;
  return volume;
}

// Drops `id` from the index entry under `key`, pruning the entry once it is
// empty: files and volumes come and go (clones, moves, tests churning fids),
// and an entry per key ever seen would grow without bound.
template <typename Index, typename Key>
void EraseIndexed(Index& index, const Key& key, TokenId id) {
  auto it = index.find(key);
  if (it == index.end()) {
    return;
  }
  auto& ids = it->second;
  ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
  if (ids.empty()) {
    index.erase(it);
  }
}
}  // namespace

TokenManager::TokenManager(const Options& options) : options_(options) {}

TokenManager::~TokenManager() = default;

size_t TokenManager::ShardIndex(uint64_t volume) { return MixVolume(volume) % kShards; }

void TokenManager::RegisterHost(HostId host, TokenHost* handler) {
  SharedOrderedLockGuard lock(host_mu_);
  hosts_[host] = handler;
}

void TokenManager::UnregisterHost(HostId host) {
  {
    SharedOrderedLockGuard lock(host_mu_);
    hosts_.erase(host);
  }
  // Per-shard cleanup after the registry lock is released: kTokenShard sits
  // below kHostRegistry in the hierarchy, so the two are never nested this
  // way around.
  for (Shard& shard : shards_) {
    ShardGuard lock(shard);
    for (auto it = shard.tokens.begin(); it != shard.tokens.end();) {
      if (it->second.host == host) {
        UnindexLocked(shard, it->second);
        it = shard.tokens.erase(it);
      } else {
        ++it;
      }
    }
    shard.returned_cv.notify_all();
  }
}

void TokenManager::InsertTokenLocked(Shard& shard, const Token& token) {
  shard.tokens.emplace(token.id, token);
  shard.by_fid[token.fid].push_back(token.id);
  if ((token.types & kTokenWholeVolume) != 0) {
    shard.whole_volume[token.fid.volume].push_back(token.id);
  }
}

void TokenManager::UnindexLocked(Shard& shard, const Token& token) {
  EraseIndexed(shard.by_fid, token.fid, token.id);
  if ((token.types & kTokenWholeVolume) != 0) {
    EraseIndexed(shard.whole_volume, token.fid.volume, token.id);
  }
}

std::vector<std::pair<Token, uint32_t>> TokenManager::ConflictsLocked(
    const Shard& shard, HostId host, const Fid& fid, uint32_t types,
    const ByteRange& range) const {
  std::vector<std::pair<Token, uint32_t>> conflicts;
  auto consider = [&](TokenId id) {
    const Token& t = shard.tokens.at(id);
    if (t.host == host) {
      return;  // a host never conflicts with itself
    }
    bool same_file = (t.fid == fid);
    bool volume_scope = (t.types & kTokenWholeVolume) || (types & kTokenWholeVolume);
    if (!same_file && !volume_scope) {
      return;
    }
    // Only the conflicting *types* of the token need revoking; the holder
    // keeps the rest (e.g. byte-range data tokens survive a status handoff).
    uint32_t conflicting = ConflictingTypes(t.types, t.range, types, range);
    if (conflicting != 0) {
      conflicts.push_back({t, conflicting});
    }
  };
  if ((types & kTokenWholeVolume) != 0) {
    // A whole-volume request conflicts with write-class tokens on any file.
    for (const auto& [file, ids] : shard.by_fid) {
      if (file.volume == fid.volume) {
        for (TokenId id : ids) {
          consider(id);
        }
      }
    }
    return conflicts;
  }
  auto fit = shard.by_fid.find(fid);
  if (fit != shard.by_fid.end()) {
    for (TokenId id : fit->second) {
      consider(id);
    }
  }
  auto vit = shard.whole_volume.find(fid.volume);
  if (vit != shard.whole_volume.end()) {
    for (TokenId id : vit->second) {
      // A whole-volume token on the requested fid itself ({volume, 0, 0})
      // was already seen among that fid's holders.
      if (shard.tokens.at(id).fid != fid) {
        consider(id);
      }
    }
  }
  return conflicts;
}

bool TokenManager::RelinquishedLocked(const Shard& shard, TokenId id, uint32_t types) const {
  auto it = shard.tokens.find(id);
  return it == shard.tokens.end() || (it->second.types & types) == 0;
}

void TokenManager::EraseTokenTypesLocked(Shard& shard, TokenId id, uint32_t types) {
  auto it = shard.tokens.find(id);
  if (it == shard.tokens.end()) {
    return;
  }
  Token& t = it->second;
  if (t.types == (t.types & types)) {
    UnindexLocked(shard, t);
    shard.tokens.erase(it);
    return;
  }
  if ((t.types & types & kTokenWholeVolume) != 0) {
    // The token lives on for its other types but no longer spans the volume.
    EraseIndexed(shard.whole_volume, t.fid.volume, id);
  }
  t.types &= ~types;
}

TokenManager::IssueResult TokenManager::IssueRevokes(std::vector<RevokeOutcome>& outcomes) {
  IssueResult result;
  // Group the round's outcomes by holder host: every host gets exactly one
  // callback — Revoke for a single token, RevokeBatch (one RPC on the wire)
  // when several of its tokens conflict at once. Groups hold indices into
  // `outcomes`, so statuses land back in their slots.
  std::vector<std::pair<TokenHost*, std::vector<size_t>>> groups;
  std::unordered_map<HostId, size_t> group_of;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    auto [it, inserted] = group_of.emplace(outcomes[i].token.host, groups.size());
    if (inserted) {
      groups.push_back({outcomes[i].handler, {}});
    }
    groups[it->second].second.push_back(i);
  }
  for (const auto& [handler, idx] : groups) {
    if (handler != nullptr && idx.size() >= 2) {
      result.host_batches += 1;
    }
  }

  auto run_group = [&outcomes](TokenHost* handler, const std::vector<size_t>& idx) {
    std::string holder = handler != nullptr ? handler->name() : "unknown";
    for (size_t i : idx) {
      outcomes[i].holder = holder;
    }
    if (handler == nullptr) {  // host gone or lease lapsed: drop its tokens
      for (size_t i : idx) {
        outcomes[i].status = Status::Ok();
      }
      return;
    }
    if (idx.size() == 1) {
      RevokeOutcome& o = outcomes[idx[0]];
      o.status = handler->Revoke(o.token, o.types);
      return;
    }
    std::vector<TokenHost::RevokeItem> items;
    items.reserve(idx.size());
    for (size_t i : idx) {
      items.push_back({outcomes[i].token, outcomes[i].types});
    }
    std::vector<Status> statuses = handler->RevokeBatch(items);
    for (size_t k = 0; k < idx.size(); ++k) {
      outcomes[idx[k]].status =
          k < statuses.size() ? statuses[k]
                              : Status(ErrorCode::kInternal, "short RevokeBatch reply");
    }
  };

  if (options_.revoke_fanout_threads == 0 || groups.size() < 2) {
    for (const auto& [handler, idx] : groups) {
      run_group(handler, idx);
    }
    return result;
  }
  ThreadPool* pool = nullptr;
  {
    MutexLock lock(pool_mu_);
    if (revoke_pool_ == nullptr) {
      revoke_pool_ =
          std::make_unique<ThreadPool>(options_.revoke_fanout_threads, "revoke-fanout");
    }
    pool = revoke_pool_.get();
  }
  // Batch-completion latch. Workers only touch their own group's outcome
  // slots, so the latch is the sole shared state.
  // LOCK-EXEMPT(leaf): batch-local latch; never held across any other lock.
  Mutex done_mu;
  CondVar done_cv;
  size_t pending = groups.size();
  for (auto& [handler, idx] : groups) {
    bool submitted =
        pool->Submit([handler = handler, &idx, &run_group, &done_mu, &done_cv, &pending] {
          run_group(handler, idx);
          MutexLock lock(done_mu);
          --pending;
          done_cv.NotifyOne();
        });
    if (!submitted) {  // pool shutting down: fall back inline
      run_group(handler, idx);
      MutexLock lock(done_mu);
      --pending;
    }
  }
  UniqueMutexLock lock(done_mu);
  while (pending > 0) {
    done_cv.Wait(lock);
  }
  result.used_pool = true;
  return result;
}

Status TokenManager::RevokeConflicts(Shard& shard,
                                     std::vector<std::pair<Token, uint32_t>> conflicts) {
  // Re-filter under the shard lock (another grant's revocations may have
  // already cleared some), then resolve handlers. The registry read nests
  // inside the shard lock: kHostRegistry > kTokenShard.
  std::vector<RevokeOutcome> outcomes;
  outcomes.reserve(conflicts.size());
  {
    ShardGuard lock(shard);
    SharedOrderedReadGuard hosts_lock(host_mu_);
    for (auto& [conflict, conflicting_types] : conflicts) {
      auto tit = shard.tokens.find(conflict.id);
      if (tit == shard.tokens.end() || (tit->second.types & conflicting_types) == 0) {
        continue;  // already relinquished by someone else's revocation
      }
      RevokeOutcome o;
      o.token = conflict;
      o.types = conflicting_types;
      auto hit = hosts_.find(conflict.host);
      o.handler = (hit != hosts_.end()) ? hit->second : nullptr;
      if (o.handler != nullptr && options_.host_silent && options_.host_silent(conflict.host)) {
        // The holder's lease lapsed: garbage-collect its token instead of
        // waiting on a callback it will never answer (the paper's token
        // lifetimes; Lustre's eviction).
        o.handler = nullptr;
        shard.stats.lease_expired_drops += 1;
      }
      outcomes.push_back(std::move(o));
    }
  }
  if (outcomes.empty()) {
    return Status::Ok();  // nothing left to do: caller re-scans
  }

  // Issue every Revoke with no shard lock held: each may be a blocking RPC
  // whose handler calls back into this manager.
  IssueResult issued = IssueRevokes(outcomes);

  // Merge. All callbacks have completed, so relinquished tokens are erased
  // even when some other holder refused — their holders already gave them up.
  std::vector<std::pair<TokenId, uint32_t>> deferred;
  Status refusal = Status::Ok();
  {
    ShardGuard lock(shard);
    shard.stats.revocations += outcomes.size();
    if (issued.used_pool) {
      shard.stats.fanout_batches += 1;
    }
    shard.stats.host_batches += issued.host_batches;
    bool erased_any = false;
    for (const auto& o : outcomes) {
      if (o.status.ok()) {
        EraseTokenTypesLocked(shard, o.token.id, o.types);
        erased_any = true;
      } else if (o.status.code() == ErrorCode::kWouldBlock) {
        // Deferred: the holder will call Return() once its in-flight RPC
        // completes (Section 6.3's queued-revocation case).
        shard.stats.deferred_returns += 1;
        deferred.push_back({o.token.id, o.types});
      } else {
        shard.stats.refusals += 1;
        if (refusal.ok()) {
          refusal = Status(ErrorCode::kConflict,
                           "token held by " + o.holder +
                               " was not relinquished: " + TokenTypesToString(o.types));
        }
      }
    }
    if (erased_any) {
      shard.returned_cv.notify_all();
    }
  }
  // A refusal fails the grant outright — don't burn the deferred-return
  // timeout waiting for returns that can no longer help.
  if (!refusal.ok()) {
    return refusal;
  }

  if (!deferred.empty()) {
    // One shared deadline for the whole round: the deferrals were issued
    // together, so they time out together — N deferring holders cost one
    // timeout budget, not N.
    auto deadline = std::chrono::steady_clock::now() + options_.deferred_return_timeout;
    // Counted by hand: the condvar wait needs the raw OrderedUniqueLock, not
    // the counting ShardGuard.
    shard.lock_acquisitions.fetch_add(1, std::memory_order_relaxed);
    OrderedUniqueLock lock(shard.mu);
    for (;;) {
      bool all = true;
      for (const auto& [id, types] : deferred) {
        if (!RelinquishedLocked(shard, id, types)) {
          all = false;
          break;
        }
      }
      if (all) {
        break;
      }
      if (shard.returned_cv.wait_until(lock, deadline) == std::cv_status::timeout) {
        bool relinquished = true;
        for (const auto& [id, types] : deferred) {
          if (!RelinquishedLocked(shard, id, types)) {
            relinquished = false;
            break;
          }
        }
        if (!relinquished) {
          return Status(ErrorCode::kTimedOut, "deferred token return never arrived");
        }
        break;
      }
    }
  }
  return Status::Ok();
}

Result<Token> TokenManager::Grant(HostId host, const Fid& fid, uint32_t types,
                                  ByteRange range) {
  const size_t index = ShardIndex(fid.volume);
  Shard& shard = shards_[index];
  for (int round = 0; round < 64; ++round) {
    std::vector<std::pair<Token, uint32_t>> conflicts;
    {
      ShardGuard lock(shard);
      conflicts = ConflictsLocked(shard, host, fid, types, range);
      if (!conflicts.empty() && options_.host_silent) {
        // Lease fast path: when *every* conflicting holder's lease has
        // already lapsed, their tokens are garbage — reap them under the
        // scan's own lock hold and mint immediately, skipping the
        // revocation fan-out round (and its handler resolution) entirely.
        bool all_silent = true;
        for (const auto& [conflict, conflicting_types] : conflicts) {
          if (!options_.host_silent(conflict.host)) {
            all_silent = false;
            break;
          }
        }
        if (all_silent) {
          for (const auto& [conflict, conflicting_types] : conflicts) {
            EraseTokenTypesLocked(shard, conflict.id, conflicting_types);
            shard.stats.lease_expired_drops += 1;
          }
          shard.stats.lease_fast_path_grants += 1;
          shard.returned_cv.notify_all();
          conflicts.clear();
        }
      }
      if (conflicts.empty()) {
        Token token;
        token.id = next_id_.fetch_add(1, std::memory_order_relaxed) * kShards + index;
        token.fid = fid;
        token.types = types;
        token.range = range;
        token.host = host;
        InsertTokenLocked(shard, token);
        shard.stats.grants += 1;
        return token;
      }
    }
    Status s = RevokeConflicts(shard, std::move(conflicts));
    if (!s.ok()) {
      return s;
    }
    // Loop: re-scan. New conflicting grants may have slipped in.
  }
  return Status(ErrorCode::kTimedOut, "grant retry limit exceeded (revocation livelock)");
}

Status TokenManager::Reassert(const Token& token) {
  const size_t index = ShardIndex(token.fid.volume);
  Shard& shard = shards_[index];
  ShardGuard lock(shard);
  if (token.id % kShards != index) {
    // Every minted id names its fid's shard; this one cannot have been
    // granted for this fid.
    shard.stats.reassert_conflicts += 1;
    return Status(ErrorCode::kConflict, "token id does not match its fid's shard");
  }
  auto it = shard.tokens.find(token.id);
  if (it != shard.tokens.end()) {
    if (it->second.host == token.host && it->second.fid == token.fid) {
      return Status::Ok();  // duplicate reassertion from the same holder
    }
    shard.stats.reassert_conflicts += 1;
    return Status(ErrorCode::kConflict, "token id already in use");
  }
  // First-wins: a conflicting grant (or reassertion) that beat us here keeps
  // its tokens — reassertion never revokes.
  if (!ConflictsLocked(shard, token.host, token.fid, token.types, token.range).empty()) {
    shard.stats.reassert_conflicts += 1;
    return Status(ErrorCode::kConflict, "reassertion lost to a conflicting grant");
  }
  InsertTokenLocked(shard, token);
  shard.stats.reasserts += 1;
  // Fresh grants must mint ids above every reasserted one.
  TokenId seq = token.id / kShards;
  TokenId cur = next_id_.load(std::memory_order_relaxed);
  while (cur <= seq &&
         !next_id_.compare_exchange_weak(cur, seq + 1, std::memory_order_relaxed)) {
  }
  return Status::Ok();
}

Status TokenManager::Return(TokenId id, uint32_t types) {
  Shard& shard = ShardOf(id);
  ShardGuard lock(shard);
  if (shard.tokens.count(id) == 0) {
    return Status(ErrorCode::kNotFound, "unknown token");
  }
  EraseTokenTypesLocked(shard, id, types);
  shard.returned_cv.notify_all();
  return Status::Ok();
}

bool TokenManager::HasToken(TokenId id) const {
  Shard& shard = ShardOf(id);
  ShardGuard lock(shard);
  return shard.tokens.count(id) != 0;
}

bool TokenManager::Covers(HostId host, const Fid& fid, uint32_t types,
                          const ByteRange& range) const {
  Shard& shard = ShardFor(fid.volume);
  ShardGuard lock(shard);
  auto fit = shard.by_fid.find(fid);
  for (uint32_t bit = 1; bit != 0 && types != 0; bit <<= 1) {
    if ((types & bit) == 0) {
      continue;
    }
    types &= ~bit;
    bool covered = CoveredByUnion(range, [&](const auto& extend) {
      shard.mu.AssertHeld();  // the enclosing guard; lambdas are analyzed alone
      if (fit == shard.by_fid.end()) {
        return;
      }
      for (TokenId id : fit->second) {
        const Token& t = shard.tokens.at(id);
        if (t.host == host && (t.types & bit) != 0) {
          extend(t);
        }
      }
    });
    if (!covered) {
      return false;
    }
  }
  return true;
}

std::vector<Token> TokenManager::TokensForFid(const Fid& fid) const {
  Shard& shard = ShardFor(fid.volume);
  ShardGuard lock(shard);
  std::vector<Token> out;
  auto fit = shard.by_fid.find(fid);
  if (fit == shard.by_fid.end()) {
    return out;
  }
  std::vector<TokenId> ids = fit->second;
  std::sort(ids.begin(), ids.end());  // id order, like a scan of `tokens`
  out.reserve(ids.size());
  for (TokenId id : ids) {
    out.push_back(shard.tokens.at(id));
  }
  return out;
}

std::vector<Token> TokenManager::TokensForHost(HostId host) const {
  std::vector<Token> out;
  for (Shard& shard : shards_) {
    ShardGuard lock(shard);
    for (const auto& [id, t] : shard.tokens) {
      if (t.host == host) {
        out.push_back(t);
      }
    }
  }
  return out;
}

TokenManager::Stats TokenManager::stats() const {
  Stats total;
  for (const Shard& shard : shards_) {
    // Uncounted lock: reading the counters is not a token operation.
    OrderedLockGuard lock(shard.mu);
    total.grants += shard.stats.grants;
    total.revocations += shard.stats.revocations;
    total.deferred_returns += shard.stats.deferred_returns;
    total.refusals += shard.stats.refusals;
    total.fanout_batches += shard.stats.fanout_batches;
    total.host_batches += shard.stats.host_batches;
    total.reasserts += shard.stats.reasserts;
    total.reassert_conflicts += shard.stats.reassert_conflicts;
    total.lease_expired_drops += shard.stats.lease_expired_drops;
    total.lease_fast_path_grants += shard.stats.lease_fast_path_grants;
    total.lock_acquisitions += shard.lock_acquisitions.load(std::memory_order_relaxed);
    total.lock_contended += shard.lock_contended.load(std::memory_order_relaxed);
  }
  return total;
}

size_t TokenManager::VolumeIndexEntries() const {
  std::set<uint64_t> volumes;
  for (Shard& shard : shards_) {
    ShardGuard lock(shard);
    for (const auto& [fid, ids] : shard.by_fid) {
      volumes.insert(fid.volume);
    }
  }
  return volumes.size();
}

}  // namespace dfs
