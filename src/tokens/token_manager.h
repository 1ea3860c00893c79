// The token manager (Section 3.1, 5): per-file grant bookkeeping and the
// revoke-before-grant protocol.
//
// Clients of the token manager — remote protocol-exporter hosts and the local
// glue layer alike — register a TokenHost with a virtual Revoke procedure
// (the paper's afs_host object). Granting a token first revokes every
// incompatible token held by *other* hosts:
//
//   - Revoke returning OK means the holder relinquished the token (writing
//     back dirty state first); the manager erases it and proceeds.
//   - kWouldBlock ("deferred", Section 6.3) means the holder will return the
//     token itself shortly via Return(); the manager waits on that.
//   - kBusy ("refused") means the holder elects to keep it (a lock or open
//     token in active use); the grant fails with kConflict.
//
// Two levels of parallelism keep the hot path fast:
//
//   - The bookkeeping is sharded by volume hash over a fixed kShards shards:
//     each shard has its own hierarchy-checked OrderedMutex
//     (LockLevel::kTokenShard), so grants on unrelated volumes never contend.
//     All state a single grant touches lives in one shard, because conflicts
//     are always same-file or whole-volume — both within the granting fid's
//     volume. A token id names its shard (id % kShards), so Return and
//     HasToken lock exactly that one.
//   - Within a shard, a per-file conflict index finds a grant's candidate
//     conflicts: the tokens on the requested fid plus the volume's
//     whole-volume tokens. A grant costs in proportion to that file's
//     holders, not to the volume's token population; only a whole-volume
//     request walks every file of its volume.
//   - Within a grant, each re-scan round collects *all* conflicts and issues
//     the Revoke callbacks concurrently on a bounded fan-out pool, so a
//     write-open on a file cached by N hosts costs ~1 revocation round-trip
//     instead of N. Results are merged under the shard lock: OK revocations
//     erase immediately, every kWouldBlock deferral waits on the shard's
//     returned-condvar under a single shared deadline, and any refusal
//     short-circuits the grant with kConflict.
//
// No shard lock is ever held across a Revoke call (which may be a blocking
// RPC); grants re-scan for conflicts after each revocation round until none
// remain.
#ifndef SRC_TOKENS_TOKEN_MANAGER_H_
#define SRC_TOKENS_TOKEN_MANAGER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/lock_order.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/tokens/token.h"

namespace dfs {

class TokenHost {
 public:
  // One revocation of a batch: the token and which of its types to give up.
  struct RevokeItem {
    Token token;
    uint32_t types = 0;
  };

  virtual ~TokenHost() = default;
  // Asks the holder to relinquish `types` of `token`. OK = relinquished now;
  // kWouldBlock = will be returned via TokenManager::Return shortly;
  // kBusy = refused (holder keeps it).
  virtual Status Revoke(const Token& token, uint32_t types) = 0;
  // Coalesced form: all of one fan-out round's revocations against this host
  // in a single callback (one RPC on the wire instead of N). Returns one
  // status per item, same meanings as Revoke. The default loops Revoke so
  // hosts that never batch keep working unchanged.
  virtual std::vector<Status> RevokeBatch(const std::vector<RevokeItem>& items) {
    std::vector<Status> out;
    out.reserve(items.size());
    for (const auto& item : items) {
      out.push_back(Revoke(item.token, item.types));
    }
    return out;
  }
  virtual std::string name() const = 0;
};

class TokenManager {
 public:
  // Volume-hash shards of the grant bookkeeping. A token id is
  // seq * kShards + shard, where shard is the fid's volume hash mod kShards.
  static constexpr size_t kShards = 8;

  struct Options {
    // Fan-out executor width for concurrent revocations. 0 issues revocations
    // serially in the granting thread (the ablation baseline).
    size_t revoke_fanout_threads = 4;
    // How long a grant waits for deferred token returns before giving up.
    // Long enough for a client to finish an in-flight RPC, short enough that
    // a dead client cannot wedge the server forever. One shared deadline
    // covers *all* deferrals of a revocation round. Must stay well below the
    // RPC call timeout: two clients whose in-flight fetches each trigger a
    // revocation of the other defer both revocations, and the cycle only
    // breaks when one grant gives up — its client's fetch then completes,
    // drains the queued revocation, and the other grant proceeds. If this
    // wait outlived the RPC deadline, the callers would time out first and
    // both fetches would fail instead of one retrying.
    std::chrono::milliseconds deferred_return_timeout{2'000};
    // Liveness hook (the paper's token lifetimes): when set and it returns
    // true for a host, that host's lease has lapsed and its tokens are
    // garbage-collected during conflict resolution instead of waiting on its
    // revoke callbacks. Unset = every host is live (the default).
    std::function<bool(HostId)> host_silent;
  };

  struct Stats {
    uint64_t grants = 0;
    uint64_t revocations = 0;
    uint64_t deferred_returns = 0;
    uint64_t refusals = 0;
    // Revocation rounds with >1 conflict dispatched through the fan-out pool.
    uint64_t fanout_batches = 0;
    // Per-host RevokeBatch callbacks that coalesced >= 2 tokens.
    uint64_t host_batches = 0;
    // Recovery protocol (server restart): tokens re-installed via Reassert,
    // and reassertions rejected because a conflicting grant got there first.
    uint64_t reasserts = 0;
    uint64_t reassert_conflicts = 0;
    // Tokens dropped because their holder's lease expired (host_silent).
    uint64_t lease_expired_drops = 0;
    // Grants whose conflicts were *all* expired-lease holders: the conflict
    // scan reaped them in place and minted without a revocation fan-out round.
    uint64_t lease_fast_path_grants = 0;
    // Shard-lock contention: exclusive acquisitions by token operations
    // (stats() itself does not count), and how many found the lock held.
    uint64_t lock_acquisitions = 0;
    uint64_t lock_contended = 0;
  };

  TokenManager() : TokenManager(Options()) {}
  explicit TokenManager(const Options& options);
  ~TokenManager();

  void RegisterHost(HostId host, TokenHost* handler);
  // Drops the host and every token it holds (client crash / disconnect).
  void UnregisterHost(HostId host);

  // Grants `types` over `range` of `fid` to `host`, revoking conflicting
  // grants first. For a whole-volume token pass fid = {volume, 0, 0}.
  Result<Token> Grant(HostId host, const Fid& fid, uint32_t types, ByteRange range);

  // Returns (releases) the given types of a granted token; the token is
  // erased when no types remain. Wakes grant waiters.
  Status Return(TokenId id, uint32_t types);

  // Recovery protocol: re-installs a token a surviving client held under the
  // previous server incarnation, preserving its id. Idempotent for the same
  // holder; fails with kConflict when a conflicting grant (or another host's
  // reassertion of the same id) got there first — reassertion never revokes —
  // or when the id does not name the fid's shard.
  Status Reassert(const Token& token);

  bool HasToken(TokenId id) const;
  // True when `host`'s tokens on `fid` cover `range` for every type in
  // `types`, by union (several adjacent grants compose). Every type is
  // checked by range. Evaluated under the shard lock, without copying the
  // fid's tokens.
  bool Covers(HostId host, const Fid& fid, uint32_t types, const ByteRange& range) const;
  std::vector<Token> TokensForFid(const Fid& fid) const;
  std::vector<Token> TokensForHost(HostId host) const;
  // Aggregated across shards.
  Stats stats() const;

  // Distinct volumes with an entry in the conflict index, across shards. Exposed so
  // tests can assert that emptied volumes are pruned rather than accumulating
  // forever across volume churn.
  size_t VolumeIndexEntries() const;

 private:
  struct Shard {
    explicit Shard(uint64_t tag) : mu(LockLevel::kTokenShard, tag, "token-shard") {}

    // Contention-instrumented acquisition: a try_lock probe first (success is
    // the uncontended fast path), falling back to a blocking lock. The
    // counters are atomics, not GUARDED_BY(mu) — they are written on the way
    // *into* the lock.
    void Lock() ACQUIRE(mu) {
      lock_acquisitions.fetch_add(1, std::memory_order_relaxed);
      if (!mu.try_lock()) {
        lock_contended.fetch_add(1, std::memory_order_relaxed);
        mu.lock();
      }
    }
    void Unlock() RELEASE(mu) { mu.unlock(); }

    mutable OrderedMutex mu;
    mutable std::atomic<uint64_t> lock_acquisitions{0};
    mutable std::atomic<uint64_t> lock_contended{0};
    // Signalled on every token erase/return in this shard; deferred-return
    // waits in Grant sleep here. condition_variable_any pairs with
    // OrderedUniqueLock so the hierarchy checker tracks the wait's
    // release/reacquire exactly.
    std::condition_variable_any returned_cv;
    std::map<TokenId, Token> tokens GUARDED_BY(mu);
    // Conflict index. Every token is listed under its fid (a whole-volume
    // token under {volume, 0, 0}); tokens that carry kTokenWholeVolume are
    // also listed under their volume. Emptied entries are pruned.
    std::unordered_map<Fid, std::vector<TokenId>, FidHash> by_fid GUARDED_BY(mu);
    std::unordered_map<uint64_t, std::vector<TokenId>> whole_volume GUARDED_BY(mu);
    Stats stats GUARDED_BY(mu);
  };

  // Scoped guard over Shard::Lock/Unlock, mirroring OrderedLockGuard so the
  // static analysis sees the shard mutex held for the guard's scope.
  class SCOPED_CAPABILITY ShardGuard {
   public:
    explicit ShardGuard(Shard& shard) ACQUIRE(shard.mu) : shard_(shard) { shard_.Lock(); }
    ~ShardGuard() RELEASE() { shard_.Unlock(); }

    ShardGuard(const ShardGuard&) = delete;
    ShardGuard& operator=(const ShardGuard&) = delete;

   private:
    Shard& shard_;
  };

  // One conflict's revocation callback and its merged result.
  struct RevokeOutcome {
    Token token;
    uint32_t types = 0;
    TokenHost* handler = nullptr;
    std::string holder;
    Status status = Status::Ok();
  };

  static size_t ShardIndex(uint64_t volume);
  Shard& ShardFor(uint64_t volume) const { return shards_[ShardIndex(volume)]; }
  Shard& ShardOf(TokenId id) const { return shards_[id % kShards]; }

  // Adds a freshly minted or reasserted token to the shard and its index.
  static void InsertTokenLocked(Shard& shard, const Token& token) REQUIRES(shard.mu);
  // Drops `token` from the conflict index (not from `tokens`), pruning
  // emptied entries.
  static void UnindexLocked(Shard& shard, const Token& token) REQUIRES(shard.mu);

  // Finds tokens (and which of their types) conflicting with the proposed
  // grant. Scans the fid's holders and the volume's whole-volume tokens; a
  // whole-volume request scans every file of the volume in the shard.
  std::vector<std::pair<Token, uint32_t>> ConflictsLocked(const Shard& shard, HostId host,
                                                          const Fid& fid, uint32_t types,
                                                          const ByteRange& range) const
      REQUIRES(shard.mu);
  // True once the conflicting types of `id` are gone (deferred-return wait).
  bool RelinquishedLocked(const Shard& shard, TokenId id, uint32_t types) const
      REQUIRES(shard.mu);
  // Erases `types` from token `id`, pruning the token (and its index
  // entries) once no types remain.
  void EraseTokenTypesLocked(Shard& shard, TokenId id, uint32_t types) REQUIRES(shard.mu);

  // One revocation round: issues Revoke for every conflict concurrently (or
  // serially when the fan-out is disabled), merges the results into the
  // shard, and waits out deferrals under one shared deadline. Returns OK when
  // the caller should re-scan, an error to fail the grant.
  Status RevokeConflicts(Shard& shard, std::vector<std::pair<Token, uint32_t>> conflicts);

  // Outcome of one IssueRevokes round, for the stats merge.
  struct IssueResult {
    bool used_pool = false;      // the round went through the fan-out pool
    uint64_t host_batches = 0;   // RevokeBatch callbacks coalescing >= 2 tokens
  };

  // Runs the revocation callbacks of `outcomes` and fills in their status.
  // Outcomes are grouped per holder host first: a host with several
  // conflicting tokens gets one RevokeBatch callback (one RPC) instead of N
  // Revokes. Host groups fan out through the pool when enabled and the round
  // spans more than one host.
  IssueResult IssueRevokes(std::vector<RevokeOutcome>& outcomes);

  const Options options_;

  // Read-mostly host/handler table: every grant's conflict resolution reads
  // it, hosts register/unregister rarely.
  mutable SharedOrderedMutex host_mu_{LockLevel::kHostRegistry, 1, "token-hosts"};
  std::unordered_map<HostId, TokenHost*> hosts_ GUARDED_BY(host_mu_);

  // The sequence half of the next minted id.
  std::atomic<TokenId> next_id_{1};

  // Tags 1..kShards: a thread only ever holds one shard lock, but distinct
  // tags keep the hierarchy diagnostics unambiguous. Mutable because the
  // const accessors lock (and count acquisitions on) the shards too.
  static_assert(kShards == 8);
  mutable std::array<Shard, kShards> shards_{Shard(1), Shard(2), Shard(3), Shard(4),
                                             Shard(5), Shard(6), Shard(7), Shard(8)};

  // LOCK-EXEMPT(leaf): guards lazy creation of the fan-out pool only; never
  // held across a Revoke call or any other lock acquisition.
  mutable Mutex pool_mu_;
  std::unique_ptr<ThreadPool> revoke_pool_ GUARDED_BY(pool_mu_);
};

}  // namespace dfs

#endif  // SRC_TOKENS_TOKEN_MANAGER_H_
