// The DEcorum client cache manager (Section 4): resource layer, cache layer,
// directory layer, and vnode layer.
//
//  - Resource layer: RPC connections (with authentication tickets) and a
//    volume-location cache fed by the VLDB; kBusy/kUnavailable/kAuthFailed
//    answers invalidate the cached location and retry, which is how clients
//    follow a volume as it moves between servers (a server answers
//    kUnavailable for a volume it no longer holds).
//  - Cache layer: file status and data cached under typed tokens. Data lives
//    in a CacheStore (disk-backed, or memory for diskless clients). A write
//    data token lets writes stay local; a status read token makes GetAttr
//    free; revocations push dirty pages back and drop the cache.
//  - Directory layer: results of individual lookups (and full listings) are
//    cached while a status-read token is held on the directory — the client
//    cannot assume it understands a remote file system's directory format
//    (Section 4.3), so it caches lookup *results*, not directory bytes.
//  - Vnode layer: DfsVfs/DfsVnode present the standard interface, so the
//    shared path helpers and examples run identically against local Episode,
//    the server glue layer, and this remote client.
//
// Locking (Section 6): each cached vnode has a high-level operation lock (L1,
// held across the whole operation including RPCs) and a low-level state lock
// (L3, never held across a client-initiated RPC; revocation handlers take
// only L3 and may call the server's dedicated-pool procedures, which take
// L4). Replies and revocations are serialized after the fact with per-file
// timestamps: status is merged only if its stamp is newer than what the
// vnode already has, so old status never overwrites new (Section 6.3/6.4).
#ifndef SRC_CLIENT_CACHE_MANAGER_H_
#define SRC_CLIENT_CACHE_MANAGER_H_

#include <atomic>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/client/cache_store.h"
#include "src/client/persist/persistent_cache.h"
#include "src/client/prefetcher.h"
#include "src/common/lock_order.h"
#include "src/common/mutex.h"
#include "src/rpc/auth.h"
#include "src/rpc/rpc.h"
#include "src/server/procs.h"
#include "src/server/vldb.h"
#include "src/tokens/token.h"
#include "src/vfs/vnode.h"

namespace dfs {

enum class OpenMode : uint8_t {
  kRead = 1,
  kWrite = 2,
  kExecute = 3,
  kSharedRead = 4,
  kExclusiveWrite = 5,
};

class CacheManager;

// An open-token handle; closing returns the token to the server.
class OpenHandle {
 public:
  OpenHandle() = default;
  OpenHandle(CacheManager* cm, Fid fid, TokenId token, uint32_t types)
      : cm_(cm), fid_(fid), token_(token), types_(types) {}
  OpenHandle(OpenHandle&& o) noexcept { *this = std::move(o); }
  OpenHandle& operator=(OpenHandle&& o) noexcept;
  ~OpenHandle();

  Status Close();
  bool valid() const { return cm_ != nullptr; }
  const Fid& fid() const { return fid_; }

 private:
  CacheManager* cm_ = nullptr;
  Fid fid_;
  TokenId token_ = 0;
  uint32_t types_ = 0;
};

class CacheManager : public RpcHandler {
 public:
  struct Options {
    NodeId node = 0;
    bool diskless = false;            // memory data cache instead of disk
    // Size of the private cache disk a non-diskless client gets when
    // persistent_cache_disk is null (4096 blocks hold 3,936 data slots).
    uint64_t cache_disk_blocks = 4096;
    // Data tokens cover exactly the accessed (block-aligned) byte range when
    // false; whole files when true (the AFS-style degradation for E6).
    bool whole_file_data_tokens = false;
    // Capacity of the data cache in 4 KiB blocks; clean blocks are evicted
    // LRU when exceeded (dirty blocks are never evicted — they must be
    // stored back first, which revocations and fsync do). A disk store caps
    // it at its slot count.
    uint64_t max_cached_blocks = 1 << 20;
    // On a detected sequential read, fetch this many extra blocks (and the
    // matching token range) ahead of the requested data. 0 disables. Only
    // used by the synchronous data path (prefetch_threads == 0): the
    // foreground fetch is inflated by this much, so the reader pays the
    // latency and byte cost of its own readahead.
    uint32_t readahead_blocks = 8;
    // Background readahead switch and harvest width. 0 (the default) keeps
    // the legacy synchronous data path above; > 0 moves readahead off the
    // critical path: Read fetches only the asked-for range and sends
    // doubling readahead windows ahead of it from its own thread, and this
    // many pool threads wait for the replies and install them. How far ahead
    // the windows run is bounded by the cache (a quarter of the LRU
    // bound, between 2 and kMaxInflightChunks max windows, and
    // never more than half of it; no window exceeds half that lead), not by
    // this width; a read that misses inside a window still in flight waits
    // for it. Split transfers pipeline from the caller's thread whatever the
    // width.
    size_t prefetch_threads = 0;
    // Doubling-window bounds (blocks) for background readahead: the window
    // starts at min on the first confirmed sequential read and doubles per
    // confirmed window up to max.
    uint32_t readahead_min_blocks = 4;
    uint32_t readahead_max_blocks = 64;
    // Pipelined bulk transfer: a foreground fetch or a store larger than this
    // is cut into block-aligned chunks that the calling thread keeps on the
    // wire kMaxInflightChunks at a time, merged under the cvnode low lock as
    // they land. 0 (the default) = unlimited: every transfer is one chunk.
    // Readahead windows are not cut: each goes out as one kFetchData of up to
    // readahead_max_blocks, whatever this limit.
    uint64_t max_rpc_bytes = 0;
    // Keep-alive daemon: ping every connected server at this interval so the
    // server-side lease stays fresh (and restarts are detected) even when the
    // client is idle. 0 disables the daemon (the default; data RPCs renew the
    // lease implicitly).
    uint32_t keepalive_interval_ms = 0;
    // Client-side mirror of the server lease (the paper's token lifetimes):
    // after this long without successful server contact the client stops
    // trusting its own tokens — cached data is no longer served and the next
    // operation goes to the server (where it will discover an expiry or a
    // restart). 0 disables (the default: cached reads survive partitions,
    // which existing failure tests rely on).
    uint32_t client_lease_ttl_ms = 0;
    // Persistent client cache (src/client/persist): a non-null disk backs the
    // data cache and the token state with it, so both survive a client crash.
    // Caller-owned and must outlive the CacheManager: a rebooted client hands
    // the *same* SimDisk to its successor, which is what makes Recover() find
    // a warm cache. Null (the default): a diskless client caches in memory,
    // any other on a private disk of cache_disk_blocks that dies with it.
    SimDisk* persistent_cache_disk = nullptr;
    // Piggybacked journal maintenance: a keep-alive pass that finds at least
    // this many raw appends since the last compaction checkpoints the token
    // journal, so replay stays cheap without waiting for a half to fill.
    // 0 disables. (No effect unless the keep-alive daemon is running and the
    // persistent cache is on.)
    uint64_t journal_checkpoint_appends = 64;
    Network::NodeOptions rpc;         // includes the dedicated revocation pool
  };

  struct Stats {
    uint64_t attr_cache_hits = 0;
    uint64_t data_cache_hits = 0;
    uint64_t data_cache_misses = 0;
    uint64_t lookup_cache_hits = 0;
    uint64_t revocations_handled = 0;
    uint64_t revocations_deferred = 0;
    uint64_t revocation_stores = 0;
    uint64_t dirty_stores = 0;
    uint64_t location_retries = 0;
    uint64_t cache_evictions = 0;
    // Recovery protocol.
    uint64_t stale_epoch_retries = 0;   // calls answered kStaleEpoch and retried
    uint64_t recovering_retries = 0;    // calls answered kRecovering and retried
    uint64_t reasserted_tokens = 0;     // tokens the restarted server accepted
    uint64_t reassert_rejected = 0;     // tokens lost in the restart
    uint64_t keepalives_sent = 0;
    // Batched revocations (kRevokeTokenBatch callbacks handled).
    uint64_t revocation_batches = 0;
    // Asynchronous data path (E16).
    uint64_t prefetch_issued = 0;     // readahead windows sent
    uint64_t prefetch_hits = 0;       // foreground reads served from prefetched blocks
    uint64_t prefetch_wasted = 0;     // prefetched blocks evicted/invalidated unread
    uint64_t prefetch_cancelled = 0;  // windows whose install lost a generation race
    uint64_t bulk_rpcs_split = 0;     // transfers split into pipelined sub-range RPCs
    uint64_t inflight_highwater = 0;  // max concurrent data RPCs observed
    // Warm-reboot recovery (persistent cache, E17).
    uint64_t warm_tokens_recovered = 0;  // journaled tokens the server re-accepted
    uint64_t warm_tokens_dropped = 0;    // journaled tokens rejected or unroutable
    uint64_t warm_blocks_recovered = 0;  // clean blocks revalidated from disk
    uint64_t warm_blocks_dropped = 0;    // on-disk blocks discarded as stale/unvouched
    uint64_t warm_dirty_resumed = 0;     // pre-crash dirty blocks resumed for push
    uint64_t journal_checkpoints = 0;    // keep-alive-piggybacked compactions
    // Files whose persisted attributes plus a surviving status-read token let
    // Recover() skip the per-file kFetchStatus revalidation RPC entirely.
    uint64_t warm_attr_hits = 0;
    // Zero-copy data path (the copy-ratio instrumentation). bytes_moved:
    // data payload bytes that crossed the wire for this client (fetch replies
    // in + stores out). bytes_copied: payload bytes memcpy'd client-side
    // while moving them (partial-block install pads, span-read copy-out,
    // copying-store puts and gets). The write path's copy-in of the caller's
    // bytes is not counted. The datapath bench drives copied/moved toward 1.
    uint64_t bytes_moved = 0;
    uint64_t bytes_copied = 0;
    // Whole-range overwrites that took the token-only kFetchData grant
    // instead of fetching bytes they were about to clobber.
    uint64_t token_only_grants = 0;
    // Fetch replies whose data was dropped because a held token the fetch
    // relied on instead of a fresh grant was revoked while it was in flight.
    uint64_t match_drops = 0;
  };

  CacheManager(Network& network, std::vector<NodeId> vldb_nodes, Ticket ticket,
               Options options);
  ~CacheManager() override;

  // Mount a remote volume by VLDB name or id; the returned Vfs is the vnode
  // layer (usable with all the src/vfs/path.h helpers).
  Result<VfsRef> MountVolume(const std::string& name);
  Result<VfsRef> MountVolumeById(uint64_t volume_id);

  // Opens a file, acquiring the matching open-mode token (Section 5.2).
  Result<OpenHandle> Open(Vfs& vfs, const std::string& path, OpenMode mode);

  // Warm-reboot boot path (persistent cache): reasserts the tokens found in
  // the on-disk journal with their servers, revalidates every recovered file
  // against the server's current data_version (stale blocks are dropped,
  // clean blocks are kept warm, pre-crash dirty blocks are resumed for push
  // or surfaced as kIoError like the stale-epoch flow), and checkpoints the
  // surviving token set. A no-op without a persistent store or on a
  // freshly-formatted disk. Call once, after construction, before use.
  Status Recover();

  // Pushes all dirty data for one file (fsync) or everything (sync).
  Status Fsync(const Fid& fid);
  Status SyncAll();
  // Returns every token (used by tests/benches to reset client state).
  Status ReturnAllTokens();

  // Byte-range file locks (Section 5.2's lock tokens): with a lock token the
  // client records locks locally; without one it must call the server.
  Status SetLock(const Fid& fid, ByteRange range, bool exclusive, uint64_t owner);
  Status ClearLock(const Fid& fid, ByteRange range, uint64_t owner);
  // Acquires a lock token up front so subsequent Set/ClearLock calls over the
  // range are local: the server will not grant conflicting locks without
  // revoking it first.
  Status AcquireLockToken(const Fid& fid, bool exclusive, ByteRange range);

  // RpcHandler: the server calls back to revoke tokens.
  Result<WireMessage> Handle(const RpcRequest& request) override;
  bool IsRevocationPathProc(uint32_t proc) const override {
    return proc == kRevokeToken || proc == kRevokeTokenBatch;
  }

  Stats stats() const;
  // Evicts clean LRU blocks down to the capacity. Must be called with *no*
  // cvnode locks held: eviction locks victims' low locks one at a time.
  void MaybeEvict();
  // Data RPCs of the file still awaiting their reply (test accessor).
  int RpcsInFlight(const Fid& fid);
  NodeId node() const { return options_.node; }
  VldbClient& vldb() { return vldb_; }
  // The persistent store, when a caller-owned disk backs this client (crash
  // injection and layout inspection in tests); null for a private disk or
  // the memory store.
  PersistentCacheStore* persistent_store() { return persist_; }

 private:
  friend class DfsVfs;
  friend class DfsVnode;
  friend class OpenHandle;

  struct PendingRevocation {
    Token token;
    uint32_t types = 0;
    uint64_t stamp = 0;
  };

  struct CVnode {
    explicit CVnode(const Fid& f, uint64_t tag)
        : fid(f),
          high(LockLevel::kClientHigh, tag, "cvnode-high"),
          low(LockLevel::kClientLow, tag, "cvnode-low") {}

    const Fid fid;
    OrderedMutex high;  // L1: one client operation at a time
    OrderedMutex low;   // L3: vnode state; never held across normal RPCs

    FileAttr attr GUARDED_BY(low);
    bool attr_valid GUARDED_BY(low) = false;
    // Local attribute changes (size/mtime) not yet reflected at the server:
    // our attr wins over reply attrs until the dirty data is stored.
    bool attr_dirty GUARDED_BY(low) = false;
    // Per-file serialization counter (Section 6.2).
    uint64_t stamp GUARDED_BY(low) = 0;
    std::vector<Token> tokens GUARDED_BY(low);
    std::set<uint64_t> cached_blocks GUARDED_BY(low);
    std::set<uint64_t> dirty_blocks GUARDED_BY(low);
    int rpc_in_flight GUARDED_BY(low) = 0;
    // Sequential-read detector for read-ahead: end offset of the last read.
    uint64_t last_read_end GUARDED_BY(low) = 0;
    // Background-readahead cancellation: a seek, close, or data revocation
    // bumps the generation; a prefetch window only installs data if the
    // generation it captured at issue time still matches (tokens and sync
    // info from its reply are installed regardless — a granted token must
    // never be dropped on the floor).
    uint64_t prefetch_gen GUARDED_BY(low) = 0;
    // Blocks installed by the prefetch daemon and not yet consumed by a
    // foreground read; feeds the prefetch_hits/prefetch_wasted stats.
    std::set<uint64_t> prefetched_blocks GUARDED_BY(low);
    std::vector<PendingRevocation> pending GUARDED_BY(low);
    int open_count GUARDED_BY(low) = 0;
    // Directory layer: per-name lookup results and the full listing.
    // nullopt records a *negative* result (the name does not exist), valid
    // under the same status-read token as positive entries.
    std::map<std::string, std::optional<FileAttr>> lookup_cache GUARDED_BY(low);
    std::vector<DirEntry> listing GUARDED_BY(low);
    bool listing_valid GUARDED_BY(low) = false;
    // Local file locks held under a lock token.
    std::vector<std::pair<ByteRange, uint64_t>> local_locks GUARDED_BY(low);
    // Set when a server restart rejected this file's reassertion while dirty
    // data was outstanding: that data is gone (the paper's client-crash
    // contract applied to us). Surfaced as kIoError on the next foreground
    // fsync/store and then cleared.
    bool dirty_lost GUARDED_BY(low) = false;
    // Stamp of the last attr snapshot appended to the token journal, so
    // unchanged attributes are not re-journaled on every block store.
    uint64_t attr_journal_stamp GUARDED_BY(low) = 0;
    // Revocation store-backs sent for this file. They force nothing at the
    // server, so an fsync during which this moved ends with kSyncVolume.
    uint64_t store_backs GUARDED_BY(low) = 0;
  };
  using CVnodeRef = std::shared_ptr<CVnode>;

  CVnodeRef GetCVnode(const Fid& fid);

  // --- resource layer ---
  Result<NodeId> ServerForVolume(uint64_t volume_id, bool refresh);
  Status EnsureConnected(NodeId server);
  // One attempt's routing step, shared by CallVolume and CallChunks: the
  // server holding the volume (from the VLDB cache, or looked up afresh when
  // `refresh`), connected. With `allow_recovery`, a VLDB epoch ahead of the
  // one learned at connect time means the server restarted since: the
  // client reasserts its tokens before the call instead of eating a
  // kStaleEpoch bounce.
  Result<NodeId> RouteVolume(uint64_t volume_id, bool refresh, bool allow_recovery);
  // A call's first answer when it was sent outside CallVolume (SentCall):
  // CallVolume takes it as its first attempt instead of sending again.
  struct FirstAnswer {
    NodeId server = 0;
    Result<WireMessage> reply;
  };
  // Calls the server owning fid.volume with retry-on-move semantics, plus the
  // recovery protocol: kRecovering retries with capped exponential backoff,
  // kStaleEpoch reconnects and reasserts held tokens before retrying. `fid`,
  // when given, names the file the call is about — if reassertion rejects
  // that very file's tokens the call fails with kIoError instead of retrying
  // (retrying a store after its write token was lost would push stale data).
  // `allow_recovery=false` disables the reassert/backoff machinery for
  // callers that hold a cvnode low lock across the call (the revocation-path
  // store and token returns), where reasserting would self-deadlock.
  // `first`, when given, is the answer to an attempt already made.
  Result<WireMessage> CallVolume(uint64_t volume_id, uint32_t proc, const Writer& w,
                                 const Fid* fid = nullptr, bool allow_recovery = true,
                                 FirstAnswer* first = nullptr);
  // True for the answers CallVolume retries (with recovery allowed).
  static bool CallVolumeRetries(ErrorCode code);
  // Bulk RPCs one split transfer keeps on the wire at once, the bound
  // readahead windows share. A constant, not an option: each call in flight
  // holds a server worker for its simulated wire time, so an unbounded
  // fan-out could fill the server's pool.
  static constexpr size_t kMaxInflightChunks = Prefetcher::kMaxInflightWindows;
  // Sends `count` requests (`request(i)` builds the i-th) to the server of
  // `volume_id`, pipelined from the calling thread: the server is routed
  // once, each request goes out as a SentCall, and at most
  // kMaxInflightChunks are in flight. Replies are waited in order and handed
  // to `on_reply(i, reply)` as each lands, and each wait issues the next
  // request.
  void CallChunks(uint64_t volume_id, uint32_t proc, size_t count,
                  const std::function<Writer(size_t)>& request, const Fid* fid,
                  const std::function<void(size_t, Result<WireMessage>)>& on_reply);
  // The epoch this client last learned for `server` (0 = never connected).
  uint64_t EpochFor(NodeId server);
  // kStaleEpoch response: reconnect to `server`, learn its new epoch, and
  // reassert every token held from it in one batched kReassertTokens call.
  // Tokens the server rejects are dropped along with the cvnode's cached
  // state; those fids land in `invalidated` (when non-null).
  Status HandleStaleEpoch(NodeId server, std::unordered_set<Fid, FidHash>* invalidated);

  // --- cache layer internals ---
  // A held token that vouches for a fetch's data in place of a fresh grant,
  // and the one rangeful type it vouches with.
  struct HeldToken {
    TokenId id = 0;
    uint32_t type = 0;
  };
  // True when the held tokens cover `range` for every type in `types`: a
  // rangeless type by any token carrying it, a rangeful one by union. When
  // `used` is non-null, the tokens the rangeful coverage rests on are
  // appended to it.
  bool HasTokenLocked(CVnode& cv, uint32_t types, const ByteRange& range,
                      std::vector<HeldToken>* used = nullptr) const REQUIRES(cv.low);
  // What a fetch over `range` must ask for: `want` minus every type the held
  // tokens already cover there (HasTokenLocked's rule), so refetches and
  // readahead windows mint no duplicate grants. The held tokens that cover
  // the dropped rangeful types are appended to `matched`; the fetch may
  // install its data only while they are all still held (StillHeldLocked).
  uint32_t MissingTypesLocked(CVnode& cv, uint32_t want, const ByteRange& range,
                              std::vector<HeldToken>* matched) const REQUIRES(cv.low);
  // True when every token of `held` still carries its type. A revocation of
  // a known token applies at once, even with a fetch in flight, so a reply
  // that relied on a token revoked meanwhile may carry bytes older than the
  // write that revoked it (Section 6.3).
  bool StillHeldLocked(CVnode& cv, const std::vector<HeldToken>& held) const REQUIRES(cv.low);
  void AddTokenLocked(CVnode& cv, const Token& token) REQUIRES(cv.low);
  // Merges a reply's SyncInfo under the stamp rule; returns true if applied.
  bool MergeSyncLocked(CVnode& cv, const SyncInfo& sync) REQUIRES(cv.low);
  // Applies any queued revocations whose tokens are now known; returns the
  // token ids (+types) that must be sent back via kReturnToken.
  std::vector<std::pair<TokenId, uint32_t>> DrainPendingLocked(CVnode& cv) REQUIRES(cv.low);
  // Performs the local effects of a revocation. May issue kRevocationStore
  // (allowed while holding `low`: the server runs it on the dedicated pool
  // under L4 only).
  Status ApplyRevocationLocked(CVnode& cv, const Token& token, uint32_t types, uint64_t stamp)
      REQUIRES(cv.low);
  Status StoreDirtyRangeLocked(CVnode& cv, const ByteRange& range, bool revocation_path)
      REQUIRES(cv.low);
  // The cached blocks of the dirty run of `run_len` bytes starting at block
  // `first`, one slice per block (a block the store lost goes out as zeros),
  // charged to bytes_moved/bytes_copied.
  std::vector<BufferSlice> RunSlicesLocked(CVnode& cv, uint64_t first, uint64_t run_len)
      REQUIRES(cv.low);
  // Pushes every contiguous dirty run to the server, one run at a time, each
  // run's chunks pipelined (CallChunks). Takes (and drops) cv.low around
  // each run itself. With `force_log` each store asks the server to force
  // its log before answering.
  Status FsyncHighLocked(CVnode& cv, bool force_log) REQUIRES(cv.high) EXCLUDES(cv.low);

  // Handles one revocation (the body shared by kRevokeToken and
  // kRevokeTokenBatch): returns the kRevoke* verdict byte.
  uint8_t HandleOneRevocation(const Token& token, uint32_t types, uint64_t stamp);

  // --- keep-alive daemon ---
  void KeepAliveLoop();
  // Pings every connected server; a changed epoch in the reply triggers the
  // reassertion path.
  void KeepAlivePass();
  // Piggybacked on the keep-alive pass: compacts the token journal when the
  // append count since the last checkpoint crosses the Options threshold.
  void MaybeCheckpointJournal();

  // Fetches data + tokens for the aligned range; installs under `low`.
  // `after_install`, when provided, runs under `low` after the reply is
  // merged but *before* queued revocations are honored: the reply's grant was
  // serialized at the server ahead of those revocations (Section 6.3), so the
  // operation that requested the token is entitled to complete under it —
  // otherwise a storm of conflicting peers livelocks the requester. (Being a
  // lambda, its body must AssertHeld cv.low rather than rely on REQUIRES.)
  // The fetch asks only for the types its held tokens do not already cover
  // (MissingTypesLocked); its data installs only while the tokens it relied
  // on are still held. The range goes out as block-aligned chunks of
  // Options::max_rpc_bytes (one chunk when that is 0 or the range fits)
  // merged under `low`. The token-carrying first chunk is a barrier — it
  // completes before the tokenless data chunks are pipelined (CallChunks), so
  // every data chunk reads under a token conflicting writers must revoke
  // (first error by chunk order wins; a failed op uninstalls the blocks it
  // freshly installed).
  // `token_only` asks the server for the grant + sync info without the data
  // bytes (kFetchFlagTokenOnly): used by whole-range overwrites, which would
  // clobber every byte they fetched. A token-only fetch is one chunk.
  // `match_data` false asks afresh for the rangeful data types even when held
  // tokens cover them (only rangeless types are matched): a retry after a
  // lost attempt passes it, because only a fresh grant is serialized ahead of
  // the revocations queued against it (Section 6.3), so a revocation storm
  // that takes each matched token mid-flight cannot starve the operation.
  Status FetchAndInstall(CVnode& cv, uint64_t offset, size_t len, uint32_t want_types,
                         const std::function<void()>& after_install = nullptr,
                         bool token_only = false, bool match_data = true)
      REQUIRES(cv.high) EXCLUDES(cv.low);

  // --- asynchronous data path ---
  // RAII high-water accounting around every data RPC (fetch/store, single or
  // chunked, foreground or background).
  class InflightTracker {
   public:
    explicit InflightTracker(CacheManager* cm) : cm_(cm) {
      uint64_t now = cm_->data_rpcs_inflight_.fetch_add(1) + 1;
      uint64_t hw = cm_->inflight_highwater_.load();
      while (now > hw && !cm_->inflight_highwater_.compare_exchange_weak(hw, now)) {
      }
    }
    ~InflightTracker() { cm_->data_rpcs_inflight_.fetch_sub(1); }
    InflightTracker(const InflightTracker&) = delete;
    InflightTracker& operator=(const InflightTracker&) = delete;

   private:
    CacheManager* cm_;
  };
  // One request sent now and finished later, the step split transfers and
  // readahead windows share. Construction sends `body` to `server` with
  // Network::CallAsync, counted by an InflightTracker until it is finished;
  // with no server (the route failed) nothing is sent.
  class SentCall {
   public:
    SentCall(CacheManager* cm, const Result<NodeId>& server, uint32_t proc, Writer body);
    SentCall(const SentCall&) = delete;
    SentCall& operator=(const SentCall&) = delete;

    // Waits for the reply. A success renews the client lease; an answer
    // CallVolume retries continues through CallVolume as its first attempt,
    // so nothing is sent twice; any other answer, kConflict included, is the
    // result. An unsent request goes through CallVolume whole.
    Result<WireMessage> Finish(uint64_t volume_id, const Fid* fid);

   private:
    CacheManager* cm_;
    std::optional<InflightTracker> inflight_;
    std::optional<NodeId> server_;
    uint32_t proc_;
    Writer w_;
    Network::PendingCall call_;
  };
  // Parses one kFetchData reply and installs it into the cvnode: merges sync
  // info under the stamp rule, installs any granted token, and (when
  // `install_data` and every token of `held` is still held) installs whole
  // clean blocks and zero-fills past-EOF blocks in the aligned range. A
  // granted token's rangeful types join `held`, so the later data chunks of
  // a transfer rely on it too. Block numbers this call *freshly* installed
  // (not already validly cached) are appended to `installed` (when non-null)
  // so a failed multi-chunk op can roll back exactly its own side effects.
  Status InstallFetchReplyLocked(CVnode& cv, uint64_t aligned_off, uint64_t aligned_len,
                                 const WireMessage& reply, bool install_data,
                                 bool mark_prefetched, std::vector<HeldToken>& held,
                                 std::vector<uint64_t>* installed) REQUIRES(cv.low);
  // Called from DfsVnode::ReadSlices (no cvnode low lock held): feeds the
  // sequential-stream detector and, on a confirmed stream, claims windows
  // until the prefetcher's lead or in-flight bound is reached, sending each
  // from this thread (SendWindow).
  void MaybeStartPrefetch(const CVnodeRef& cv, uint64_t offset, size_t len, bool sequential);
  // Sends one claimed window (a SentCall, counted in rpc_in_flight) unless
  // it lies past EOF, is already cached or was cancelled since `gen`; the
  // prefetch pool harvests the reply (HarvestWindow), or this thread does
  // when the pool takes no more tasks. False when the stream should stop
  // claiming (EOF, cancelled).
  bool SendWindow(const CVnodeRef& cv, Prefetcher::Window win, uint64_t gen, uint64_t file_blocks);
  // Waits for a window's reply and installs it unless the generation moved
  // (seek/close/revocation cancelled the stream); the token and sync info
  // install either way. Then drains queued revocations, releases the claim
  // and pays the eviction the window caused.
  void HarvestWindow(CVnode& cv, Prefetcher::Window win, uint64_t gen,
                     std::vector<HeldToken> held, SentCall& call) EXCLUDES(cv.low);
  // Drops `block` from the prefetched set if present, counting it as wasted
  // (evicted or invalidated before any foreground read consumed it).
  void NotePrefetchDropLocked(CVnode& cv, uint64_t block) REQUIRES(cv.low);

  ByteRange TokenRangeFor(uint64_t offset, size_t len) const;
  Status EnsureStatus(CVnode& cv) REQUIRES(cv.high) EXCLUDES(cv.low);

  Status ReturnToken(const Fid& fid, TokenId id, uint32_t types);

  // Every cache put goes through here. A disk store gets the block with its
  // dirty flag, so its clean-victim choice never drops dirty data, and with
  // full version metadata: clean and dirty blocks alike carry the cvnode's
  // stamp and data_version — for clean blocks the version the bytes belong
  // to, for dirty blocks the *base* version they were written against, so
  // Recover() resumes a pre-crash push only if the server has not moved past
  // it.
  Status StorePutLocked(CVnode& cv, uint64_t block, BufferSlice data, bool dirty)
      REQUIRES(cv.low);
  // Records in the disk store that blocks [first, last] reached the server
  // (store-back done). A no-op for the memory store.
  void StoreMarkCleanLocked(CVnode& cv, uint64_t first, uint64_t last, const SyncInfo& sync)
      REQUIRES(cv.low);

  // --- persistent cache hooks (all no-ops when persist_ == nullptr) ---
  // Truncate-awareness: clamps the persisted file_size of every surviving
  // entry of cv's file to `new_size`, so a warm reboot cannot re-extend the
  // file from a size recorded before the truncate.
  void PersistClampSizeLocked(CVnode& cv, uint64_t new_size) REQUIRES(cv.low);
  // Token-journal appends (grant / update / erase).
  void JournalGrantLocked(const CVnode& cv, const Token& token) REQUIRES(cv.low);
  void JournalEraseLocked(const CVnode& cv, const Token& token) REQUIRES(cv.low);
  // Journals the file's current attributes + stamp (deduplicated by stamp) so
  // a warm reboot can revalidate from the persisted copy instead of a
  // per-file kFetchStatus RPC.
  void JournalAttrLocked(CVnode& cv, bool force = false) REQUIRES(cv.low);
  // Best-known epoch of the server owning `volume`, from the VLDB location
  // cache + the connect-time epoch map only — never an RPC, so it is safe
  // under cvnode locks. 0 when unknown.
  uint64_t JournalEpochFor(uint64_t volume);

  // --- data-cache accounting (guarded by mu_) ---
  // Marks a block most-recently-used (callers hold the owning cv's low lock;
  // mu_ is a leaf below it).
  void TouchLru(const Fid& fid, uint64_t block);
  void RemoveLru(const Fid& fid, uint64_t block);

  Network& network_;
  // GUARD-EXEMPT: wired at construction and immutable afterwards; VldbClient
  // is internally synchronized for the lookups it performs.
  VldbClient vldb_;
  // GUARD-EXEMPT: issued at construction, read-only identity afterwards.
  Ticket ticket_;
  // GUARD-EXEMPT: configuration snapshot, never written after construction.
  Options options_;
  // GUARD-EXEMPT: pointer set at construction and never reseated; the
  // pointee is internally synchronized (each store carries its own mutex).
  std::unique_ptr<CacheStore> store_;
  // Non-owning view of store_ when it is a PersistentCacheStore (a private or
  // a caller-owned disk); null for the memory store.
  // GUARD-EXEMPT: alias of store_ fixed at construction, never reseated.
  PersistentCacheStore* disk_store_ = nullptr;
  // disk_store_ when its disk is caller-owned and so outlives this client;
  // null otherwise (every persist hook checks this).
  // GUARD-EXEMPT: alias of store_ fixed at construction, never reseated.
  PersistentCacheStore* persist_ = nullptr;
  // The LRU bound: max_cached_blocks, capped at a disk store's slot count so
  // that the manager evicts, not the store.
  // GUARD-EXEMPT: computed once in the constructor, immutable afterwards.
  uint64_t cache_blocks_ = 0;
  // Background-readahead window state machine + the data-path thread pool
  // (always constructed; enabled() is false when prefetch_threads == 0).
  // GUARD-EXEMPT: pointer set at construction and never reseated; the
  // Prefetcher is internally synchronized (its own OrderedMutex).
  std::unique_ptr<Prefetcher> prefetcher_;
  // Concurrent data-RPC accounting for Stats::inflight_highwater.
  std::atomic<uint64_t> data_rpcs_inflight_{0};
  std::atomic<uint64_t> inflight_highwater_{0};

  // LOCK-EXEMPT(leaf): guards the cvnode registry, connection set, stats and
  // the LRU; a leaf below the cvnode low locks — never held across an RPC or
  // an OrderedMutex acquisition.
  mutable Mutex mu_;
  std::unordered_map<Fid, CVnodeRef, FidHash> cvnodes_ GUARDED_BY(mu_);
  std::set<NodeId> connected_ GUARDED_BY(mu_);
  // Last epoch learned from each server (at connect / keep-alive).
  std::map<NodeId, uint64_t> server_epochs_ GUARDED_BY(mu_);
  uint64_t next_tag_ GUARDED_BY(mu_) = 1;
  Stats stats_ GUARDED_BY(mu_);
  // Hit-path counters, kept off mu_ as relaxed atomics; stats() folds them
  // into the snapshot (the same-named stats_ fields stay 0).
  struct HitCounters {
    std::atomic<uint64_t> attr_cache_hits{0};
    std::atomic<uint64_t> lookup_cache_hits{0};
    std::atomic<uint64_t> data_cache_hits{0};
    std::atomic<uint64_t> data_cache_misses{0};
    std::atomic<uint64_t> bytes_copied{0};
  };
  // GUARD-EXEMPT: every field is a relaxed atomic.
  HitCounters hits_;
  static void Count(std::atomic<uint64_t>& counter, uint64_t n = 1) {
    counter.fetch_add(n, std::memory_order_relaxed);
  }
  // Nanoseconds (network virtual clock) of the last successful server
  // contact, for the client-side lease check. 0 until first contact.
  std::atomic<uint64_t> last_contact_ns_{0};
  // Global LRU over cached data blocks.
  using LruKey = std::pair<Fid, uint64_t>;
  struct LruKeyHash {
    size_t operator()(const LruKey& k) const {
      return FidHash()(k.first) * 1000003u ^ std::hash<uint64_t>()(k.second);
    }
  };
  std::list<LruKey> lru_ GUARDED_BY(mu_);  // front = least recently used
  // lru_.size(), mirrored (under mu_) so MaybeEvict's over-capacity check is
  // one atomic load instead of a mu_ acquisition on every operation.
  std::atomic<size_t> lru_size_{0};
  std::unordered_map<LruKey, std::list<LruKey>::iterator, LruKeyHash> lru_index_
      GUARDED_BY(mu_);

  // LOCK-EXEMPT(leaf): keep-alive daemon wakeup/shutdown latch only; nothing
  // is acquired and no RPC is issued while it is held.
  Mutex keepalive_mu_;
  CondVar keepalive_cv_;
  bool keepalive_shutdown_ GUARDED_BY(keepalive_mu_) = false;
  // GUARD-EXEMPT: written only by the constructor-thread start and the
  // destructor join; never touched concurrently.
  std::thread keepalive_;
};

// --- vnode layer ---

class DfsVfs : public Vfs, public std::enable_shared_from_this<DfsVfs> {
 public:
  DfsVfs(CacheManager* cm, uint64_t volume_id) : cm_(cm), volume_id_(volume_id) {}

  Result<VnodeRef> Root() override;
  Result<VnodeRef> VnodeByFid(const Fid& fid) override;
  Status Rename(Vnode& src_dir, std::string_view src_name, Vnode& dst_dir,
                std::string_view dst_name) override;
  Status Sync() override;
  // Mount points: the cache manager looks the named volume up in the VLDB and
  // returns its root, so path resolution knits all volumes into one namespace.
  Result<VnodeRef> ResolveMountPoint(std::string_view target) override;

  CacheManager* cache_manager() { return cm_; }
  uint64_t volume_id() const { return volume_id_; }

 private:
  // GUARD-EXEMPT: fixed at construction; DfsVfs is a thin immutable adapter
  // over the cache manager.
  CacheManager* cm_;
  // GUARD-EXEMPT: fixed at construction, read-only afterwards.
  uint64_t volume_id_;
  // The root FID is fetched once and cached: volume roots are permanent.
  // LOCK-EXEMPT(leaf): guards only the cached root FID; nothing acquired
  // under it.
  Mutex root_mu_;
  Fid root_fid_ GUARDED_BY(root_mu_);
};

class DfsVnode : public Vnode {
 public:
  DfsVnode(CacheManager* cm, Fid fid) : cm_(cm), fid_(fid) {}

  Fid fid() const override { return fid_; }

  Result<FileAttr> GetAttr() override;
  Status SetAttr(const AttrUpdate& update) override;
  // ReadSlices plus one copy-out into `out`.
  Result<size_t> Read(uint64_t offset, std::span<uint8_t> out) override;
  // Zero-copy read: serves ref-counted block slices straight out of the cache
  // store (no copy at all over MemoryCacheStore), fetching under data and
  // status read tokens on a miss.
  Result<std::vector<BufferSlice>> ReadSlices(uint64_t offset, size_t len) override;
  Result<size_t> Write(uint64_t offset, std::span<const uint8_t> data) override;
  Status Truncate(uint64_t new_size) override;
  Result<VnodeRef> Lookup(std::string_view name) override;
  Result<VnodeRef> Create(std::string_view name, FileType type, uint32_t mode,
                          const Cred& cred) override;
  Result<VnodeRef> CreateSymlink(std::string_view name, std::string_view target,
                                 const Cred& cred) override;
  Status Link(std::string_view name, Vnode& target) override;
  Status Unlink(std::string_view name) override;
  Status Rmdir(std::string_view name) override;
  Result<std::vector<DirEntry>> ReadDir() override;
  Result<std::string> ReadSymlink() override;
  Result<Acl> GetAcl() override;
  Status SetAcl(const Acl& acl) override;

 private:
  friend class DfsVfs;
  CacheManager* cm_;
  Fid fid_;
};

}  // namespace dfs

#endif  // SRC_CLIENT_CACHE_MANAGER_H_
