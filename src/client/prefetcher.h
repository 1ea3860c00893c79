// Background readahead for the client cache manager (the asynchronous data
// path): per-file sequential-stream detection and the doubling-window state
// machine, plus the pool that harvests window replies. The cache manager
// sends a window from the thread that claims it; the pool only waits for
// the reply and installs it, so how many windows are on the wire does not
// depend on the pool's width. Split transfers do not use the pool: their
// caller's thread pipelines them (CacheManager::CallChunks).
//
// The prefetcher itself never issues RPCs and never touches cvnode state —
// it only decides *which* window to fetch next and tracks which are still in
// flight. The cache manager owns the fetch itself (and the generation check
// under the cvnode low lock that makes cancellation on seek/close/revocation
// race-free).
//
// Window state machine, per file:
//
//   sequential read confirmed ──> emit window [next, next+window), then
//                                 next += window; window = min(2*window, max)
//   non-sequential read (seek) ─> stream reset (window back to min)
//   close / revocation ─────────> stream forgotten (Forget)
//
// The lead is bounded by the cache, not by threads: the claimed blocks ahead
// of the reader (in flight or landed, not yet read) stay within lead_blocks()
// = min(clamp(cache_blocks / 4, 2 × max window, 8 × max window),
// cache_blocks / 2), no window exceeds half the lead, and at most 8 windows
// of one file are in flight (kMaxInflightWindows). `next` only ever
// advances, so two concurrent readers of the same stream can never fetch
// the same window twice, and a read that misses inside a window still in
// flight waits for it (WaitForWindows) instead of fetching the blocks again.
#ifndef SRC_CLIENT_PREFETCHER_H_
#define SRC_CLIENT_PREFETCHER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "src/common/lock_order.h"
#include "src/common/thread_pool.h"
#include "src/vfs/vnode.h"

namespace dfs {

class Prefetcher {
 public:
  struct Options {
    // Width of the pool that harvests window replies; 0 disables background
    // readahead entirely (the synchronous ablation — the cache manager then
    // keeps the legacy inflated foreground fetch). Any width > 0 keeps the
    // same windows on the wire.
    size_t threads = 0;
    // Doubling-window bounds, in blocks.
    uint32_t min_window_blocks = 4;
    uint32_t max_window_blocks = 64;
    // Capacity of the client's data cache in blocks: the lead ahead of the
    // reader stays within a quarter of it (but never below two max windows
    // while those fit in half of it), and a window within half the lead.
    uint64_t cache_blocks = uint64_t{1} << 20;
  };

  // Windows of one file on the wire at once, and the lead's upper bound in
  // max windows: the client's bulk-RPC bound, which split transfers share
  // (CacheManager::kMaxInflightChunks). Each call in flight holds a server
  // worker for its wire time.
  static constexpr size_t kMaxInflightWindows = 8;

  // One readahead descriptor: a block-aligned window to fetch.
  struct Window {
    uint64_t start_block = 0;
    uint32_t blocks = 0;
  };

  explicit Prefetcher(Options options);
  ~Prefetcher();

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  bool enabled() const { return options_.threads > 0; }

  // Blocks claimed ahead of the reader that a stream may hold at once.
  uint64_t lead_blocks() const;
  // The largest window a stream grows to: the configured max, cut to half
  // the lead when the cache is small.
  uint32_t max_window_blocks() const;

  // Feeds the stream detector with a foreground read that ended at
  // `read_end_block` (exclusive). On confirmed sequential access returns the
  // next window to fetch (claiming it: single-flight) and advances the
  // doubling window, unless the lead or the in-flight bound is reached;
  // otherwise (and on a seek, which resets the stream) returns nullopt.
  std::optional<Window> Advance(const Fid& fid, uint64_t read_end_block, bool sequential)
      EXCLUDES(mu_);

  // Releases a window claimed by Advance (fetch completed or abandoned) and
  // wakes readers waiting on it.
  void WindowDone(const Fid& fid, uint64_t start_block) EXCLUDES(mu_);

  // Drops all stream state for the file (close, revocation) and wakes
  // readers waiting on its windows. In-flight windows finish on their own;
  // the cache manager's generation check keeps their data from landing.
  void Forget(const Fid& fid) EXCLUDES(mu_);

  // Blocks while a claimed window of the file intersects blocks
  // [first_block, end_block). Returns true when it had to wait.
  bool WaitForWindows(const Fid& fid, uint64_t first_block, uint64_t end_block) EXCLUDES(mu_);

  // Enqueues a harvest task. Returns false when disabled or shutting down —
  // the caller must then run it itself.
  bool Submit(std::function<void()> task);

  // Joins the pool (running tasks finish, queued ones run). The owner must
  // call this before destroying the Prefetcher if tasks reach it through a
  // pointer the destructor would null first (e.g. unique_ptr::reset(), which
  // clears the pointer before ~Prefetcher joins the workers).
  void Shutdown();

  // Windows currently claimed for the file (test accessor).
  size_t InflightWindows(const Fid& fid) const EXCLUDES(mu_);

 private:
  struct Stream {
    uint64_t next_block = 0;                // next window start
    uint32_t window = 0;                    // current window size (blocks)
    std::map<uint64_t, uint32_t> inflight;  // claimed window start -> blocks
  };

  bool IntersectsLocked(const Fid& fid, uint64_t first_block, uint64_t end_block) const
      REQUIRES(mu_);

  const Options options_;
  // Stream map: above the cvnode low lock (L3) so revocation handlers can
  // cancel a stream while holding it; a leaf otherwise (nothing is acquired
  // and no RPC is issued under it).
  mutable OrderedMutex mu_{LockLevel::kClientPrefetch, 1, "prefetch-streams"};
  std::unordered_map<Fid, Stream, FidHash> streams_ GUARDED_BY(mu_);
  // Signalled when a claim goes away (WindowDone, Forget).
  std::condition_variable_any window_done_;
  std::unique_ptr<ThreadPool> pool_;  // null when disabled
};

}  // namespace dfs

#endif  // SRC_CLIENT_PREFETCHER_H_
