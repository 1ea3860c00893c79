// Background readahead for the client cache manager (the asynchronous data
// path): per-file sequential-stream detection and the doubling-window state
// machine, plus the prefetch thread pool the cache manager runs window
// fetches on. Split transfers do not use the pool: their caller's thread
// pipelines them (CacheManager::CallChunks).
//
// The prefetcher itself never issues RPCs and never touches cvnode state —
// it only decides *which* window to fetch next. The cache manager owns the
// fetch itself (and the generation check under the cvnode low lock that makes
// cancellation on seek/close/revocation race-free).
//
// Window state machine, per file:
//
//   sequential read confirmed ──> emit window [next, next+window), then
//                                 next += window; window = min(2*window, max)
//   non-sequential read (seek) ─> stream reset (window back to min)
//   close / revocation ─────────> stream forgotten (Forget)
//
// Single-flight: at most `threads` windows of one file are in flight at a
// time, and `next` only ever advances — two concurrent readers of the same
// stream can never fetch the same window twice.
#ifndef SRC_CLIENT_PREFETCHER_H_
#define SRC_CLIENT_PREFETCHER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>

#include "src/common/lock_order.h"
#include "src/common/thread_pool.h"
#include "src/vfs/vnode.h"

namespace dfs {

class Prefetcher {
 public:
  struct Options {
    // Daemon width; 0 disables background readahead entirely (the
    // synchronous ablation — the cache manager then keeps the legacy
    // inflated foreground fetch).
    size_t threads = 0;
    // Doubling-window bounds, in blocks.
    uint32_t min_window_blocks = 4;
    uint32_t max_window_blocks = 64;
  };

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

  // Feeds the stream detector with a foreground read that ended at
  // `read_end_block` (exclusive). On confirmed sequential access returns the
  // next window to fetch (claiming it: single-flight) and advances the
  // doubling window; otherwise resets the stream and returns nullopt.
  std::optional<Window> Advance(const Fid& fid, uint64_t read_end_block, bool sequential)
      EXCLUDES(mu_);

  // Releases a window claimed by Advance (fetch completed or abandoned).
  void WindowDone(const Fid& fid, uint64_t start_block) EXCLUDES(mu_);

  // Drops all stream state for the file (close, revocation). In-flight
  // windows finish on their own; the cache manager's generation check keeps
  // their data from landing.
  void Forget(const Fid& fid) EXCLUDES(mu_);

  // Enqueues a background fetch. Returns false when disabled or shutting
  // down — the caller must then release the claimed window itself.
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
    uint64_t next_block = 0;            // next window start
    uint32_t window = 0;                // current window size (blocks)
    std::set<uint64_t> inflight;        // claimed window starts
  };

  const Options options_;
  // Stream map: above the cvnode low lock (L3) so revocation handlers can
  // cancel a stream while holding it; a leaf otherwise (nothing is acquired
  // and no RPC is issued under it).
  mutable OrderedMutex mu_{LockLevel::kClientPrefetch, 1, "prefetch-streams"};
  std::unordered_map<Fid, Stream, FidHash> streams_ GUARDED_BY(mu_);
  std::unique_ptr<ThreadPool> pool_;  // null when disabled
};

}  // namespace dfs

#endif  // SRC_CLIENT_PREFETCHER_H_
