#include "src/client/prefetcher.h"

#include <algorithm>

namespace dfs {

Prefetcher::Prefetcher(Options options) : options_(options) {
  if (options_.threads > 0) {
    pool_ = std::make_unique<ThreadPool>(options_.threads, "prefetch");
  }
}

Prefetcher::~Prefetcher() = default;

uint64_t Prefetcher::lead_blocks() const {
  uint64_t max_w = std::max({options_.min_window_blocks, options_.max_window_blocks, 1u});
  uint64_t lead = std::clamp(options_.cache_blocks / 4, 2 * max_w, kMaxInflightWindows * max_w);
  // A cache too small for two max windows gets a lead of half of it, so the
  // windows do not evict each other (or the block being read) before the
  // reader gets to them.
  return std::min(lead, std::max<uint64_t>(options_.cache_blocks / 2, 2));
}

uint32_t Prefetcher::max_window_blocks() const {
  uint32_t max_w = std::max({options_.min_window_blocks, options_.max_window_blocks, 1u});
  return static_cast<uint32_t>(std::min<uint64_t>(max_w, lead_blocks() / 2));
}

std::optional<Prefetcher::Window> Prefetcher::Advance(const Fid& fid,
                                                      uint64_t read_end_block,
                                                      bool sequential) {
  if (!enabled()) {
    return std::nullopt;
  }
  uint32_t max_w = max_window_blocks();
  uint32_t min_w = std::clamp<uint32_t>(options_.min_window_blocks, 1, max_w);
  OrderedLockGuard lock(mu_);
  Stream& s = streams_[fid];
  if (!sequential) {
    // Seek: the stream restarts cold. In-flight windows keep their claims so
    // a racing sequential reader cannot re-fetch them.
    s.next_block = read_end_block;
    s.window = min_w;
    return std::nullopt;
  }
  if (s.window == 0) {
    // First confirmed sequential read of this stream: start right behind it.
    s.next_block = read_end_block;
    s.window = min_w;
  }
  if (s.next_block < read_end_block) {
    s.next_block = read_end_block;  // the reader overran the prefetched lead
  }
  // Readahead that runs arbitrarily far ahead of the reader only creates
  // eviction pressure, and each window on the wire holds a server worker.
  if (s.inflight.size() >= kMaxInflightWindows ||
      s.next_block + s.window > read_end_block + lead_blocks()) {
    return std::nullopt;
  }
  Window w{s.next_block, s.window};
  s.inflight.emplace(w.start_block, w.blocks);
  s.next_block += s.window;
  s.window = std::min(s.window * 2, max_w);
  return w;
}

void Prefetcher::WindowDone(const Fid& fid, uint64_t start_block) {
  {
    OrderedLockGuard lock(mu_);
    auto it = streams_.find(fid);
    if (it == streams_.end()) {
      return;
    }
    it->second.inflight.erase(start_block);
  }
  window_done_.notify_all();
}

void Prefetcher::Forget(const Fid& fid) {
  {
    OrderedLockGuard lock(mu_);
    streams_.erase(fid);
  }
  window_done_.notify_all();
}

bool Prefetcher::IntersectsLocked(const Fid& fid, uint64_t first_block,
                                  uint64_t end_block) const {
  auto it = streams_.find(fid);
  if (it == streams_.end()) {
    return false;
  }
  for (const auto& [start, blocks] : it->second.inflight) {
    if (start < end_block && first_block < start + blocks) {
      return true;
    }
  }
  return false;
}

bool Prefetcher::WaitForWindows(const Fid& fid, uint64_t first_block, uint64_t end_block) {
  OrderedUniqueLock lock(mu_);
  bool waited = false;
  while (IntersectsLocked(fid, first_block, end_block)) {
    waited = true;
    window_done_.wait(lock);
  }
  return waited;
}

bool Prefetcher::Submit(std::function<void()> task) {
  return pool_ != nullptr && pool_->Submit(std::move(task));
}

void Prefetcher::Shutdown() { pool_.reset(); }

size_t Prefetcher::InflightWindows(const Fid& fid) const {
  OrderedLockGuard lock(mu_);
  auto it = streams_.find(fid);
  return it == streams_.end() ? 0 : it->second.inflight.size();
}

}  // namespace dfs
