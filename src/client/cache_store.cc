#include "src/client/cache_store.h"

#include <cstring>

namespace dfs {

Status MemoryCacheStore::PutSlice(const Fid& fid, uint64_t block, BufferSlice data) {
  MutexLock lock(mu_);
  // Replaces the whole mapping; any slice handed out earlier keeps its (now
  // superseded) region alive and immutable.
  blocks_[{fid, block}] = std::move(data);
  return Status::Ok();
}

Result<BufferSlice> MemoryCacheStore::GetSlice(const Fid& fid, uint64_t block, size_t len) {
  MutexLock lock(mu_);
  auto it = blocks_.find({fid, block});
  if (it == blocks_.end()) {
    return Status(ErrorCode::kNotFound, "block not in cache");
  }
  if (it->second.size() >= len) {
    return it->second.Sub(0, len);
  }
  // Stored region is shorter than asked (a short tail): pad out with zeros.
  // The copy is deliberate and rare — full blocks take the branch above.
  std::vector<uint8_t> buf(len, 0);
  std::memcpy(buf.data(), it->second.data(), it->second.size());
  return BufferSlice::TakeOwnership(std::move(buf));
}

void MemoryCacheStore::Erase(const Fid& fid, uint64_t block) {
  MutexLock lock(mu_);
  blocks_.erase({fid, block});
}

void MemoryCacheStore::EraseFile(const Fid& fid) {
  MutexLock lock(mu_);
  for (auto it = blocks_.begin(); it != blocks_.end();) {
    if (it->first.first == fid) {
      it = blocks_.erase(it);
    } else {
      ++it;
    }
  }
}

uint64_t MemoryCacheStore::bytes_used() const {
  MutexLock lock(mu_);
  uint64_t total = 0;
  for (const auto& [key, data] : blocks_) {
    total += data.size();
  }
  return total;
}

}  // namespace dfs
