// Client data-cache backing stores (Section 4.2).
//
// AFS clients cache file data on the node's local disk; DEcorum carries that
// over and adds an in-memory variant so diskless clients work. The disk cache
// is PersistentCacheStore (src/client/persist): 4 KiB slots on a SimDisk,
// private to the client unless the caller hands it a disk that outlives a
// reboot. MemoryCacheStore is the diskless option. Both store whole 4 KiB
// file blocks keyed by (fid, block index); validity is tracked by the cache
// manager, not the store.
#ifndef SRC_CLIENT_CACHE_STORE_H_
#define SRC_CLIENT_CACHE_STORE_H_

#include <map>
#include <utility>

#include "src/common/buffer.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/vfs/types.h"

namespace dfs {

class CacheStore {
 public:
  virtual ~CacheStore() = default;
  // Stores `data` as the block's contents. Each store owns its one copy:
  // MemoryCacheStore keeps the shared region itself, the disk store writes
  // the bytes to its medium.
  virtual Status PutSlice(const Fid& fid, uint64_t block, BufferSlice data) = 0;
  // Reads `len` bytes of the block, zero-padded past the stored length.
  // Returns kNotFound when the block is absent.
  virtual Result<BufferSlice> GetSlice(const Fid& fid, uint64_t block, size_t len) = 0;
  virtual void Erase(const Fid& fid, uint64_t block) = 0;
  virtual void EraseFile(const Fid& fid) = 0;
  virtual uint64_t bytes_used() const = 0;
  // True when PutSlice/GetSlice share regions instead of copying — the copy
  // counters use this to attribute store traffic.
  virtual bool SharesSlices() const { return false; }
};

class MemoryCacheStore : public CacheStore {
 public:
  Status PutSlice(const Fid& fid, uint64_t block, BufferSlice data) override;
  Result<BufferSlice> GetSlice(const Fid& fid, uint64_t block, size_t len) override;
  bool SharesSlices() const override { return true; }
  void Erase(const Fid& fid, uint64_t block) override;
  void EraseFile(const Fid& fid) override;
  uint64_t bytes_used() const override;

 private:
  using Key = std::pair<Fid, uint64_t>;
  // LOCK-EXEMPT(leaf): guards only this store's block map; no calls out.
  // Values are immutable shared regions: PutSlice replaces the whole
  // mapping, so a reader holding a previously returned slice keeps a stable
  // snapshot while the map moves on (the eviction/overwrite race test).
  mutable Mutex mu_;
  std::map<Key, BufferSlice> blocks_ GUARDED_BY(mu_);
};

}  // namespace dfs

#endif  // SRC_CLIENT_CACHE_STORE_H_
