// Client data-cache backing stores (Section 4.2).
//
// AFS clients cache file data in files of the node's native physical file
// system; DEcorum carries that over and adds an in-memory variant so diskless
// clients work. DiskCacheStore dogfoods our FFS as the "native" cache file
// system; MemoryCacheStore is the diskless option. Both store whole 4 KiB
// file blocks keyed by (fid, block index); validity is tracked by the cache
// manager, not the store.
#ifndef SRC_CLIENT_CACHE_STORE_H_
#define SRC_CLIENT_CACHE_STORE_H_

#include <map>
#include <memory>
#include <unordered_map>

#include "src/blockdev/block_device.h"
#include "src/common/buffer.h"
#include "src/common/mutex.h"
#include "src/ffs/ffs.h"
#include "src/vfs/types.h"

namespace dfs {

class CacheStore {
 public:
  virtual ~CacheStore() = default;
  // Stores `data` as the block's contents. Each store owns its one copy:
  // MemoryCacheStore keeps the shared region itself, the disk-backed stores
  // write the bytes to their medium.
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
  struct KeyLess {
    bool operator()(const Key& a, const Key& b) const {
      return std::tie(a.first.volume, a.first.vnode, a.first.uniq, a.second) <
             std::tie(b.first.volume, b.first.vnode, b.first.uniq, b.second);
    }
  };
  // LOCK-EXEMPT(leaf): guards only this store's block map; no calls out.
  // Values are immutable shared regions: PutSlice replaces the whole
  // mapping, so a reader holding a previously returned slice keeps a stable
  // snapshot while the map moves on (the eviction/overwrite race test).
  mutable Mutex mu_;
  std::map<Key, BufferSlice, KeyLess> blocks_ GUARDED_BY(mu_);
};

// Cache files live in a local FFS: one file per remote fid. The store keeps
// each cached fid's open cache-file vnode and the blocks stored in it, so a
// put or get never searches the cache directory, and the cache file is
// unlinked (its inode and blocks freed) when its last block is erased.
class DiskCacheStore : public CacheStore {
 public:
  // Creates a cache partition of `disk_blocks` blocks on a private SimDisk.
  static Result<std::unique_ptr<DiskCacheStore>> Create(uint64_t disk_blocks);

  Status PutSlice(const Fid& fid, uint64_t block, BufferSlice data) override;
  Result<BufferSlice> GetSlice(const Fid& fid, uint64_t block, size_t len) override;
  void Erase(const Fid& fid, uint64_t block) override;
  void EraseFile(const Fid& fid) override;
  uint64_t bytes_used() const override;

 private:
  struct CacheFile {
    VnodeRef vnode;
    // Stored block -> the bytes PutSlice wrote into it.
    std::unordered_map<uint64_t, size_t> blocks;
  };

  DiskCacheStore() = default;
  // The fid's cache file, created on first use.
  Result<CacheFile*> OpenOrCreate(const Fid& fid) REQUIRES(mu_);
  // Unlinks the fid's cache file and forgets it.
  void DropLocked(std::unordered_map<Fid, CacheFile, FidHash>::iterator it) REQUIRES(mu_);
  static std::string NameFor(const Fid& fid);

  // GUARD-EXEMPT: owned medium created once in Create(), never reseated; all
  // I/O against it goes through fs_ under mu_.
  std::unique_ptr<SimDisk> disk_;
  std::shared_ptr<FfsVfs> fs_ PT_GUARDED_BY(mu_);
  // LOCK-EXEMPT(leaf): serializes cache-FFS operations; below every
  // hierarchy level (only taken from cache-manager code holding L3).
  mutable Mutex mu_;
  std::unordered_map<Fid, CacheFile, FidHash> files_ GUARDED_BY(mu_);
  uint64_t bytes_ GUARDED_BY(mu_) = 0;
};

}  // namespace dfs

#endif  // SRC_CLIENT_CACHE_STORE_H_
