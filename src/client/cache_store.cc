#include "src/client/cache_store.h"

#include <cstring>

#include "src/vfs/path.h"

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

Result<std::unique_ptr<DiskCacheStore>> DiskCacheStore::Create(uint64_t disk_blocks) {
  auto store = std::unique_ptr<DiskCacheStore>(new DiskCacheStore());
  store->disk_ = std::make_unique<SimDisk>(disk_blocks);
  FfsVfs::Options opts;
  opts.inode_count = 2048;
  ASSIGN_OR_RETURN(store->fs_, FfsVfs::Format(*store->disk_, opts));
  return store;
}

std::string DiskCacheStore::NameFor(const Fid& fid) {
  return "c" + std::to_string(fid.volume) + "_" + std::to_string(fid.vnode) + "_" +
         std::to_string(fid.uniq);
}

Result<DiskCacheStore::CacheFile*> DiskCacheStore::OpenOrCreate(const Fid& fid) {
  auto it = files_.find(fid);
  if (it != files_.end()) {
    return &it->second;
  }
  ASSIGN_OR_RETURN(VnodeRef root, fs_->Root());
  std::string name = NameFor(fid);
  auto created = root->Create(name, FileType::kFile, 0600, Cred{});
  if (!created.ok() && created.code() == ErrorCode::kExists) {
    created = root->Lookup(name);
  }
  RETURN_IF_ERROR(created.status());
  return &files_.emplace(fid, CacheFile{std::move(*created), {}}).first->second;
}

void DiskCacheStore::DropLocked(std::unordered_map<Fid, CacheFile, FidHash>::iterator it) {
  for (const auto& [block, n] : it->second.blocks) {
    bytes_ -= n;
  }
  Fid fid = it->first;
  files_.erase(it);  // release the open vnode before unlinking its file
  auto root = fs_->Root();
  if (root.ok()) {
    (void)(*root)->Unlink(NameFor(fid));
  }
}

Status DiskCacheStore::PutSlice(const Fid& fid, uint64_t block, BufferSlice data) {
  MutexLock lock(mu_);
  ASSIGN_OR_RETURN(CacheFile * file, OpenOrCreate(fid));
  Status written = file->vnode->Write(block * kBlockSize, data.span()).status();
  if (!written.ok()) {
    if (file->blocks.empty()) {
      DropLocked(files_.find(fid));  // don't strand an empty cache file
    }
    return written;
  }
  auto [it, fresh] = file->blocks.emplace(block, data.size());
  if (!fresh) {
    bytes_ -= it->second;
    it->second = data.size();
  }
  bytes_ += data.size();
  return Status::Ok();
}

Result<BufferSlice> DiskCacheStore::GetSlice(const Fid& fid, uint64_t block, size_t len) {
  MutexLock lock(mu_);
  auto it = files_.find(fid);
  if (it == files_.end() || it->second.blocks.count(block) == 0) {
    return Status(ErrorCode::kNotFound, "block not in cache");
  }
  std::vector<uint8_t> buf(len, 0);
  RETURN_IF_ERROR(it->second.vnode->Read(block * kBlockSize, buf).status());
  return BufferSlice::TakeOwnership(std::move(buf));
}

void DiskCacheStore::Erase(const Fid& fid, uint64_t block) {
  MutexLock lock(mu_);
  auto it = files_.find(fid);
  if (it == files_.end()) {
    return;
  }
  auto bit = it->second.blocks.find(block);
  if (bit == it->second.blocks.end()) {
    return;
  }
  bytes_ -= bit->second;
  it->second.blocks.erase(bit);
  if (it->second.blocks.empty()) {
    DropLocked(it);
  }
}

void DiskCacheStore::EraseFile(const Fid& fid) {
  MutexLock lock(mu_);
  auto it = files_.find(fid);
  if (it != files_.end()) {
    DropLocked(it);
  }
}

uint64_t DiskCacheStore::bytes_used() const {
  MutexLock lock(mu_);
  return bytes_;
}

}  // namespace dfs
