// Core VFS types shared by every physical file system, the protocol exporter,
// and the client cache manager.
#ifndef SRC_VFS_TYPES_H_
#define SRC_VFS_TYPES_H_

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace dfs {

// File identifier. Volume-qualified, with a uniquifier so a recycled vnode
// slot is distinguishable from its previous occupant (stale-FID detection).
struct Fid {
  uint64_t volume = 0;
  uint64_t vnode = 0;
  uint64_t uniq = 0;

  bool operator==(const Fid&) const = default;
  auto operator<=>(const Fid&) const = default;  // by volume, vnode, uniq
  bool IsValid() const { return volume != 0 && vnode != 0; }
  std::string ToString() const;
};

struct FidHash {
  size_t operator()(const Fid& f) const {
    size_t h = std::hash<uint64_t>()(f.volume);
    h = h * 1000003u ^ std::hash<uint64_t>()(f.vnode);
    h = h * 1000003u ^ std::hash<uint64_t>()(f.uniq);
    return h;
  }
};

enum class FileType : uint8_t {
  kFile = 1,
  kDirectory = 2,
  kSymlink = 3,
};

struct FileAttr {
  Fid fid;
  FileType type = FileType::kFile;
  uint64_t size = 0;
  uint32_t mode = 0644;
  uint32_t uid = 0;
  uint32_t gid = 0;
  uint32_t nlink = 1;
  uint64_t mtime = 0;
  uint64_t ctime = 0;
  uint64_t atime = 0;
  // Monotonically increasing per-file version, bumped on every data or
  // attribute mutation. Drives cache validation and incremental replication.
  uint64_t data_version = 0;
};

// Partial attribute update (setattr).
struct AttrUpdate {
  std::optional<uint32_t> mode;
  std::optional<uint32_t> uid;
  std::optional<uint32_t> gid;
  std::optional<uint64_t> mtime;
  std::optional<uint64_t> atime;
};

struct DirEntry {
  std::string name;
  uint64_t vnode = 0;
  uint64_t uniq = 0;
  FileType type = FileType::kFile;
};

// Caller identity for authorization checks (performed at the exporter/glue
// layer, not inside physical file systems).
struct Cred {
  uint32_t uid = 0;
  std::vector<uint32_t> gids;

  bool IsSuperuser() const { return uid == 0; }
};

inline constexpr size_t kMaxNameLen = 60;

}  // namespace dfs

#endif  // SRC_VFS_TYPES_H_
