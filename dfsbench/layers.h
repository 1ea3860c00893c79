// Traced wrappers placed at the stack's own seams, used only by the traced
// run: an RpcHandler in front of FileServer::Handle, a Vfs/Vnode pair around
// the exported Episode volume, and a BlockDevice around the server's SimDisk.
// Each forwards every call unchanged and records one span around it.
#ifndef DFSBENCH_LAYERS_H_
#define DFSBENCH_LAYERS_H_

#include <array>
#include <memory>
#include <string>

#include "dfsbench/trace.h"
#include "src/blockdev/block_device.h"
#include "src/rpc/rpc.h"
#include "src/server/file_server.h"
#include "src/vfs/vnode.h"

namespace dfsbench {

// Name of an RPC procedure as used in metric names ("fetch_data").
std::string ProcName(uint32_t proc);

class TracedHandler : public dfs::RpcHandler {
 public:
  TracedHandler(dfs::FileServer* server, Tracer* tracer);

  dfs::Result<dfs::WireMessage> Handle(const dfs::RpcRequest& request) override;
  bool IsRevocationPathProc(uint32_t proc) const override {
    return server_->IsRevocationPathProc(proc);
  }

 private:
  dfs::FileServer* server_;
  Tracer* tracer_;
  std::array<uint16_t, 256> names_{};
};

class TracedDisk : public dfs::BlockDevice {
 public:
  TracedDisk(dfs::SimDisk* inner, Tracer* tracer);

  dfs::Status Read(uint64_t blockno, std::span<uint8_t> out) override;
  dfs::Status Write(uint64_t blockno, std::span<const uint8_t> data) override;
  dfs::Status Flush() override;
  uint64_t BlockCount() const override { return inner_->BlockCount(); }

 private:
  dfs::SimDisk* inner_;
  Tracer* tracer_;
  uint16_t read_, write_, flush_;
};

// Span names of the Episode vnode operations, interned once per tracer.
struct EpisodeNames {
  explicit EpisodeNames(Tracer* tracer);
  uint16_t getattr, setattr, read, write, truncate, lookup, create, symlink, link, unlink,
      rmdir, readdir, readlink, getacl, setacl, root, by_fid, rename, sync;
};

class TracedVfs : public dfs::Vfs {
 public:
  TracedVfs(dfs::VfsRef inner, Tracer* tracer);

  dfs::Result<dfs::VnodeRef> Root() override;
  dfs::Result<dfs::VnodeRef> VnodeByFid(const dfs::Fid& fid) override;
  dfs::Status Rename(dfs::Vnode& src_dir, std::string_view src_name, dfs::Vnode& dst_dir,
                     std::string_view dst_name) override;
  dfs::Status Sync() override;
  bool ReadOnly() const override { return inner_->ReadOnly(); }

 private:
  dfs::VfsRef inner_;
  Tracer* tracer_;
  std::shared_ptr<const EpisodeNames> names_;
};

}  // namespace dfsbench

#endif  // DFSBENCH_LAYERS_H_
