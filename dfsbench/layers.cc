#include "dfsbench/layers.h"

#include "src/server/procs.h"

namespace dfsbench {
namespace {

using dfs::Result;
using dfs::Status;
using dfs::VnodeRef;

class TracedVnode : public dfs::Vnode {
 public:
  TracedVnode(VnodeRef inner, Tracer* tracer, std::shared_ptr<const EpisodeNames> names)
      : inner_(std::move(inner)), tracer_(tracer), names_(std::move(names)) {}

  static VnodeRef Wrap(Result<VnodeRef> r, Tracer* tracer,
                       const std::shared_ptr<const EpisodeNames>& names) {
    return std::make_shared<TracedVnode>(*std::move(r), tracer, names);
  }
  // The Episode vnode behind a wrapper (Link and Rename need the real one).
  static dfs::Vnode& Unwrap(dfs::Vnode& v) {
    auto* traced = dynamic_cast<TracedVnode*>(&v);
    return traced != nullptr ? *traced->inner_ : v;
  }

  dfs::Fid fid() const override { return inner_->fid(); }

  Result<dfs::FileAttr> GetAttr() override {
    Tracer::Scope span(tracer_, Layer::kEpisode, names_->getattr, 0);
    return inner_->GetAttr();
  }
  Status SetAttr(const dfs::AttrUpdate& update) override {
    Tracer::Scope span(tracer_, Layer::kEpisode, names_->setattr, 0);
    return inner_->SetAttr(update);
  }
  Result<size_t> Read(uint64_t offset, std::span<uint8_t> out) override {
    Tracer::Scope span(tracer_, Layer::kEpisode, names_->read, 0);
    return inner_->Read(offset, out);
  }
  Result<size_t> Write(uint64_t offset, std::span<const uint8_t> data) override {
    Tracer::Scope span(tracer_, Layer::kEpisode, names_->write, 0);
    return inner_->Write(offset, data);
  }
  Status Truncate(uint64_t new_size) override {
    Tracer::Scope span(tracer_, Layer::kEpisode, names_->truncate, 0);
    return inner_->Truncate(new_size);
  }
  Result<VnodeRef> Lookup(std::string_view name) override {
    Tracer::Scope span(tracer_, Layer::kEpisode, names_->lookup, 0);
    Result<VnodeRef> r = inner_->Lookup(name);
    return r.ok() ? Wrap(std::move(r), tracer_, names_) : r;
  }
  Result<VnodeRef> Create(std::string_view name, dfs::FileType type, uint32_t mode,
                          const dfs::Cred& cred) override {
    Tracer::Scope span(tracer_, Layer::kEpisode, names_->create, 0);
    Result<VnodeRef> r = inner_->Create(name, type, mode, cred);
    return r.ok() ? Wrap(std::move(r), tracer_, names_) : r;
  }
  Result<VnodeRef> CreateSymlink(std::string_view name, std::string_view target,
                                 const dfs::Cred& cred) override {
    Tracer::Scope span(tracer_, Layer::kEpisode, names_->symlink, 0);
    Result<VnodeRef> r = inner_->CreateSymlink(name, target, cred);
    return r.ok() ? Wrap(std::move(r), tracer_, names_) : r;
  }
  Status Link(std::string_view name, dfs::Vnode& target) override {
    Tracer::Scope span(tracer_, Layer::kEpisode, names_->link, 0);
    return inner_->Link(name, Unwrap(target));
  }
  Status Unlink(std::string_view name) override {
    Tracer::Scope span(tracer_, Layer::kEpisode, names_->unlink, 0);
    return inner_->Unlink(name);
  }
  Status Rmdir(std::string_view name) override {
    Tracer::Scope span(tracer_, Layer::kEpisode, names_->rmdir, 0);
    return inner_->Rmdir(name);
  }
  Result<std::vector<dfs::DirEntry>> ReadDir() override {
    Tracer::Scope span(tracer_, Layer::kEpisode, names_->readdir, 0);
    return inner_->ReadDir();
  }
  Result<std::string> ReadSymlink() override {
    Tracer::Scope span(tracer_, Layer::kEpisode, names_->readlink, 0);
    return inner_->ReadSymlink();
  }
  Result<dfs::Acl> GetAcl() override {
    Tracer::Scope span(tracer_, Layer::kEpisode, names_->getacl, 0);
    return inner_->GetAcl();
  }
  Status SetAcl(const dfs::Acl& acl) override {
    Tracer::Scope span(tracer_, Layer::kEpisode, names_->setacl, 0);
    return inner_->SetAcl(acl);
  }

 private:
  VnodeRef inner_;
  Tracer* tracer_;
  std::shared_ptr<const EpisodeNames> names_;
};

}  // namespace

std::string ProcName(uint32_t proc) {
  switch (proc) {
    case dfs::kConnect: return "connect";
    case dfs::kGetRoot: return "get_root";
    case dfs::kFetchStatus: return "fetch_status";
    case dfs::kFetchData: return "fetch_data";
    case dfs::kStoreData: return "store_data";
    case dfs::kStoreStatus: return "store_status";
    case dfs::kTruncate: return "truncate";
    case dfs::kGetToken: return "get_token";
    case dfs::kReturnToken: return "return_token";
    case dfs::kLookup: return "lookup";
    case dfs::kCreate: return "create";
    case dfs::kRemove: return "remove";
    case dfs::kReadDir: return "read_dir";
    case dfs::kRevocationStore: return "revocation_store";
    case dfs::kSyncVolume: return "sync_volume";
    case dfs::kKeepAlive: return "keep_alive";
    default: return "other";
  }
}

TracedHandler::TracedHandler(dfs::FileServer* server, Tracer* tracer)
    : server_(server), tracer_(tracer) {
  for (uint32_t proc = 0; proc < names_.size(); ++proc) {
    names_[proc] = tracer_->Name("rpc." + ProcName(proc));
  }
}

Result<dfs::WireMessage> TracedHandler::Handle(const dfs::RpcRequest& request) {
  uint16_t name = names_[request.proc < names_.size() ? request.proc : 0];
  Tracer::Scope span(tracer_, Layer::kHandler, name, request.from);
  return server_->Handle(request);
}

TracedDisk::TracedDisk(dfs::SimDisk* inner, Tracer* tracer)
    : inner_(inner),
      tracer_(tracer),
      read_(tracer->Name("disk.read")),
      write_(tracer->Name("disk.write")),
      flush_(tracer->Name("disk.flush")) {}

Status TracedDisk::Read(uint64_t blockno, std::span<uint8_t> out) {
  Tracer::Scope span(tracer_, Layer::kDisk, read_, 0);
  return inner_->Read(blockno, out);
}

Status TracedDisk::Write(uint64_t blockno, std::span<const uint8_t> data) {
  Tracer::Scope span(tracer_, Layer::kDisk, write_, 0);
  return inner_->Write(blockno, data);
}

Status TracedDisk::Flush() {
  Tracer::Scope span(tracer_, Layer::kDisk, flush_, 0);
  return inner_->Flush();
}

EpisodeNames::EpisodeNames(Tracer* t)
    : getattr(t->Name("episode.getattr")),
      setattr(t->Name("episode.setattr")),
      read(t->Name("episode.read")),
      write(t->Name("episode.write")),
      truncate(t->Name("episode.truncate")),
      lookup(t->Name("episode.lookup")),
      create(t->Name("episode.create")),
      symlink(t->Name("episode.symlink")),
      link(t->Name("episode.link")),
      unlink(t->Name("episode.unlink")),
      rmdir(t->Name("episode.rmdir")),
      readdir(t->Name("episode.readdir")),
      readlink(t->Name("episode.readlink")),
      getacl(t->Name("episode.getacl")),
      setacl(t->Name("episode.setacl")),
      root(t->Name("episode.root")),
      by_fid(t->Name("episode.vnode_by_fid")),
      rename(t->Name("episode.rename")),
      sync(t->Name("episode.sync")) {}

TracedVfs::TracedVfs(dfs::VfsRef inner, Tracer* tracer)
    : inner_(std::move(inner)),
      tracer_(tracer),
      names_(std::make_shared<const EpisodeNames>(tracer)) {}

Result<VnodeRef> TracedVfs::Root() {
  Tracer::Scope span(tracer_, Layer::kEpisode, names_->root, 0);
  Result<VnodeRef> r = inner_->Root();
  return r.ok() ? TracedVnode::Wrap(std::move(r), tracer_, names_) : r;
}

Result<VnodeRef> TracedVfs::VnodeByFid(const dfs::Fid& fid) {
  Tracer::Scope span(tracer_, Layer::kEpisode, names_->by_fid, 0);
  Result<VnodeRef> r = inner_->VnodeByFid(fid);
  return r.ok() ? TracedVnode::Wrap(std::move(r), tracer_, names_) : r;
}

Status TracedVfs::Rename(dfs::Vnode& src_dir, std::string_view src_name, dfs::Vnode& dst_dir,
                         std::string_view dst_name) {
  Tracer::Scope span(tracer_, Layer::kEpisode, names_->rename, 0);
  return inner_->Rename(TracedVnode::Unwrap(src_dir), src_name, TracedVnode::Unwrap(dst_dir),
                        dst_name);
}

Status TracedVfs::Sync() {
  Tracer::Scope span(tracer_, Layer::kEpisode, names_->sync, 0);
  return inner_->Sync();
}

}  // namespace dfsbench
