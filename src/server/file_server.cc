#include "src/server/file_server.h"

#include <algorithm>
#include <optional>

namespace dfs {

OrderedMutex& FidLockTable::Get(const Fid& fid) {
  MutexLock lock(mu_);
  auto it = locks_.find(fid);
  if (it == locks_.end()) {
    it = locks_.emplace(fid, std::make_unique<OrderedMutex>(level_, next_tag_++, name_)).first;
  }
  return *it->second;
}

FileServer::FileServer(Network& network, AuthService& auth, NodeId node)
    : FileServer(network, auth, node, Options()) {}

FileServer::FileServer(Network& network, AuthService& auth, NodeId node, Options options)
    : network_(network), auth_(auth), node_(node), options_(options),
      rclock_(options_.recovery.clock != nullptr ? options_.recovery.clock : &own_clock_),
      leases_(uint64_t{options_.recovery.lease_ttl_ms} * 1'000'000ull),
      recovery_({options_.recovery.epoch,
                 uint64_t{options_.recovery.grace_period_ms} * 1'000'000ull,
                 options_.recovery.expected_hosts},
                rclock_),
      tokens_(WithHostSilent(options_.tokens, this)) {
  // Network registration is deferred to the first export (EnsureRegistered):
  // the server must not answer the network before its volumes are attached.
  tokens_.RegisterHost(node_, &local_host_handler_);  // the glue layer's host
}

TokenManager::Options FileServer::WithHostSilent(TokenManager::Options opts,
                                                 FileServer* server) {
  opts.host_silent = [server](HostId host) {
    // The local glue-layer host never sends RPCs, so it has no lease.
    return host != server->node_ &&
           server->leases_.Expired(host, server->rclock_->NowNs());
  };
  return opts;
}

FileServer::~FileServer() { network_.UnregisterNode(node_); }

void FileServer::EnsureRegistered() {
  // Bind-the-socket-last: a restarted server that answered the network before
  // re-attaching its aggregates would reject in-flight token reassertions for
  // volumes it simply has not exported *yet* — indistinguishable, to the
  // client, from "the volume moved away", so the client would drop live
  // tokens (and their dirty data) spuriously.
  if (!registered_.exchange(true, std::memory_order_acq_rel)) {
    (void)network_.RegisterNode(node_, this, options_.rpc);
  }
}

Status FileServer::ExportVolume(uint64_t volume_id, VfsRef vfs) {
  {
    MutexLock lock(mu_);
    volumes_[volume_id] = std::move(vfs);
  }
  EnsureRegistered();
  return Status::Ok();
}

Status FileServer::ExportAggregate(VolumeOps* ops) {
  {
    MutexLock lock(mu_);
    volume_ops_.push_back(ops);
  }
  Status refreshed = RefreshExports();
  EnsureRegistered();
  return refreshed;
}

Status FileServer::RefreshExports() {
  std::vector<VolumeOps*> ops_list;
  {
    MutexLock lock(mu_);
    ops_list = volume_ops_;
  }
  for (VolumeOps* ops : ops_list) {
    ASSIGN_OR_RETURN(std::vector<VolumeInfo> vols, ops->ListVolumes());
    for (const VolumeInfo& info : vols) {
      MutexLock lock(mu_);
      if (volumes_.count(info.id) == 0) {
        auto vfs = ops->MountVolume(info.id);
        if (vfs.ok()) {
          volumes_[info.id] = *vfs;
        }
      }
    }
  }
  return Status::Ok();
}

Status FileServer::UnexportVolume(uint64_t volume_id) {
  MutexLock lock(mu_);
  volumes_.erase(volume_id);
  return Status::Ok();
}

Result<VfsRef> FileServer::ExportedVolume(uint64_t volume_id) {
  MutexLock lock(mu_);
  auto it = volumes_.find(volume_id);
  if (it == volumes_.end()) {
    // kUnavailable (not kNotFound): the volume may have moved — the client's
    // resource layer re-consults the VLDB and retries at the new server.
    return Status(ErrorCode::kUnavailable, "volume not exported here");
  }
  return it->second;
}

uint64_t FileServer::NextStamp(const Fid& fid) {
  // The incarnation epoch forms the stamp's high bits, so a restarted
  // server's fresh stamps always exceed any the previous incarnation issued —
  // without it the client's stamp-ordered merge (MergeSyncLocked) would
  // reject every post-restart reply as stale.
  MutexLock lock(mu_);
  return (recovery_.epoch() << 40) + (++stamps_[fid]);
}

FileServer::Stats FileServer::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

Result<VnodeRef> FileServer::ResolveFid(const Fid& fid) {
  ASSIGN_OR_RETURN(VfsRef vfs, ExportedVolume(fid.volume));
  return vfs->VnodeByFid(fid);
}

void FileServer::OnHostUnreachable(NodeId host) {
  // Drop the host's tokens but keep the HostInfo (and its RemoteHost object)
  // alive: this is reached from inside RemoteHost::Revoke, and the client may
  // reconnect later — kConnect re-registers it with the token manager.
  tokens_.UnregisterHost(host);
}

Result<Cred> FileServer::CredForHost(NodeId host) {
  std::string principal;
  uint32_t uid;
  {
    MutexLock lock(mu_);
    auto it = hosts_.find(host);
    if (it == hosts_.end()) {
      return Status(ErrorCode::kAuthFailed, "host not connected");
    }
    principal = it->second.principal;
    uid = it->second.uid;
  }
  Cred cred;
  cred.uid = uid;
  cred.gids = auth_.GroupsOf(principal);  // PasswdEtc-style group membership
  return cred;
}

Status FileServer::Authorize(Vnode& vnode, const Cred& cred, uint32_t needed_rights) {
  if (cred.IsSuperuser()) {
    return Status::Ok();
  }
  ASSIGN_OR_RETURN(Acl acl, vnode.GetAcl());
  uint32_t rights;
  if (!acl.empty()) {
    rights = acl.Evaluate(cred);
  } else {
    ASSIGN_OR_RETURN(FileAttr attr, vnode.GetAttr());
    rights = RightsFromMode(attr.mode, attr.uid, attr.gid, cred,
                            attr.type == FileType::kDirectory);
  }
  if ((rights & needed_rights) != needed_rights) {
    MutexLock lock(mu_);
    stats_.acl_denials += 1;
    return Status(ErrorCode::kPermissionDenied,
                  "missing rights on " + vnode.fid().ToString());
  }
  return Status::Ok();
}

Result<Token> FileServer::GrantLocal(const Fid& fid, uint32_t types) {
  return tokens_.Grant(node_, fid, types, ByteRange::All());
}

// --- RemoteHost: revocations as RPCs to the client cache manager ---

Status FileServer::RemoteHost::Revoke(const Token& token, uint32_t types) {
  Writer w;
  token.Serialize(w);
  w.PutU32(types);
  w.PutU64(server_->NextStamp(token.fid));  // serialization stamp, Section 6.2
  auto raw = server_->network_.Call(server_->node_, client_, kRevokeToken, w.data(), "server");
  if (!raw.ok() && raw.code() == ErrorCode::kUnavailable) {
    // The client host is down (host-module state, Section 3.2): its
    // guarantees are void. Drop every token it held so dead clients cannot
    // wedge live ones; its dirty, never-stored data is lost — the same
    // contract as a client crash on AFS or DFS.
    server_->OnHostUnreachable(client_);
    return Status::Ok();
  }
  ASSIGN_OR_RETURN(WireMessage payload, UnwrapReply(std::move(raw)));
  Reader r(payload);
  ASSIGN_OR_RETURN(uint8_t code, r.ReadU8());
  switch (code) {
    case kRevokeReturned:
      return Status::Ok();
    case kRevokeDeferred:
      return Status(ErrorCode::kWouldBlock, "client deferred the return");
    default:
      return Status(ErrorCode::kBusy, "client refused to relinquish the token");
  }
}

std::vector<Status> FileServer::RemoteHost::RevokeBatch(
    const std::vector<RevokeItem>& items) {
  Writer w;
  w.PutU32(static_cast<uint32_t>(items.size()));
  for (const RevokeItem& item : items) {
    item.token.Serialize(w);
    w.PutU32(item.types);
    w.PutU64(server_->NextStamp(item.token.fid));
  }
  auto decode = [&]() -> Result<std::vector<Status>> {
    auto raw =
        server_->network_.Call(server_->node_, client_, kRevokeTokenBatch, w.data(), "server");
    if (!raw.ok() && raw.code() == ErrorCode::kUnavailable) {
      // Same contract as the single-token path: a dead client's tokens drop.
      server_->OnHostUnreachable(client_);
      return std::vector<Status>(items.size(), Status::Ok());
    }
    ASSIGN_OR_RETURN(WireMessage payload, UnwrapReply(std::move(raw)));
    Reader r(payload);
    ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
    if (count != items.size()) {
      return Status(ErrorCode::kInternal, "batch revocation reply count mismatch");
    }
    std::vector<Status> out;
    out.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      ASSIGN_OR_RETURN(uint8_t code, r.ReadU8());
      switch (code) {
        case kRevokeReturned:
          out.push_back(Status::Ok());
          break;
        case kRevokeDeferred:
          out.push_back(Status(ErrorCode::kWouldBlock, "client deferred the return"));
          break;
        default:
          out.push_back(
              Status(ErrorCode::kBusy, "client refused to relinquish the token"));
          break;
      }
    }
    return out;
  };
  auto statuses = decode();
  if (statuses.ok()) {
    return *std::move(statuses);
  }
  // Transport/decoding failure: every item gets the same error.
  return std::vector<Status>(items.size(), statuses.status());
}

Result<WireMessage> UnwrapReply(Result<WireMessage> raw) {
  RETURN_IF_ERROR(raw.status());
  if (raw->head.empty()) {
    return Status(ErrorCode::kCorrupt, "empty reply");
  }
  if (raw->head[0] != 0) {
    // Success: strip the status byte in place — out-of-band segments shift
    // with the head, their bytes are never touched.
    WireMessage m = *std::move(raw);
    m.head.erase(m.head.begin());
    for (WireMessage::Segment& seg : m.segments) {
      seg.offset -= 1;
    }
    return m;
  }
  Reader r(*raw);
  ASSIGN_OR_RETURN(uint8_t ok, r.ReadU8());
  (void)ok;
  ASSIGN_OR_RETURN(uint16_t code, r.ReadU16());
  ASSIGN_OR_RETURN(std::string message, r.ReadString());
  return Status(static_cast<ErrorCode>(code), std::move(message));
}

// --- Dispatch ---

Result<WireMessage> FileServer::Handle(const RpcRequest& req) {
  {
    MutexLock lock(mu_);
    stats_.requests += 1;
  }
  // Any RPC from a host renews its lease — data traffic doubles as the
  // keep-alive, so idle-but-chatty clients never need explicit pings.
  leases_.Renew(req.from, rclock_->NowNs());
  // Admission (recovery protocol). Connect, keep-alive and reassertion are
  // always admitted — they ARE the recovery path. Everything else is fenced:
  // an epoch from a previous incarnation is rejected first (the client must
  // reconnect and reassert before anything else), then, while the grace
  // window is open, even current-epoch data RPCs are turned away so no grant
  // can race a surviving client's reassertion and no stale data is served.
  bool recovery_proc =
      req.proc == kConnect || req.proc == kReassertTokens || req.proc == kKeepAlive;
  if (!recovery_proc) {
    if (req.epoch != 0 && req.epoch != recovery_.epoch()) {
      recovery_.NoteStaleEpoch();
      return EncodeErrorReply(Status(
          ErrorCode::kStaleEpoch,
          "server epoch is " + std::to_string(recovery_.epoch()) + ", caller sent " +
              std::to_string(req.epoch)));
    }
    if (recovery_.InGrace()) {
      recovery_.NoteRecovering();
      return EncodeErrorReply(
          Status(ErrorCode::kRecovering, "server in post-restart grace period"));
    }
  }
  Reader r(req.payload);
  Body body = Status(ErrorCode::kNotSupported, "unknown procedure");
  switch (req.proc) {
    case kConnect:
      body = DoConnect(req, r);
      break;
    case kReassertTokens:
      body = DoReassertTokens(req, r);
      break;
    case kKeepAlive:
      body = DoKeepAlive(req, r);
      break;
    case kGetRoot:
      body = DoGetRoot(req, r);
      break;
    case kFetchStatus:
      body = DoFetchStatus(req, r);
      break;
    case kFetchData:
      body = DoFetchData(req, r);
      break;
    case kStoreData:
      body = DoStoreData(req, r, /*revocation_path=*/false);
      break;
    case kRevocationStore:
      body = DoStoreData(req, r, /*revocation_path=*/true);
      break;
    case kSyncVolume: {
      body = [&]() -> Body {
        RETURN_IF_ERROR(CredForHost(req.from).status());
        ASSIGN_OR_RETURN(uint64_t volume_id, r.ReadU64());
        ASSIGN_OR_RETURN(VfsRef vfs, ExportedVolume(volume_id));
        RETURN_IF_ERROR(vfs->Sync());
        return Writer();
      }();
      break;
    }
    case kStoreStatus:
      body = DoStoreStatus(req, r);
      break;
    case kTruncate:
      body = DoTruncate(req, r);
      break;
    case kGetToken:
      body = DoGetToken(req, r);
      break;
    case kReturnToken:
      body = DoReturnToken(req, r);
      break;
    case kLookup:
      body = DoLookup(req, r);
      break;
    case kCreate:
      body = DoCreate(req, r);
      break;
    case kSymlink:
      body = DoSymlink(req, r);
      break;
    case kRemove:
      body = DoRemove(req, r, /*rmdir=*/false);
      break;
    case kRemoveDir:
      body = DoRemove(req, r, /*rmdir=*/true);
      break;
    case kRename:
      body = DoRename(req, r);
      break;
    case kLink:
      body = DoLink(req, r);
      break;
    case kReadDir:
      body = DoReadDir(req, r);
      break;
    case kReadlink:
      body = DoReadlink(req, r);
      break;
    case kGetAcl:
      body = DoGetAcl(req, r);
      break;
    case kSetAcl:
      body = DoSetAcl(req, r);
      break;
    case kSetLock:
      body = DoSetLock(req, r);
      break;
    case kClearLock:
      body = DoClearLock(req, r);
      break;
    case kVolList:
    case kVolGetInfo:
    case kVolClone:
    case kVolDump:
    case kVolRestore:
    case kVolDelete:
    case kVolSetBusy:
      body = DoVolProc(req, req.proc, r);
      break;
    default:
      break;
  }
  if (!body.ok()) {
    return EncodeErrorReply(body.status());
  }
  return EncodeOkReply(std::move(*body));
}

FileServer::Body FileServer::DoConnect(const RpcRequest& req, Reader& r) {
  ASSIGN_OR_RETURN(Ticket ticket, Ticket::Deserialize(r));
  ASSIGN_OR_RETURN(std::string principal, auth_.ValidateTicket(ticket));
  {
    MutexLock lock(mu_);
    HostInfo& info = hosts_[req.from];
    info.principal = principal;
    info.uid = ticket.uid;
    if (info.host == nullptr) {
      info.host = std::make_unique<RemoteHost>(this, req.from);
    }
    tokens_.RegisterHost(req.from, info.host.get());
  }
  Writer w;
  w.PutString(principal);
  w.PutU64(recovery_.epoch());
  return w;
}

FileServer::Body FileServer::DoReassertTokens(const RpcRequest& req, Reader& r) {
  RETURN_IF_ERROR(CredForHost(req.from).status());
  ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
  Writer w;
  w.PutU64(recovery_.epoch());
  w.PutU32(count);
  bool any_accepted = false;
  for (uint32_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(Token token, Token::Deserialize(r));
    // A host may only reassert its own tokens, and only for volumes actually
    // exported here (the volume may have moved while the client was away).
    bool accepted = token.host == req.from && ExportedVolume(token.fid.volume).ok() &&
                    tokens_.Reassert(token).ok();
    if (accepted) {
      any_accepted = true;
    }
    w.PutU8(accepted ? 1 : 0);
  }
  if (any_accepted) {
    recovery_.RecordReassertion(req.from);
  }
  return w;
}

FileServer::Body FileServer::DoKeepAlive(const RpcRequest& req, Reader& r) {
  (void)r;
  RETURN_IF_ERROR(CredForHost(req.from).status());
  // The lease was renewed in Handle(); the reply's epoch lets a client detect
  // a restart between data RPCs.
  Writer w;
  w.PutU64(recovery_.epoch());
  return w;
}

FileServer::Body FileServer::DoGetRoot(const RpcRequest& req, Reader& r) {
  RETURN_IF_ERROR(CredForHost(req.from).status());
  ASSIGN_OR_RETURN(uint64_t volume_id, r.ReadU64());
  ASSIGN_OR_RETURN(VfsRef vfs, ExportedVolume(volume_id));
  ASSIGN_OR_RETURN(VnodeRef root, vfs->Root());
  ASSIGN_OR_RETURN(FileAttr attr, root->GetAttr());
  Writer w;
  PutFid(w, attr.fid);
  PutSyncInfo(w, SyncInfo{attr, NextStamp(attr.fid)});
  return w;
}

FileServer::Body FileServer::DoFetchStatus(const RpcRequest& req, Reader& r) {
  // Like stat(2), status reads are permitted to anyone who can name the file.
  RETURN_IF_ERROR(CredForHost(req.from).status());
  ASSIGN_OR_RETURN(Fid fid, ReadFid(r));
  ASSIGN_OR_RETURN(uint32_t want, r.ReadU32());
  OrderedLockGuard l2(vnode_locks_.Get(fid));
  ASSIGN_OR_RETURN(VnodeRef vnode, ResolveFid(fid));
  Writer w;
  if (want != 0) {
    ASSIGN_OR_RETURN(Token token, tokens_.Grant(req.from, fid, want, ByteRange::All()));
    w.PutBool(true);
    token.Serialize(w);
  } else {
    w.PutBool(false);
  }
  ASSIGN_OR_RETURN(FileAttr attr, vnode->GetAttr());
  PutSyncInfo(w, SyncInfo{attr, NextStamp(fid)});
  return w;
}

FileServer::Body FileServer::DoFetchData(const RpcRequest& req, Reader& r) {
  {
    MutexLock lock(mu_);
    stats_.fetch_data_calls += 1;
  }
  ASSIGN_OR_RETURN(Cred cred, CredForHost(req.from));
  ASSIGN_OR_RETURN(Fid fid, ReadFid(r));
  ASSIGN_OR_RETURN(uint64_t offset, r.ReadU64());
  ASSIGN_OR_RETURN(uint32_t len, r.ReadU32());
  ASSIGN_OR_RETURN(uint32_t want, r.ReadU32());
  ByteRange range;
  ASSIGN_OR_RETURN(range.start, r.ReadU64());
  ASSIGN_OR_RETURN(range.end, r.ReadU64());
  // Optional trailing flags byte; its absence (older caller) means 0.
  uint8_t flags = 0;
  if (!r.AtEnd()) {
    ASSIGN_OR_RETURN(flags, r.ReadU8());
  }

  OrderedLockGuard l2(vnode_locks_.Get(fid));
  ASSIGN_OR_RETURN(VnodeRef vnode, ResolveFid(fid));
  RETURN_IF_ERROR(Authorize(*vnode, cred,
                            (want & kTokenDataWrite) ? kRightRead | kRightWrite : kRightRead));
  Writer w;
  if (want != 0) {
    ASSIGN_OR_RETURN(Token token, tokens_.Grant(req.from, fid, want, range));
    w.PutBool(true);
    token.Serialize(w);
  } else {
    w.PutBool(false);
  }
  ASSIGN_OR_RETURN(FileAttr attr, vnode->GetAttr());
  PutSyncInfo(w, SyncInfo{attr, NextStamp(fid)});
  if ((flags & kFetchFlagTokenOnly) != 0) {
    // Token-only grant: the caller is about to overwrite the whole range, so
    // the bytes it asked authority over would be clobbered unread — serve the
    // grant and the sync info, move no data.
    w.PutSlice(BufferSlice());
    MutexLock lock(mu_);
    stats_.token_only_fetches += 1;
    return w;
  }
  std::vector<uint8_t> data(len);
  size_t n = 0;
  if (len > 0) {
    ASSIGN_OR_RETURN(n, vnode->Read(offset, data));
  }
  data.resize(n);
  // The one server-side copy on the fetch path: vnode bytes land in a fresh
  // region that rides to the client out-of-band, untouched from here on.
  w.PutSlice(BufferSlice::TakeOwnership(std::move(data)));
  {
    MutexLock lock(mu_);
    stats_.bytes_copied += n;
    stats_.bytes_moved += n;
    stats_.fetch_data_bytes += n;
  }
  return w;
}

FileServer::Body FileServer::DoStoreData(const RpcRequest& req, Reader& r,
                                         bool revocation_path) {
  RETURN_IF_ERROR(CredForHost(req.from).status());
  ASSIGN_OR_RETURN(Fid fid, ReadFid(r));
  ASSIGN_OR_RETURN(uint64_t offset, r.ReadU64());
  // Scatter-gather store: a count of length-prefixed parts, contiguous at
  // `offset`. Over the in-process wire each part is a reference into the
  // client's cache blocks — the payload was never flattened or copied on its
  // way here.
  ASSIGN_OR_RETURN(uint32_t part_count, r.ReadU32());
  // Every part costs at least a u32 length prefix in the head, so a count
  // beyond that is corrupt — reject before reserving (a garbage count would
  // otherwise size a multi-gigabyte vector).
  if (part_count > r.Remaining() / sizeof(uint32_t)) {
    return Status(ErrorCode::kCorrupt, "store part count exceeds payload");
  }
  std::vector<BufferSlice> parts;
  parts.reserve(part_count);
  uint64_t total = 0;
  for (uint32_t i = 0; i < part_count; ++i) {
    ASSIGN_OR_RETURN(BufferSlice part, r.ReadSlice());
    total += part.size();
    parts.push_back(std::move(part));
  }
  // Optional trailing flags byte; its absence (older caller) means 0.
  uint8_t flags = 0;
  if (!r.AtEnd()) {
    ASSIGN_OR_RETURN(flags, r.ReadU8());
  }

  // A multi-part store is one vnode->Write over the parts gathered into one
  // buffer, so Episode commits it as one short transaction per 32 blocks
  // (Section 2.2's chain) rather than one per part. The gather is a copy.
  BufferSlice gathered;
  if (parts.size() == 1) {
    gathered = std::move(parts[0]);
  } else if (parts.size() > 1) {
    std::vector<uint8_t> buf;
    buf.reserve(total);
    for (const BufferSlice& part : parts) {
      buf.insert(buf.end(), part.span().begin(), part.span().end());
    }
    gathered = BufferSlice::TakeOwnership(std::move(buf));
  }

  Writer w;
  {
    // The normal store serializes through the vnode lock; the special store
    // issued by token-revocation code must not touch L2 (the revoking thread
    // holds it) and is pre-authorized by the token being revoked (Section 6.4).
    MaybeLockGuard l2(revocation_path ? nullptr : &vnode_locks_.Get(fid));
    if (!revocation_path) {
      // The client's write data tokens must cover the range — by union, the
      // rule the client used to decide it needed no new grant.
      if (!tokens_.Covers(req.from, fid, kTokenDataWrite, ByteRange{offset, offset + total})) {
        return Status(ErrorCode::kConflict, "store without a covering write data token");
      }
    }
    OrderedLockGuard l4(io_locks_.Get(fid));
    ASSIGN_OR_RETURN(VnodeRef vnode, ResolveFid(fid));
    if (!gathered.empty()) {
      RETURN_IF_ERROR(vnode->Write(offset, gathered.span()).status());
    }
    {
      MutexLock lock(mu_);
      stats_.bytes_moved += total;
      // vnode->Write absorbs the store into the physical file system's own
      // blocks: the one server-side copy of a one-part store, the second of a
      // gathered one.
      stats_.bytes_copied += parts.size() > 1 ? 2 * total : total;
    }
    ASSIGN_OR_RETURN(FileAttr attr, vnode->GetAttr());
    PutSyncInfo(w, SyncInfo{attr, NextStamp(fid)});
  }
  if ((flags & kStoreFlagForceLog) != 0) {
    // fsync's store: force the log before answering, so the client needs no
    // kSyncVolume. L2 and L4 are already released, so the file's next store
    // is not held behind the force.
    ASSIGN_OR_RETURN(VfsRef vfs, ExportedVolume(fid.volume));
    RETURN_IF_ERROR(vfs->Sync());
  }
  return w;
}

FileServer::Body FileServer::DoStoreStatus(const RpcRequest& req, Reader& r) {
  ASSIGN_OR_RETURN(Cred cred, CredForHost(req.from));
  ASSIGN_OR_RETURN(Fid fid, ReadFid(r));
  ASSIGN_OR_RETURN(AttrUpdate update, ReadAttrUpdate(r));
  OrderedLockGuard l2(vnode_locks_.Get(fid));
  ASSIGN_OR_RETURN(VnodeRef vnode, ResolveFid(fid));
  RETURN_IF_ERROR(Authorize(*vnode, cred, kRightWrite));
  // Pull status-write authority to this client, invalidating other caches.
  ASSIGN_OR_RETURN(Token token,
                   tokens_.Grant(req.from, fid, kTokenStatusWrite, ByteRange::All()));
  RETURN_IF_ERROR(vnode->SetAttr(update));
  ASSIGN_OR_RETURN(FileAttr attr, vnode->GetAttr());
  RETURN_IF_ERROR(tokens_.Return(token.id, token.types));
  Writer w;
  PutSyncInfo(w, SyncInfo{attr, NextStamp(fid)});
  return w;
}

FileServer::Body FileServer::DoTruncate(const RpcRequest& req, Reader& r) {
  ASSIGN_OR_RETURN(Cred cred, CredForHost(req.from));
  ASSIGN_OR_RETURN(Fid fid, ReadFid(r));
  ASSIGN_OR_RETURN(uint64_t new_size, r.ReadU64());
  OrderedLockGuard l2(vnode_locks_.Get(fid));
  ASSIGN_OR_RETURN(VnodeRef vnode, ResolveFid(fid));
  RETURN_IF_ERROR(Authorize(*vnode, cred, kRightWrite));
  ASSIGN_OR_RETURN(Token token, tokens_.Grant(req.from, fid,
                                              kTokenDataWrite | kTokenStatusWrite,
                                              ByteRange::All()));
  OrderedLockGuard l4(io_locks_.Get(fid));
  RETURN_IF_ERROR(vnode->Truncate(new_size));
  ASSIGN_OR_RETURN(FileAttr attr, vnode->GetAttr());
  RETURN_IF_ERROR(tokens_.Return(token.id, token.types));
  Writer w;
  PutSyncInfo(w, SyncInfo{attr, NextStamp(fid)});
  return w;
}

FileServer::Body FileServer::DoGetToken(const RpcRequest& req, Reader& r) {
  RETURN_IF_ERROR(CredForHost(req.from).status());
  ASSIGN_OR_RETURN(Fid fid, ReadFid(r));
  ASSIGN_OR_RETURN(uint32_t types, r.ReadU32());
  ByteRange range;
  ASSIGN_OR_RETURN(range.start, r.ReadU64());
  ASSIGN_OR_RETURN(range.end, r.ReadU64());

  OrderedLockGuard l2(vnode_locks_.Get(fid));
  ASSIGN_OR_RETURN(Token token, tokens_.Grant(req.from, fid, types, range));
  Writer w;
  token.Serialize(w);
  if (fid.vnode != 0) {
    ASSIGN_OR_RETURN(VnodeRef vnode, ResolveFid(fid));
    ASSIGN_OR_RETURN(FileAttr attr, vnode->GetAttr());
    w.PutBool(true);
    PutSyncInfo(w, SyncInfo{attr, NextStamp(fid)});
  } else {
    w.PutBool(false);
    w.PutU64(NextStamp(fid));
  }
  return w;
}

FileServer::Body FileServer::DoReturnToken(const RpcRequest& req, Reader& r) {
  (void)req;
  ASSIGN_OR_RETURN(TokenId id, r.ReadU64());
  ASSIGN_OR_RETURN(uint32_t types, r.ReadU32());
  RETURN_IF_ERROR(tokens_.Return(id, types));
  return Writer();
}

FileServer::Body FileServer::DoLookup(const RpcRequest& req, Reader& r) {
  ASSIGN_OR_RETURN(Cred cred, CredForHost(req.from));
  ASSIGN_OR_RETURN(Fid dir_fid, ReadFid(r));
  ASSIGN_OR_RETURN(std::string name, r.ReadString());
  OrderedLockGuard l2(vnode_locks_.Get(dir_fid));
  ASSIGN_OR_RETURN(VnodeRef dir, ResolveFid(dir_fid));
  RETURN_IF_ERROR(Authorize(*dir, cred, kRightLookup));
  ASSIGN_OR_RETURN(VnodeRef child, dir->Lookup(name));
  ASSIGN_OR_RETURN(FileAttr child_attr, child->GetAttr());
  ASSIGN_OR_RETURN(FileAttr dir_attr, dir->GetAttr());
  Writer w;
  PutAttr(w, child_attr);
  PutSyncInfo(w, SyncInfo{dir_attr, NextStamp(dir_fid)});
  return w;
}

FileServer::Body FileServer::DoCreate(const RpcRequest& req, Reader& r) {
  ASSIGN_OR_RETURN(Cred cred, CredForHost(req.from));
  ASSIGN_OR_RETURN(Fid dir_fid, ReadFid(r));
  ASSIGN_OR_RETURN(std::string name, r.ReadString());
  ASSIGN_OR_RETURN(uint8_t type, r.ReadU8());
  ASSIGN_OR_RETURN(uint32_t mode, r.ReadU32());
  OrderedLockGuard l2(vnode_locks_.Get(dir_fid));
  ASSIGN_OR_RETURN(VnodeRef dir, ResolveFid(dir_fid));
  RETURN_IF_ERROR(Authorize(*dir, cred, kRightInsert));
  // Invalidate every client's cached view of the directory first.
  ASSIGN_OR_RETURN(Token guard,
                   GrantLocal(dir_fid, kTokenStatusWrite | kTokenDataWrite));
  auto child = dir->Create(name, static_cast<FileType>(type), mode, cred);
  Status ret = tokens_.Return(guard.id, guard.types);
  RETURN_IF_ERROR(child.status());
  RETURN_IF_ERROR(ret);
  ASSIGN_OR_RETURN(FileAttr child_attr, (*child)->GetAttr());
  ASSIGN_OR_RETURN(FileAttr dir_attr, dir->GetAttr());
  Writer w;
  PutAttr(w, child_attr);
  PutSyncInfo(w, SyncInfo{dir_attr, NextStamp(dir_fid)});
  return w;
}

FileServer::Body FileServer::DoSymlink(const RpcRequest& req, Reader& r) {
  ASSIGN_OR_RETURN(Cred cred, CredForHost(req.from));
  ASSIGN_OR_RETURN(Fid dir_fid, ReadFid(r));
  ASSIGN_OR_RETURN(std::string name, r.ReadString());
  ASSIGN_OR_RETURN(std::string target, r.ReadString());
  OrderedLockGuard l2(vnode_locks_.Get(dir_fid));
  ASSIGN_OR_RETURN(VnodeRef dir, ResolveFid(dir_fid));
  RETURN_IF_ERROR(Authorize(*dir, cred, kRightInsert));
  ASSIGN_OR_RETURN(Token guard,
                   GrantLocal(dir_fid, kTokenStatusWrite | kTokenDataWrite));
  auto child = dir->CreateSymlink(name, target, cred);
  Status ret = tokens_.Return(guard.id, guard.types);
  RETURN_IF_ERROR(child.status());
  RETURN_IF_ERROR(ret);
  ASSIGN_OR_RETURN(FileAttr child_attr, (*child)->GetAttr());
  ASSIGN_OR_RETURN(FileAttr dir_attr, dir->GetAttr());
  Writer w;
  PutAttr(w, child_attr);
  PutSyncInfo(w, SyncInfo{dir_attr, NextStamp(dir_fid)});
  return w;
}

FileServer::Body FileServer::DoRemove(const RpcRequest& req, Reader& r, bool rmdir) {
  ASSIGN_OR_RETURN(Cred cred, CredForHost(req.from));
  ASSIGN_OR_RETURN(Fid dir_fid, ReadFid(r));
  ASSIGN_OR_RETURN(std::string name, r.ReadString());
  OrderedLockGuard l2(vnode_locks_.Get(dir_fid));
  ASSIGN_OR_RETURN(VnodeRef dir, ResolveFid(dir_fid));
  RETURN_IF_ERROR(Authorize(*dir, cred, kRightDelete));

  // The exclusive-write open token on the victim assures us no remote user has
  // the file open (Section 5.4's deletion check); conflicting opens surface
  // as kTextBusy. Status- and data-write guards revoke every client's cached
  // state — dirty pages come back (and then die with the file) rather than
  // being stranded against a stale FID.
  Token victim_guard{};
  bool have_victim_guard = false;
  auto child = dir->Lookup(name);
  if (child.ok()) {
    auto grant = tokens_.Grant(
        node_, (*child)->fid(),
        kTokenOpenExclusive | kTokenStatusWrite | kTokenDataWrite, ByteRange::All());
    if (!grant.ok()) {
      if (grant.code() == ErrorCode::kConflict) {
        return Status(ErrorCode::kTextBusy, "file is in use by another client");
      }
      return grant.status();
    }
    victim_guard = *grant;
    have_victim_guard = true;
  }
  ASSIGN_OR_RETURN(Token guard, GrantLocal(dir_fid, kTokenStatusWrite | kTokenDataWrite));
  Status op = rmdir ? dir->Rmdir(name) : dir->Unlink(name);
  (void)tokens_.Return(guard.id, guard.types);
  if (have_victim_guard) {
    (void)tokens_.Return(victim_guard.id, victim_guard.types);
  }
  RETURN_IF_ERROR(op);
  ASSIGN_OR_RETURN(FileAttr dir_attr, dir->GetAttr());
  Writer w;
  PutSyncInfo(w, SyncInfo{dir_attr, NextStamp(dir_fid)});
  return w;
}

FileServer::Body FileServer::DoRename(const RpcRequest& req, Reader& r) {
  ASSIGN_OR_RETURN(Cred cred, CredForHost(req.from));
  ASSIGN_OR_RETURN(Fid src_fid, ReadFid(r));
  ASSIGN_OR_RETURN(std::string src_name, r.ReadString());
  ASSIGN_OR_RETURN(Fid dst_fid, ReadFid(r));
  ASSIGN_OR_RETURN(std::string dst_name, r.ReadString());

  // Lock both directory vnodes in hierarchy-tag order (same level).
  OrderedMutex& a = vnode_locks_.Get(src_fid);
  OrderedMutex& b = vnode_locks_.Get(dst_fid);
  OrderedMutex* first = &a;
  OrderedMutex* second = (&a == &b) ? nullptr : &b;
  if (second != nullptr && second->tag() < first->tag()) {
    std::swap(first, second);
  }
  OrderedLockGuard l2a(*first);
  // Conditional second lock (cross-directory rename).
  // LOCK-ORDER(same-level): first/second are sorted by OrderedMutex tag above,
  // so the pair is always acquired in ascending tag order.
  MaybeLockGuard l2b(second);

  ASSIGN_OR_RETURN(VfsRef vfs, ExportedVolume(src_fid.volume));
  ASSIGN_OR_RETURN(VnodeRef src_dir, ResolveFid(src_fid));
  ASSIGN_OR_RETURN(VnodeRef dst_dir, ResolveFid(dst_fid));
  RETURN_IF_ERROR(Authorize(*src_dir, cred, kRightDelete));
  RETURN_IF_ERROR(Authorize(*dst_dir, cred, kRightInsert));

  // A rename that replaces an existing destination deletes it: apply the same
  // victim guard as DoRemove so clients' cached state on it is revoked first.
  Token victim_guard{};
  bool have_victim_guard = false;
  if (auto victim = dst_dir->Lookup(dst_name); victim.ok()) {
    auto grant = tokens_.Grant(
        node_, (*victim)->fid(),
        kTokenOpenExclusive | kTokenStatusWrite | kTokenDataWrite, ByteRange::All());
    if (!grant.ok()) {
      if (grant.code() == ErrorCode::kConflict) {
        return Status(ErrorCode::kTextBusy, "rename target is in use by another client");
      }
      return grant.status();
    }
    victim_guard = *grant;
    have_victim_guard = true;
  }

  ASSIGN_OR_RETURN(Token g1, GrantLocal(src_fid, kTokenStatusWrite | kTokenDataWrite));
  Result<Token> g2 = (src_fid == dst_fid)
                         ? Result<Token>(Token{})
                         : GrantLocal(dst_fid, kTokenStatusWrite | kTokenDataWrite);
  if (!g2.ok()) {
    (void)tokens_.Return(g1.id, g1.types);
    return g2.status();
  }
  Status op = vfs->Rename(*src_dir, src_name, *dst_dir, dst_name);
  (void)tokens_.Return(g1.id, g1.types);
  if (!(src_fid == dst_fid)) {
    (void)tokens_.Return(g2->id, g2->types);
  }
  if (have_victim_guard) {
    (void)tokens_.Return(victim_guard.id, victim_guard.types);
  }
  RETURN_IF_ERROR(op);
  ASSIGN_OR_RETURN(FileAttr src_attr, src_dir->GetAttr());
  ASSIGN_OR_RETURN(FileAttr dst_attr, dst_dir->GetAttr());
  Writer w;
  PutSyncInfo(w, SyncInfo{src_attr, NextStamp(src_fid)});
  PutSyncInfo(w, SyncInfo{dst_attr, NextStamp(dst_fid)});
  return w;
}

FileServer::Body FileServer::DoLink(const RpcRequest& req, Reader& r) {
  ASSIGN_OR_RETURN(Cred cred, CredForHost(req.from));
  ASSIGN_OR_RETURN(Fid dir_fid, ReadFid(r));
  ASSIGN_OR_RETURN(std::string name, r.ReadString());
  ASSIGN_OR_RETURN(Fid target_fid, ReadFid(r));
  OrderedLockGuard l2(vnode_locks_.Get(dir_fid));
  ASSIGN_OR_RETURN(VnodeRef dir, ResolveFid(dir_fid));
  ASSIGN_OR_RETURN(VnodeRef target, ResolveFid(target_fid));
  RETURN_IF_ERROR(Authorize(*dir, cred, kRightInsert));
  ASSIGN_OR_RETURN(Token guard, GrantLocal(dir_fid, kTokenStatusWrite | kTokenDataWrite));
  Status op = dir->Link(name, *target);
  (void)tokens_.Return(guard.id, guard.types);
  RETURN_IF_ERROR(op);
  ASSIGN_OR_RETURN(FileAttr dir_attr, dir->GetAttr());
  Writer w;
  PutSyncInfo(w, SyncInfo{dir_attr, NextStamp(dir_fid)});
  return w;
}

FileServer::Body FileServer::DoReadDir(const RpcRequest& req, Reader& r) {
  ASSIGN_OR_RETURN(Cred cred, CredForHost(req.from));
  ASSIGN_OR_RETURN(Fid dir_fid, ReadFid(r));
  OrderedLockGuard l2(vnode_locks_.Get(dir_fid));
  ASSIGN_OR_RETURN(VnodeRef dir, ResolveFid(dir_fid));
  RETURN_IF_ERROR(Authorize(*dir, cred, kRightLookup));
  ASSIGN_OR_RETURN(std::vector<DirEntry> entries, dir->ReadDir());
  ASSIGN_OR_RETURN(FileAttr attr, dir->GetAttr());
  Writer w;
  w.PutU32(static_cast<uint32_t>(entries.size()));
  for (const DirEntry& e : entries) {
    PutDirEntry(w, e);
  }
  PutSyncInfo(w, SyncInfo{attr, NextStamp(dir_fid)});
  return w;
}

FileServer::Body FileServer::DoReadlink(const RpcRequest& req, Reader& r) {
  RETURN_IF_ERROR(CredForHost(req.from).status());
  ASSIGN_OR_RETURN(Fid fid, ReadFid(r));
  OrderedLockGuard l2(vnode_locks_.Get(fid));
  ASSIGN_OR_RETURN(VnodeRef vnode, ResolveFid(fid));
  ASSIGN_OR_RETURN(std::string target, vnode->ReadSymlink());
  Writer w;
  w.PutString(target);
  return w;
}

FileServer::Body FileServer::DoGetAcl(const RpcRequest& req, Reader& r) {
  RETURN_IF_ERROR(CredForHost(req.from).status());
  ASSIGN_OR_RETURN(Fid fid, ReadFid(r));
  OrderedLockGuard l2(vnode_locks_.Get(fid));
  ASSIGN_OR_RETURN(VnodeRef vnode, ResolveFid(fid));
  ASSIGN_OR_RETURN(Acl acl, vnode->GetAcl());
  Writer w;
  acl.Serialize(w);
  return w;
}

FileServer::Body FileServer::DoSetAcl(const RpcRequest& req, Reader& r) {
  ASSIGN_OR_RETURN(Cred cred, CredForHost(req.from));
  ASSIGN_OR_RETURN(Fid fid, ReadFid(r));
  ASSIGN_OR_RETURN(Acl acl, Acl::Deserialize(r));
  OrderedLockGuard l2(vnode_locks_.Get(fid));
  ASSIGN_OR_RETURN(VnodeRef vnode, ResolveFid(fid));
  RETURN_IF_ERROR(Authorize(*vnode, cred, kRightControl));
  ASSIGN_OR_RETURN(Token guard, GrantLocal(fid, kTokenStatusWrite));
  Status op = vnode->SetAcl(acl);
  (void)tokens_.Return(guard.id, guard.types);
  RETURN_IF_ERROR(op);
  ASSIGN_OR_RETURN(FileAttr attr, vnode->GetAttr());
  Writer w;
  PutSyncInfo(w, SyncInfo{attr, NextStamp(fid)});
  return w;
}

FileServer::Body FileServer::DoSetLock(const RpcRequest& req, Reader& r) {
  RETURN_IF_ERROR(CredForHost(req.from).status());
  ASSIGN_OR_RETURN(Fid fid, ReadFid(r));
  ByteRange range;
  ASSIGN_OR_RETURN(range.start, r.ReadU64());
  ASSIGN_OR_RETURN(range.end, r.ReadU64());
  ASSIGN_OR_RETURN(bool exclusive, r.ReadBool());
  ASSIGN_OR_RETURN(uint64_t owner, r.ReadU64());
  OrderedLockGuard l2(vnode_locks_.Get(fid));
  MutexLock lock(mu_);
  for (const FileLock& fl : file_locks_[fid]) {
    bool same_owner = fl.owner_host == req.from && fl.owner == owner;
    if (!same_owner && fl.range.Overlaps(range) && (fl.exclusive || exclusive)) {
      return Status(ErrorCode::kWouldBlock, "conflicting file lock");
    }
  }
  file_locks_[fid].push_back(FileLock{range, exclusive, req.from, owner});
  return Writer();
}

FileServer::Body FileServer::DoClearLock(const RpcRequest& req, Reader& r) {
  RETURN_IF_ERROR(CredForHost(req.from).status());
  ASSIGN_OR_RETURN(Fid fid, ReadFid(r));
  ByteRange range;
  ASSIGN_OR_RETURN(range.start, r.ReadU64());
  ASSIGN_OR_RETURN(range.end, r.ReadU64());
  ASSIGN_OR_RETURN(uint64_t owner, r.ReadU64());
  OrderedLockGuard l2(vnode_locks_.Get(fid));
  MutexLock lock(mu_);
  auto& locks = file_locks_[fid];
  locks.erase(std::remove_if(locks.begin(), locks.end(),
                             [&](const FileLock& fl) {
                               return fl.owner_host == req.from && fl.owner == owner &&
                                      fl.range == range;
                             }),
              locks.end());
  return Writer();
}

FileServer::Body FileServer::DoVolProc(const RpcRequest& req, uint32_t proc, Reader& r) {
  RETURN_IF_ERROR(CredForHost(req.from).status());
  std::vector<VolumeOps*> ops_list;
  {
    MutexLock lock(mu_);
    ops_list = volume_ops_;
  }
  if (ops_list.empty()) {
    return Status(ErrorCode::kNotSupported, "no volume operations on this server");
  }
  auto find_ops = [&](uint64_t volume_id) -> Result<VolumeOps*> {
    for (VolumeOps* ops : ops_list) {
      if (ops->GetVolume(volume_id).ok()) {
        return ops;
      }
    }
    return Status(ErrorCode::kNotFound, "volume not on this server");
  };

  Writer w;
  switch (proc) {
    case kVolList: {
      std::vector<VolumeInfo> all;
      for (VolumeOps* ops : ops_list) {
        ASSIGN_OR_RETURN(std::vector<VolumeInfo> vols, ops->ListVolumes());
        all.insert(all.end(), vols.begin(), vols.end());
      }
      w.PutU32(static_cast<uint32_t>(all.size()));
      for (const VolumeInfo& info : all) {
        PutVolumeInfo(w, info);
      }
      return w;
    }
    case kVolGetInfo: {
      ASSIGN_OR_RETURN(uint64_t id, r.ReadU64());
      ASSIGN_OR_RETURN(VolumeOps * ops, find_ops(id));
      ASSIGN_OR_RETURN(VolumeInfo info, ops->GetVolume(id));
      PutVolumeInfo(w, info);
      return w;
    }
    case kVolClone: {
      ASSIGN_OR_RETURN(uint64_t id, r.ReadU64());
      ASSIGN_OR_RETURN(std::string name, r.ReadString());
      ASSIGN_OR_RETURN(VolumeOps * ops, find_ops(id));
      ASSIGN_OR_RETURN(uint64_t clone_id, ops->CloneVolume(id, name));
      RETURN_IF_ERROR(RefreshExports());
      w.PutU64(clone_id);
      return w;
    }
    case kVolDump: {
      ASSIGN_OR_RETURN(uint64_t id, r.ReadU64());
      ASSIGN_OR_RETURN(uint64_t since, r.ReadU64());
      ASSIGN_OR_RETURN(VolumeOps * ops, find_ops(id));
      ASSIGN_OR_RETURN(VolumeDump dump, ops->DumpVolume(id, since));
      dump.Serialize(w);
      return w;
    }
    case kVolRestore: {
      ASSIGN_OR_RETURN(VolumeDump dump, VolumeDump::Deserialize(r));
      ASSIGN_OR_RETURN(uint64_t new_id, ops_list.front()->RestoreVolume(dump));
      RETURN_IF_ERROR(RefreshExports());
      w.PutU64(new_id);
      return w;
    }
    case kVolDelete: {
      ASSIGN_OR_RETURN(uint64_t id, r.ReadU64());
      ASSIGN_OR_RETURN(VolumeOps * ops, find_ops(id));
      RETURN_IF_ERROR(UnexportVolume(id));
      RETURN_IF_ERROR(ops->DeleteVolume(id));
      return w;
    }
    case kVolSetBusy: {
      ASSIGN_OR_RETURN(uint64_t id, r.ReadU64());
      ASSIGN_OR_RETURN(bool busy, r.ReadBool());
      ASSIGN_OR_RETURN(VolumeOps * ops, find_ops(id));
      RETURN_IF_ERROR(ops->SetVolumeBusy(id, busy));
      return w;
    }
    default:
      return Status(ErrorCode::kNotSupported, "unknown volume procedure");
  }
}

}  // namespace dfs
