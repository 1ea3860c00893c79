// The DEcorum file server: protocol exporter + token manager + host module +
// Vnode glue layer + volume procedures (Figure 1, Sections 3, 5, 6).
//
// One FileServer per server node. It exports any physical file system that
// implements the Vnode/VFS(+) interface — Episode aggregates with full VFS+
// support, or an FFS with the conventional subset. All remote operations are
// serialized per file by the server vnode lock (hierarchy level L2), which is
// where per-file serialization timestamps are assigned; token grants (and the
// revocations they trigger) happen under that lock, exactly the structure
// Section 6.1 prescribes. The revocation-initiated store path takes only the
// server I/O lock (L4) on the dedicated RPC pool (Section 6.4).
#ifndef SRC_SERVER_FILE_SERVER_H_
#define SRC_SERVER_FILE_SERVER_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/lock_order.h"
#include "src/common/mutex.h"
#include "src/recovery/lease_table.h"
#include "src/recovery/recovery_manager.h"
#include "src/recovery/sim_clock.h"
#include "src/rpc/auth.h"
#include "src/rpc/rpc.h"
#include "src/server/procs.h"
#include "src/tokens/token_manager.h"
#include "src/vfs/vnode.h"

namespace dfs {

// Per-fid lock registry assigning stable, strictly increasing hierarchy tags
// so multi-file operations (rename) can lock in tag order.
class FidLockTable {
 public:
  FidLockTable(LockLevel level, const char* name) : level_(level), name_(name) {}

  OrderedMutex& Get(const Fid& fid);

 private:
  const LockLevel level_;
  const char* const name_;
  // LOCK-EXEMPT(leaf): registry map guard; held only for the map lookup,
  // never while acquiring the OrderedMutex it hands out.
  Mutex mu_;
  uint64_t next_tag_ GUARDED_BY(mu_) = 1;
  std::map<Fid, std::unique_ptr<OrderedMutex>, bool (*)(const Fid&, const Fid&)> locks_
      GUARDED_BY(mu_){[](const Fid& a, const Fid& b) {
        return std::tie(a.volume, a.vnode, a.uniq) < std::tie(b.volume, b.vnode, b.uniq);
      }};
};

class FileServer : public RpcHandler {
 public:
  struct Options {
    Network::NodeOptions rpc;
    // Revocation fan-out and lease knobs, passed through to the token
    // manager (the bench's serial-ablation flag comes in this way).
    TokenManager::Options tokens;
    // Liveness + restart recovery (src/recovery). Defaults reproduce the
    // pre-recovery behaviour: epoch 1, no grace period, leases never expire.
    struct RecoveryOptions {
      uint64_t epoch = 1;           // incarnation; bump on restart
      uint32_t grace_period_ms = 0; // post-restart reassertion window
      uint32_t lease_ttl_ms = 0;    // 0 = hosts never go silent
      // Pre-restart lease roster (grace auto-sizing): once every listed host
      // has reasserted, the grace window closes early. Empty = full window.
      std::vector<uint32_t> expected_hosts;
      // Shared deterministic clock (the test rig injects its VirtualClock);
      // null = the server runs a private clock that never advances, i.e.
      // leases and grace are inert unless someone drives time.
      SimClock* clock = nullptr;
    } recovery;
  };

  // Two overloads rather than `Options options = {}`: gcc cannot evaluate a
  // braced default argument whose type carries nested default member
  // initializers at class scope.
  FileServer(Network& network, AuthService& auth, NodeId node);
  FileServer(Network& network, AuthService& auth, NodeId node, Options options);
  ~FileServer() override;

  NodeId node() const { return node_; }
  TokenManager& tokens() { return tokens_; }
  Network& network() { return network_; }
  uint64_t epoch() const { return recovery_.epoch(); }
  bool in_grace() const { return recovery_.InGrace(); }
  RecoveryManager::Stats recovery_stats() const { return recovery_.stats(); }
  // Lease-holding hosts; a restarting rig snapshots this as the successor's
  // expected_hosts roster.
  std::vector<uint32_t> LeaseHosts() const { return leases_.Hosts(); }

  // Exports a mounted physical file system under its volume id.
  Status ExportVolume(uint64_t volume_id, VfsRef vfs);
  // Exports every volume of an Episode aggregate and its volume operations.
  Status ExportAggregate(VolumeOps* ops);
  // Re-mounts/exports volumes that appeared since (after a restore).
  Status RefreshExports();
  Status UnexportVolume(uint64_t volume_id);
  Result<VfsRef> ExportedVolume(uint64_t volume_id);

  // The glue layer for local users of this node (Figure 1's path from the
  // generic system calls down through the token layer): a Vfs whose every
  // operation obtains tokens from this server's token manager — so local
  // access synchronizes with remote clients (the Section 5.5 scenario).
  Result<VfsRef> LocalMount(uint64_t volume_id, const Cred& cred);

  // RpcHandler.
  Result<WireMessage> Handle(const RpcRequest& request) override;
  bool IsRevocationPathProc(uint32_t proc) const override {
    return proc == kRevocationStore || proc == kReturnToken;
  }

  // Serialization stamps (Section 6.2). Public so the glue layer can stamp.
  uint64_t NextStamp(const Fid& fid);

  // Host-module teardown: drops a dead client's registration and every token
  // it held (called when a revocation RPC finds the host unreachable, or by
  // an administrator).
  void OnHostUnreachable(NodeId host);

  struct Stats {
    uint64_t requests = 0;
    uint64_t acl_denials = 0;
    uint64_t local_ops = 0;
    // Data-plane RPCs served, so tests can prove a warm-rebooted client never
    // re-fetched bytes its persistent cache already held.
    uint64_t fetch_data_calls = 0;
    // Token-only kFetchData grants: whole-range overwriters asked for the
    // write token without the bytes they are about to clobber.
    uint64_t token_only_fetches = 0;
    // Zero-copy instrumentation. bytes_moved: data payload bytes that crossed
    // the wire through this server (fetch replies out + store requests in).
    // bytes_copied: payload bytes this server memcpy'd while handling them
    // (vnode reads into a staging slice, vnode writes out of the wire
    // segment). The datapath bench drives copied/moved toward 1.
    uint64_t bytes_moved = 0;
    uint64_t bytes_copied = 0;
    // Data payload bytes served by kFetchData specifically (the token-only
    // grant test asserts a whole-range overwrite leaves this at zero).
    uint64_t fetch_data_bytes = 0;
  };
  Stats stats() const;

  // --- used by LocalVnode (glue layer) ---
  FidLockTable& vnode_locks() { return vnode_locks_; }
  FidLockTable& io_locks() { return io_locks_; }
  HostId local_host() const { return node_; }

 private:
  friend class LocalVnode;
  friend class LocalVfs;

  // A remote client host: revocations go out as RPCs (Section 5.3).
  class RemoteHost : public TokenHost {
   public:
    RemoteHost(FileServer* server, NodeId client) : server_(server), client_(client) {}
    Status Revoke(const Token& token, uint32_t types) override;
    // Coalesces a fan-out round's revocations against this client into one
    // kRevokeTokenBatch RPC.
    std::vector<Status> RevokeBatch(const std::vector<RevokeItem>& items) override;
    std::string name() const override { return "client-" + std::to_string(client_); }

   private:
    FileServer* server_;
    NodeId client_;
  };

  // The local glue layer as a token-manager client: ops hold tokens only for
  // their own duration, so a revocation just waits for the op to finish.
  class LocalHost : public TokenHost {
   public:
    Status Revoke(const Token&, uint32_t) override {
      return Status(ErrorCode::kWouldBlock, "local op in progress; token returns at op end");
    }
    std::string name() const override { return "local-glue"; }
  };

  struct HostInfo {
    std::string principal;
    uint32_t uid = 0;
    std::unique_ptr<RemoteHost> host;
  };

  struct FileLock {
    ByteRange range;
    bool exclusive = false;
    HostId owner_host = 0;
    uint64_t owner = 0;  // caller-chosen lock owner id (process)
  };

  // Dispatch helpers. Each returns the reply body writer.
  using Body = Result<Writer>;
  Body DoConnect(const RpcRequest& req, Reader& r);
  Body DoReassertTokens(const RpcRequest& req, Reader& r);
  Body DoKeepAlive(const RpcRequest& req, Reader& r);
  Body DoGetRoot(const RpcRequest& req, Reader& r);
  Body DoFetchStatus(const RpcRequest& req, Reader& r);
  Body DoFetchData(const RpcRequest& req, Reader& r);
  Body DoStoreData(const RpcRequest& req, Reader& r, bool revocation_path);
  Body DoStoreStatus(const RpcRequest& req, Reader& r);
  Body DoTruncate(const RpcRequest& req, Reader& r);
  Body DoGetToken(const RpcRequest& req, Reader& r);
  Body DoReturnToken(const RpcRequest& req, Reader& r);
  Body DoLookup(const RpcRequest& req, Reader& r);
  Body DoCreate(const RpcRequest& req, Reader& r);
  Body DoSymlink(const RpcRequest& req, Reader& r);
  Body DoRemove(const RpcRequest& req, Reader& r, bool rmdir);
  Body DoRename(const RpcRequest& req, Reader& r);
  Body DoLink(const RpcRequest& req, Reader& r);
  Body DoReadDir(const RpcRequest& req, Reader& r);
  Body DoReadlink(const RpcRequest& req, Reader& r);
  Body DoGetAcl(const RpcRequest& req, Reader& r);
  Body DoSetAcl(const RpcRequest& req, Reader& r);
  Body DoSetLock(const RpcRequest& req, Reader& r);
  Body DoClearLock(const RpcRequest& req, Reader& r);
  Body DoVolProc(const RpcRequest& req, uint32_t proc, Reader& r);

  Result<VnodeRef> ResolveFid(const Fid& fid);
  Result<Cred> CredForHost(NodeId host);
  // ACL-or-mode-bits authorization check (Section 2.3 / glue layer duty).
  Status Authorize(Vnode& vnode, const Cred& cred, uint32_t needed_rights);
  // Grants short-lived local tokens around a server-side mutation so client
  // caches of the affected files are invalidated first.
  Result<Token> GrantLocal(const Fid& fid, uint32_t types);

  // Injects the lease-expiry hook into the token-manager options. The lambda
  // captures `server` but only runs on grant paths, well after construction.
  static TokenManager::Options WithHostSilent(TokenManager::Options opts,
                                              FileServer* server);

  // Registers this server on the network exactly once, called from the
  // export paths — the server answers the network only after it has
  // something exported (see the comment in the definition).
  void EnsureRegistered();

  Network& network_;
  AuthService& auth_;
  const NodeId node_;
  // GUARD-EXEMPT: configuration snapshot, never written after construction.
  Options options_;
  std::atomic<bool> registered_{false};

  // Recovery subsystem (declared before tokens_: the host_silent hook the
  // token manager holds reads leases_ and rclock_).
  // GUARD-EXEMPT: SimClock is a monotonic counter driven by the simulated
  // network's single-threaded event pump; rclock_ is fixed at construction.
  SimClock own_clock_;
  // GUARD-EXEMPT: fixed at construction (points at own_clock_ or the
  // caller's clock), never reseated.
  SimClock* rclock_;
  // GUARD-EXEMPT: LeaseTable and RecoveryManager are internally synchronized
  // (each owns its leaf mutex); the objects themselves are never reseated.
  LeaseTable leases_;
  // GUARD-EXEMPT: internally synchronized (owns its leaf mutex); never
  // reseated after construction.
  RecoveryManager recovery_;

  // GUARD-EXEMPT: internally synchronized — the token manager owns the
  // kTokenShard/kHostRegistry capabilities for all of its state.
  TokenManager tokens_;
  // GUARD-EXEMPT: stateless adapter routing local-host calls back into this
  // server; wired at construction.
  LocalHost local_host_handler_;
  FidLockTable vnode_locks_{LockLevel::kServerVnode, "server-vnode"};
  FidLockTable io_locks_{LockLevel::kServerIo, "server-io"};

  // LOCK-EXEMPT(leaf): server registry/stats guard; held only for map and
  // counter access, below every OrderedMutex in the hierarchy — nothing
  // acquired under it, no RPC issued under it.
  mutable Mutex mu_;
  std::map<uint64_t, VfsRef> volumes_ GUARDED_BY(mu_);
  std::vector<VolumeOps*> volume_ops_ GUARDED_BY(mu_);
  std::map<NodeId, HostInfo> hosts_ GUARDED_BY(mu_);
  std::unordered_map<Fid, uint64_t, FidHash> stamps_ GUARDED_BY(mu_);
  std::map<Fid, std::vector<FileLock>, bool (*)(const Fid&, const Fid&)> file_locks_
      GUARDED_BY(mu_){[](const Fid& a, const Fid& b) {
        return std::tie(a.volume, a.vnode, a.uniq) < std::tie(b.volume, b.vnode, b.uniq);
      }};
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace dfs

#endif  // SRC_SERVER_FILE_SERVER_H_
