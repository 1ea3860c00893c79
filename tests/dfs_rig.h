// Shared fixture for distributed-stack tests and benchmarks: a virtual-clock
// network with a VLDB, one or two Episode-backed file servers, and client
// cache managers.
#ifndef TESTS_DFS_RIG_H_
#define TESTS_DFS_RIG_H_

#include <memory>
#include <string>
#include <vector>

#include "src/client/cache_manager.h"
#include "src/episode/aggregate.h"
#include "src/recovery/sim_clock.h"
#include "src/rpc/auth.h"
#include "src/rpc/rpc.h"
#include "src/server/file_server.h"
#include "src/server/local_vnode.h"
#include "src/server/replication.h"
#include "src/server/vldb.h"
#include "src/server/volume_server.h"

namespace dfs {

inline constexpr NodeId kVldbNode = 1;
inline constexpr NodeId kServerNode = 10;
inline constexpr NodeId kServer2Node = 11;
inline constexpr NodeId kFirstClientNode = 100;
inline constexpr uint64_t kUserSecret = 0xBEEF;

struct DfsRig {
  VirtualClock clock;
  // The same virtual clock, seen through the recovery subsystem's interface:
  // advancing `clock` drives server leases and grace periods too.
  SimClock sim_clock{&clock};
  Network net{&clock};
  AuthService auth;
  uint64_t server_epoch = 1;
  std::unique_ptr<VldbServer> vldb;

  std::unique_ptr<SimDisk> disk;
  std::unique_ptr<Aggregate> agg;
  std::unique_ptr<FileServer> server;

  std::unique_ptr<SimDisk> disk2;
  std::unique_ptr<Aggregate> agg2;
  std::unique_ptr<FileServer> server2;

  uint64_t volume_id = 0;
  std::vector<std::unique_ptr<CacheManager>> clients;
  // The primary server's construction options, kept so RestartServer can
  // rebuild it the same way (with a bumped epoch).
  FileServer::Options server_options;

  struct Options {
    bool second_server = false;
    uint64_t disk_blocks = 16384;
    Aggregate::Options agg;
    // Passed through to the primary file server (lease TTLs, token-manager
    // knobs, ...). The recovery clock is always overridden to the rig's.
    FileServer::Options server;
  };

  static std::unique_ptr<DfsRig> Create() { return Create(Options()); }

  static std::unique_ptr<DfsRig> Create(Options options) {
    auto rig = std::make_unique<DfsRig>();
    rig->auth.AddPrincipal("alice", 100, kUserSecret);
    rig->auth.AddPrincipal("bob", 101, kUserSecret);
    rig->auth.AddPrincipal("root", 0, kUserSecret);
    rig->vldb = std::make_unique<VldbServer>(rig->net, kVldbNode);

    rig->disk = std::make_unique<SimDisk>(options.disk_blocks);
    Aggregate::Options aopts = options.agg;
    aopts.wal.clock = &rig->clock;
    auto agg = Aggregate::Format(*rig->disk, aopts);
    if (!agg.ok()) {
      return nullptr;
    }
    rig->agg = std::move(*agg);
    FileServer::Options sopts = options.server;
    sopts.recovery.clock = &rig->sim_clock;
    sopts.recovery.epoch = rig->server_epoch;
    rig->server_options = sopts;
    rig->server = std::make_unique<FileServer>(rig->net, rig->auth, kServerNode, sopts);
    auto vid = rig->agg->CreateVolume("home");
    if (!vid.ok()) {
      return nullptr;
    }
    rig->volume_id = *vid;
    (void)rig->server->ExportAggregate(rig->agg.get());
    VldbClient registrar(rig->net, kServerNode, {kVldbNode});
    (void)registrar.Register(rig->volume_id, "home", kServerNode, rig->server->epoch());

    if (options.second_server) {
      rig->disk2 = std::make_unique<SimDisk>(options.disk_blocks);
      Aggregate::Options a2 = options.agg;
      a2.wal.clock = &rig->clock;
      a2.volume_id_base = 1000;
      auto agg2 = Aggregate::Format(*rig->disk2, a2);
      if (!agg2.ok()) {
        return nullptr;
      }
      rig->agg2 = std::move(*agg2);
      rig->server2 = std::make_unique<FileServer>(rig->net, rig->auth, kServer2Node);
      (void)rig->server2->ExportAggregate(rig->agg2.get());
    }
    return rig;
  }

  CacheManager* NewClient(const std::string& principal = "alice",
                          CacheManager::Options options = {}) {
    if (options.node == 0) {
      options.node = kFirstClientNode + static_cast<NodeId>(clients.size());
    }
    auto ticket = auth.IssueTicket(principal, kUserSecret);
    if (!ticket.ok()) {
      return nullptr;
    }
    clients.push_back(std::make_unique<CacheManager>(net, std::vector<NodeId>{kVldbNode},
                                                     *ticket, options));
    return clients.back().get();
  }

  Ticket TicketFor(const std::string& principal) {
    auto t = auth.IssueTicket(principal, kUserSecret);
    return t.ok() ? *t : Ticket{};
  }

  // The primary server machine crashes: the file server and the aggregate's
  // buffer cache die, the disk survives. The aggregate is mounted again
  // (replaying its log) and a fresh file server exports it on the same node.
  Status CrashServer() {
    server.reset();  // unregister the old endpoint
    agg->CrashNow();
    agg.reset();
    Aggregate::Options opts;
    opts.wal.clock = &clock;
    ASSIGN_OR_RETURN(agg, Aggregate::Mount(*disk, opts));
    server = std::make_unique<FileServer>(net, auth, kServerNode);
    return server->ExportAggregate(agg.get());
  }

  // The primary aggregate's attributes for `fid`, read straight from
  // Episode: no token is taken, so no client is revoked and nothing commits.
  Result<FileAttr> AggregateAttr(const Fid& fid) {
    ASSIGN_OR_RETURN(VfsRef vfs, agg->MountVolume(fid.volume));
    ASSIGN_OR_RETURN(VnodeRef vnode, vfs->VnodeByFid(fid));
    return vnode->GetAttr();
  }

  // Kills the primary server (token state, host registrations, and leases die
  // with it; the aggregate — the disk — survives) and brings it back under a
  // new incarnation epoch with the given grace period. Clients discover the
  // restart via kStaleEpoch/kAuthFailed on their next call and reassert.
  void RestartServer(uint32_t grace_period_ms = 0, uint32_t lease_ttl_ms = 0) {
    // Snapshot the dying incarnation's lease roster: the successor's grace
    // window closes early once every one of these hosts has reasserted.
    std::vector<uint32_t> roster;
    if (server != nullptr) {
      roster = server->LeaseHosts();
    }
    server.reset();
    server_epoch += 1;
    FileServer::Options sopts = server_options;
    sopts.recovery.clock = &sim_clock;
    sopts.recovery.epoch = server_epoch;
    sopts.recovery.grace_period_ms = grace_period_ms;
    sopts.recovery.lease_ttl_ms = lease_ttl_ms;
    sopts.recovery.expected_hosts = roster;
    server_options = sopts;
    server = std::make_unique<FileServer>(net, auth, kServerNode, sopts);
    (void)server->ExportAggregate(agg.get());
    // The VLDB registration survives (it lives on its own node); re-register
    // anyway so a wiped VLDB in a test cannot strand the volume — and so the
    // entry carries the new incarnation epoch.
    VldbClient registrar(net, kServerNode, {kVldbNode});
    (void)registrar.Register(volume_id, "home", kServerNode, server_epoch);
  }
};

}  // namespace dfs

#endif  // TESTS_DFS_RIG_H_
