// Volume location database (Section 3.4): a global, replicated database
// mapping volumes to the servers that hold them. File servers register their
// volumes; client cache managers look volumes up (and cache the results in
// their resource layer, invalidating on kBusy/kUnavailable/kAuthFailed; a
// server answers kUnavailable for a volume it does not hold).
#ifndef SRC_SERVER_VLDB_H_
#define SRC_SERVER_VLDB_H_

#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/lock_order.h"
#include "src/rpc/rpc.h"
#include "src/server/procs.h"

namespace dfs {

struct VolumeLocation {
  uint64_t volume_id = 0;
  std::string name;
  NodeId server = 0;
  // Serving server's incarnation epoch at registration time. 0 = unknown
  // (pre-epoch registrar); clients treat a nonzero value as authoritative and
  // reassert proactively instead of eating a kStaleEpoch bounce.
  uint64_t epoch = 0;
};

class VldbServer : public RpcHandler {
 public:
  VldbServer(Network& network, NodeId node);
  ~VldbServer() override;

  NodeId node() const { return node_; }
  // Replication: updates applied here propagate to every peer.
  void AddPeer(VldbServer* peer);

  Result<WireMessage> Handle(const RpcRequest& request) override;

  size_t entry_count() const;

 private:
  void ApplyLocal(const VolumeLocation& loc);
  void RemoveLocal(uint64_t volume_id);

  Network& network_;
  const NodeId node_;
  // Read-mostly location map: lookups vastly outnumber registrations, so
  // readers share the lock. kVldbMap is the leaf-most hierarchy level — safe
  // to take with anything held, never held across an RPC (Handle snapshots
  // peers_ first).
  mutable SharedOrderedMutex mu_{LockLevel::kVldbMap, 1, "vldb-server-map"};
  std::map<uint64_t, VolumeLocation> by_id_ GUARDED_BY(mu_);
  std::vector<VldbServer*> peers_ GUARDED_BY(mu_);
};

// Client-side access with caching (the resource layer's location cache).
class VldbClient {
 public:
  VldbClient(Network& network, NodeId self, std::vector<NodeId> vldb_nodes)
      : network_(network), self_(self), vldb_nodes_(std::move(vldb_nodes)) {}

  Result<VolumeLocation> LookupById(uint64_t volume_id);
  Result<VolumeLocation> LookupByName(const std::string& name);
  Status Register(uint64_t volume_id, const std::string& name, NodeId server, uint64_t epoch = 0);
  Status Remove(uint64_t volume_id);

  // Cache-only lookup: never issues an RPC, so it is safe under client locks.
  std::optional<VolumeLocation> Peek(uint64_t volume_id) const;

  void InvalidateCache(uint64_t volume_id);
  uint64_t lookup_rpcs() const { return lookup_rpcs_.load(std::memory_order_relaxed); }

 private:
  // Tries each VLDB replica until one answers (availability through
  // replication).
  Result<WireMessage> CallAny(uint32_t proc, const Writer& w);

  Network& network_;
  NodeId self_;
  std::vector<NodeId> vldb_nodes_;
  // Read-mostly location cache at the leaf-most hierarchy level (lookups run
  // under client L1/L3 contexts); RPCs go out unlocked.
  mutable SharedOrderedMutex mu_{LockLevel::kVldbMap, 2, "vldb-client-cache"};
  std::map<uint64_t, VolumeLocation> cache_ GUARDED_BY(mu_);
  // Stat counter, read unlocked by benches while lookups run.
  std::atomic<uint64_t> lookup_rpcs_{0};
};

}  // namespace dfs

#endif  // SRC_SERVER_VLDB_H_
