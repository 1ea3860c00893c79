// One in-process DFS deployment for the benchmark: a network with a VLDB,
// one Episode-backed file server exporting volume "home", and client cache
// managers. With a tracer, the traced wrappers of layers.h sit at the RPC
// handler, the exported volume and the disk; without one, nothing is
// interposed.
#ifndef DFSBENCH_RIG_H_
#define DFSBENCH_RIG_H_

#include <memory>
#include <string>
#include <vector>

#include "dfsbench/layers.h"
#include "dfsbench/trace.h"
#include "src/client/cache_manager.h"
#include "src/episode/aggregate.h"
#include "src/recovery/sim_clock.h"
#include "src/rpc/auth.h"
#include "src/rpc/rpc.h"
#include "src/server/file_server.h"
#include "src/server/vldb.h"

namespace dfsbench {

inline constexpr dfs::NodeId kVldbNode = 1;
inline constexpr dfs::NodeId kServerNode = 10;
inline constexpr dfs::NodeId kFirstClientNode = 100;

struct RigOptions {
  dfs::FileServer::Options server;
  Tracer* tracer = nullptr;
};

// Counters of every layer, read at the edges of the timed phase.
struct Counters {
  // CacheManager::Stats, summed over the workload's clients.
  uint64_t attr_hits = 0, data_hits = 0, data_misses = 0, lookup_hits = 0;
  uint64_t revocations = 0, revocations_deferred = 0, revocation_stores = 0, dirty_stores = 0;
  uint64_t evictions = 0, prefetch_hits = 0, prefetch_wasted = 0, split_rpcs = 0;
  uint64_t client_bytes_copied = 0, client_bytes_moved = 0;
  uint64_t inflight_highwater = 0;  // maximum over clients, since start
  dfs::FileServer::Stats server;
  dfs::TokenManager::Stats tokens;
  dfs::BufferCache::Stats buf;
  dfs::Wal::Stats wal;
  dfs::DeviceStats disk;
  // Network links between the clients and the servers (file server + VLDB).
  dfs::LinkStats c2s, s2c;
};

// b - a, field by field (the high-water mark is taken from b).
Counters Delta(const Counters& a, const Counters& b);

class Rig {
 public:
  static std::unique_ptr<Rig> Create(const RigOptions& options);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  dfs::CacheManager* NewClient(const std::string& principal, dfs::CacheManager::Options options);
  // The exported volume as the server's physical file system sees it, for
  // populating before any client exists.
  dfs::Vfs& local_volume() { return *local_vfs_; }
  // Counters of the server side plus those of `clients`, summed.
  Counters Snapshot(const std::vector<dfs::CacheManager*>& clients) const;

 private:
  Rig() = default;

  dfs::VirtualClock clock_;
  dfs::SimClock sim_clock_{&clock_};
  dfs::Network net_{&clock_};
  dfs::AuthService auth_;
  std::unique_ptr<dfs::VldbServer> vldb_;
  std::unique_ptr<dfs::SimDisk> disk_;
  std::unique_ptr<TracedDisk> traced_disk_;
  std::unique_ptr<dfs::Aggregate> agg_;
  dfs::VfsRef local_vfs_;
  // Declared before the server: the server's destructor unregisters the node
  // this handler serves.
  std::unique_ptr<TracedHandler> traced_handler_;
  std::unique_ptr<dfs::FileServer> server_;
  std::vector<std::unique_ptr<dfs::CacheManager>> clients_;
};

}  // namespace dfsbench

#endif  // DFSBENCH_RIG_H_
