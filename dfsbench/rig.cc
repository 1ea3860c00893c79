#include "dfsbench/rig.h"

#include <algorithm>

namespace dfsbench {
namespace {

constexpr uint64_t kSecret = 0xBEEF;
constexpr uint64_t kDiskBlocks = 16384;  // 64 MiB

}  // namespace

Counters Delta(const Counters& a, const Counters& b) {
  Counters d = b;
  d.attr_hits -= a.attr_hits;
  d.data_hits -= a.data_hits;
  d.data_misses -= a.data_misses;
  d.lookup_hits -= a.lookup_hits;
  d.revocations -= a.revocations;
  d.revocations_deferred -= a.revocations_deferred;
  d.revocation_stores -= a.revocation_stores;
  d.dirty_stores -= a.dirty_stores;
  d.evictions -= a.evictions;
  d.prefetch_hits -= a.prefetch_hits;
  d.prefetch_wasted -= a.prefetch_wasted;
  d.split_rpcs -= a.split_rpcs;
  d.client_bytes_copied -= a.client_bytes_copied;
  d.client_bytes_moved -= a.client_bytes_moved;

  d.server.requests -= a.server.requests;
  d.server.fetch_data_calls -= a.server.fetch_data_calls;
  d.server.bytes_moved -= a.server.bytes_moved;
  d.server.bytes_copied -= a.server.bytes_copied;

  d.tokens.grants -= a.tokens.grants;
  d.tokens.revocations -= a.tokens.revocations;
  d.tokens.deferred_returns -= a.tokens.deferred_returns;
  d.tokens.refusals -= a.tokens.refusals;
  d.tokens.fanout_batches -= a.tokens.fanout_batches;
  d.tokens.lock_acquisitions -= a.tokens.lock_acquisitions;
  d.tokens.lock_contended -= a.tokens.lock_contended;

  d.buf.hits -= a.buf.hits;
  d.buf.misses -= a.buf.misses;
  d.buf.writebacks -= a.buf.writebacks;
  d.buf.evictions -= a.buf.evictions;

  d.wal.records -= a.wal.records;
  d.wal.commits -= a.wal.commits;
  d.wal.log_flushes -= a.wal.log_flushes;
  d.wal.log_bytes_flushed -= a.wal.log_bytes_flushed;
  d.wal.checkpoints -= a.wal.checkpoints;

  d.disk.reads -= a.disk.reads;
  d.disk.writes -= a.disk.writes;
  d.disk.flushes -= a.disk.flushes;
  d.disk.sequential_writes -= a.disk.sequential_writes;
  d.disk.random_writes -= a.disk.random_writes;

  d.c2s.calls -= a.c2s.calls;
  d.c2s.bytes -= a.c2s.bytes;
  d.s2c.calls -= a.s2c.calls;
  d.s2c.bytes -= a.s2c.bytes;
  return d;
}

std::unique_ptr<Rig> Rig::Create(const RigOptions& options) {
  std::unique_ptr<Rig> rig(new Rig());
  rig->auth_.AddPrincipal("alice", 100, kSecret);
  rig->auth_.AddPrincipal("root", 0, kSecret);
  rig->vldb_ = std::make_unique<dfs::VldbServer>(rig->net_, kVldbNode);

  rig->disk_ = std::make_unique<dfs::SimDisk>(kDiskBlocks);
  dfs::BlockDevice* dev = rig->disk_.get();
  if (options.tracer != nullptr) {
    rig->traced_disk_ = std::make_unique<TracedDisk>(rig->disk_.get(), options.tracer);
    dev = rig->traced_disk_.get();
  }
  dfs::Aggregate::Options aopts;
  aopts.wal.clock = &rig->clock_;
  auto agg = dfs::Aggregate::Format(*dev, aopts);
  if (!agg.ok()) {
    return nullptr;
  }
  rig->agg_ = *std::move(agg);
  auto vid = rig->agg_->CreateVolume("home");
  if (!vid.ok()) {
    return nullptr;
  }
  auto vfs = rig->agg_->MountVolume(*vid);
  if (!vfs.ok()) {
    return nullptr;
  }
  rig->local_vfs_ = *vfs;

  dfs::FileServer::Options sopts = options.server;
  sopts.recovery.clock = &rig->sim_clock_;
  rig->server_ = std::make_unique<dfs::FileServer>(rig->net_, rig->auth_, kServerNode, sopts);
  dfs::VfsRef exported = rig->local_vfs_;
  if (options.tracer != nullptr) {
    exported = std::make_shared<TracedVfs>(rig->local_vfs_, options.tracer);
  }
  if (!rig->server_->ExportVolume(*vid, exported).ok()) {
    return nullptr;
  }
  if (options.tracer != nullptr) {
    // Put the traced handler in front of the server: same node, same pools.
    rig->traced_handler_ = std::make_unique<TracedHandler>(rig->server_.get(), options.tracer);
    rig->net_.UnregisterNode(kServerNode);
    if (!rig->net_.RegisterNode(kServerNode, rig->traced_handler_.get(), sopts.rpc).ok()) {
      return nullptr;
    }
  }
  dfs::VldbClient registrar(rig->net_, kServerNode, {kVldbNode});
  if (!registrar.Register(*vid, "home", kServerNode, rig->server_->epoch()).ok()) {
    return nullptr;
  }
  return rig;
}

Rig::~Rig() {
  // Clients first: their daemons call the server while they run.
  clients_.clear();
}

dfs::CacheManager* Rig::NewClient(const std::string& principal,
                                  dfs::CacheManager::Options options) {
  options.node = kFirstClientNode + static_cast<dfs::NodeId>(clients_.size());
  auto ticket = auth_.IssueTicket(principal, kSecret);
  if (!ticket.ok()) {
    return nullptr;
  }
  clients_.push_back(std::make_unique<dfs::CacheManager>(
      net_, std::vector<dfs::NodeId>{kVldbNode}, *ticket, options));
  return clients_.back().get();
}

Counters Rig::Snapshot(const std::vector<dfs::CacheManager*>& clients) const {
  Counters c;
  for (dfs::CacheManager* cm : clients) {
    dfs::CacheManager::Stats s = cm->stats();
    c.attr_hits += s.attr_cache_hits;
    c.data_hits += s.data_cache_hits;
    c.data_misses += s.data_cache_misses;
    c.lookup_hits += s.lookup_cache_hits;
    c.revocations += s.revocations_handled;
    c.revocations_deferred += s.revocations_deferred;
    c.revocation_stores += s.revocation_stores;
    c.dirty_stores += s.dirty_stores;
    c.evictions += s.cache_evictions;
    c.prefetch_hits += s.prefetch_hits;
    c.prefetch_wasted += s.prefetch_wasted;
    c.split_rpcs += s.bulk_rpcs_split;
    c.client_bytes_copied += s.bytes_copied;
    c.client_bytes_moved += s.bytes_moved;
    c.inflight_highwater = std::max(c.inflight_highwater, s.inflight_highwater);
    dfs::NodeId node = cm->node();
    c.c2s += net_.StatsBetween(node, kServerNode);
    c.c2s += net_.StatsBetween(node, kVldbNode);
    c.s2c += net_.StatsBetween(kServerNode, node);
  }
  c.server = server_->stats();
  c.tokens = server_->tokens().stats();
  c.buf = agg_->cache().stats();
  c.wal = agg_->wal().stats();
  c.disk = disk_->stats();
  return c;
}

}  // namespace dfsbench
