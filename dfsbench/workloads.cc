#include "dfsbench/workloads.h"

#include <cstdio>
#include <deque>

#include "src/vfs/path.h"

namespace dfsbench {
namespace {

using dfs::Result;
using dfs::Status;
using dfs::VnodeRef;

constexpr uint32_t kBlock = kStampBlock;
const dfs::Cred kRootCred{0, {0}};

Status StatusOf(const Status& s) { return s; }
template <typename T>
Status StatusOf(const Result<T>& r) {
  return r.status();
}

// Times one call into the client vnode layer: one latency sample of class
// `cls`, inside an op span when tracing. Counts the call as failed when it
// returns an error.
template <typename Fn>
auto Timed(ClientCtx& c, OpClass cls, const char* what, Fn&& fn) {
  Tracer::Scope span(c.tracer, Layer::kOp, c.names.op[cls], c.node);
  uint64_t t0 = NowNs();
  auto r = fn();
  uint64_t dt = NowNs() - t0;
  c.rec.latency_ns[cls].push_back(dt > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(dt));
  c.rec.busy_ns[cls] += dt;
  if (!r.ok()) {
    c.rec.failed += 1;
    c.errors->Fail(std::string(what) + ": " + StatusOf(r).ToString());
  }
  return r;
}

Result<VnodeRef> Resolve(ClientCtx& c, const std::string& path) {
  Tracer::Scope span(c.tracer, Layer::kResolve, c.names.resolve, c.node);
  return dfs::ResolvePath(*c.vfs, path);
}

// Writes `nblocks` stamped blocks starting at `first` in one call.
Status WriteStamped(dfs::Vnode& f, uint32_t writer, uint32_t file, uint32_t first,
                    uint32_t nblocks, uint64_t version, uint64_t salt) {
  std::vector<uint8_t> buf(size_t{nblocks} * kBlock);
  for (uint32_t i = 0; i < nblocks; ++i) {
    FillBlock(std::span<uint8_t>(buf).subspan(size_t{i} * kBlock, kBlock),
              {writer, file, first + i, version}, salt);
  }
  ASSIGN_OR_RETURN(size_t n, f.Write(uint64_t{first} * kBlock, buf));
  if (n != buf.size()) {
    return Status(dfs::ErrorCode::kIoError, "short write");
  }
  return Status::Ok();
}

// Fills a file of `nblocks` set-up blocks (writer 0) in 64 KiB writes.
Status PopulateFile(dfs::Vnode& dir, const std::string& name, uint32_t file, uint32_t nblocks,
                    uint64_t salt, uint32_t writer = 0) {
  ASSIGN_OR_RETURN(VnodeRef f, dir.Create(name, dfs::FileType::kFile, 0666, kRootCred));
  for (uint32_t b = 0; b < nblocks; b += 16) {
    RETURN_IF_ERROR(WriteStamped(*f, writer, file, b, std::min<uint32_t>(16, nblocks - b), 0,
                                 salt));
  }
  return Status::Ok();
}

// Reads `nblocks` blocks from `first` and hands each to `check(block, bytes)`.
template <typename Check>
Status ReadBlocks(dfs::Vnode& f, uint32_t first, uint32_t nblocks, Check&& check) {
  std::vector<uint8_t> buf(16 * kBlock);
  for (uint32_t b = first; b < first + nblocks; b += 16) {
    uint32_t n = std::min<uint32_t>(16, first + nblocks - b);
    ASSIGN_OR_RETURN(size_t got, f.Read(uint64_t{b} * kBlock,
                                        std::span<uint8_t>(buf).first(size_t{n} * kBlock)));
    if (got != size_t{n} * kBlock) {
      return Status(dfs::ErrorCode::kIoError, "short read");
    }
    for (uint32_t i = 0; i < n; ++i) {
      check(b + i, std::span<const uint8_t>(buf).subspan(size_t{i} * kBlock, kBlock));
    }
  }
  return Status::Ok();
}

// Final read-back of `nblocks` blocks of `path`; a file that cannot be read
// counts as a violation.
template <typename Check>
void VerifyFile(dfs::Vfs& fresh, const std::string& path, uint32_t nblocks, Checker& chk,
                Check&& check) {
  auto f = dfs::ResolvePath(fresh, path);
  Status s = f.ok() ? ReadBlocks(**f, 0, nblocks, check) : f.status();
  if (!s.ok()) {
    chk.Fail("final " + path + ": " + s.ToString());
  }
}

// --- hot_read ---------------------------------------------------------------

class HotRead : public Workload {
 public:
  static constexpr int kClients = 4;
  static constexpr uint32_t kFiles = 64;
  static constexpr uint32_t kBlocks = 16;  // 64 KiB files
  static constexpr uint64_t kFsyncEvery = 100;

  explicit HotRead(uint64_t salt) : salt_(salt), state_(kClients) {
    for (uint32_t k = 0; k < kFiles; ++k) {
      char name[32];
      std::snprintf(name, sizeof(name), "/shared/f%02u", k);
      shared_paths_.push_back(name);
    }
  }

  int clients() const override { return kClients; }
  RigOptions rig_options() const override { return {}; }
  dfs::CacheManager::Options client_options() const override { return {}; }
  std::vector<std::pair<std::string, std::string>> config() const override {
    return {{"clients", "4"},
            {"link_latency_us", "0"},
            {"client_options", "defaults (disk-backed cache, synchronous readahead)"},
            {"server_options", "defaults"},
            {"shared_set", "64 files x 64 KiB"},
            {"private_set", "1 file x 64 KiB per client"},
            {"mix", "80% read 4 KiB shared, 10% stat shared, 10% write 4 KiB private; "
                    "every 100th private write is followed by fsync"}};
  }

  Status Populate(dfs::Vfs& local) override {
    ASSIGN_OR_RETURN(VnodeRef root, local.Root());
    ASSIGN_OR_RETURN(VnodeRef shared,
                     root->Create("shared", dfs::FileType::kDirectory, 0777, kRootCred));
    for (uint32_t k = 0; k < kFiles; ++k) {
      RETURN_IF_ERROR(PopulateFile(*shared, shared_paths_[k].substr(8), SharedId(k), kBlocks,
                                   salt_));
    }
    ASSIGN_OR_RETURN(VnodeRef priv,
                     root->Create("private", dfs::FileType::kDirectory, 0777, kRootCred));
    for (int i = 0; i < kClients; ++i) {
      RETURN_IF_ERROR(
          PopulateFile(*priv, "p" + std::to_string(i), PrivateId(i), kBlocks, salt_));
    }
    return Status::Ok();
  }

  Status Warm(ClientCtx& c) override {
    State& st = state_[c.index];
    for (uint32_t k = 0; k < kFiles; ++k) {
      ASSIGN_OR_RETURN(VnodeRef f, dfs::ResolvePath(*c.vfs, shared_paths_[k]));
      RETURN_IF_ERROR(ReadBlocks(*f, 0, kBlocks, [&](uint32_t b, std::span<const uint8_t> d) {
        CheckExactRead(d, salt_, {0, SharedId(k), b, 0}, "warm " + shared_paths_[k], *c.chk);
      }));
      st.shared.push_back(f);
    }
    ASSIGN_OR_RETURN(st.priv, dfs::ResolvePath(*c.vfs, "/private/p" + std::to_string(c.index)));
    // Writing every private block once takes the write tokens the timed
    // writes reuse.
    RETURN_IF_ERROR(WriteStamped(*st.priv, Writer(c), PrivateId(c.index), 0, kBlocks, 1, salt_));
    st.last.fill(1);
    RETURN_IF_ERROR(c.cm->Fsync(st.priv->fid()));
    st.buf.resize(kBlock);
    return Status::Ok();
  }

  void Step(ClientCtx& c) override {
    State& st = state_[c.index];
    uint64_t r = c.rng.Below(100);
    if (r < 80) {
      uint32_t k = static_cast<uint32_t>(c.rng.Below(kFiles));
      uint32_t b = static_cast<uint32_t>(c.rng.Below(kBlocks));
      auto n = Timed(c, kRead, "read", [&] {
        return st.shared[k]->Read(uint64_t{b} * kBlock, st.buf);
      });
      if (n.ok()) {
        c.rec.read_bytes += *n;
        CheckExactRead(std::span<const uint8_t>(st.buf).first(*n), salt_,
                       {0, SharedId(k), b, 0}, shared_paths_[k], *c.chk);
      }
    } else if (r < 90) {
      uint32_t k = static_cast<uint32_t>(c.rng.Below(kFiles));
      auto attr = Timed(c, kMeta, "stat", [&]() -> Result<dfs::FileAttr> {
        ASSIGN_OR_RETURN(VnodeRef f, Resolve(c, shared_paths_[k]));
        return f->GetAttr();
      });
      if (attr.ok() && attr->size != uint64_t{kBlocks} * kBlock) {
        c.chk->Fail("stat " + shared_paths_[k] + ": size " + std::to_string(attr->size));
      }
    } else {
      uint32_t b = static_cast<uint32_t>(c.rng.Below(kBlocks));
      uint64_t version = st.last[b] + 1;
      FillBlock(st.buf, {Writer(c), PrivateId(c.index), b, version}, salt_);
      auto n = Timed(c, kWrite, "write", [&] {
        return st.priv->Write(uint64_t{b} * kBlock, st.buf);
      });
      if (n.ok()) {
        c.rec.write_bytes += *n;
        st.last[b] = version;
      }
      if (++st.writes % kFsyncEvery == 0) {
        (void)Timed(c, kFsync, "fsync", [&] { return c.cm->Fsync(st.priv->fid()); });
      }
    }
  }

  void Verify(dfs::Vfs& fresh, Checker& chk) override {
    for (uint32_t k = 0; k < kFiles; ++k) {
      const std::string& path = shared_paths_[k];
      VerifyFile(fresh, path, kBlocks, chk, [&](uint32_t b, std::span<const uint8_t> d) {
        CheckExactRead(d, salt_, {0, SharedId(k), b, 0}, "final " + path, chk);
      });
    }
    for (int i = 0; i < kClients; ++i) {
      std::string path = "/private/p" + std::to_string(i);
      VerifyFile(fresh, path, kBlocks, chk, [&](uint32_t b, std::span<const uint8_t> d) {
        CheckExactRead(d, salt_,
                       {static_cast<uint32_t>(i + 1), PrivateId(i), b, state_[i].last[b]},
                       "final " + path, chk);
      });
    }
  }

 private:
  struct State {
    std::vector<VnodeRef> shared;
    VnodeRef priv;
    std::array<uint64_t, kBlocks> last{};  // last acknowledged version per block
    uint64_t writes = 0;
    std::vector<uint8_t> buf;
  };

  static uint32_t SharedId(uint32_t k) { return k + 1; }
  static uint32_t PrivateId(int i) { return 1000 + static_cast<uint32_t>(i); }
  static uint32_t Writer(const ClientCtx& c) { return static_cast<uint32_t>(c.index + 1); }

  const uint64_t salt_;
  std::vector<std::string> shared_paths_;
  std::vector<State> state_;
};

// --- shared_write -----------------------------------------------------------

class SharedWrite : public Workload {
 public:
  static constexpr int kClients = 4;
  static constexpr uint32_t kFiles = 8;
  static constexpr uint32_t kBlocks = 16;
  static constexpr size_t kSpoolCap = 32;
  static constexpr uint32_t kSpoolInitial = 16;
  static constexpr uint32_t kSpoolBlocks = 2;  // 8 KiB spool files

  explicit SharedWrite(uint64_t salt) : salt_(salt), log_(kFiles * kBlocks), state_(kClients) {}

  int clients() const override { return kClients; }
  RigOptions rig_options() const override { return {}; }
  dfs::CacheManager::Options client_options() const override { return {}; }
  std::vector<std::pair<std::string, std::string>> config() const override {
    return {{"clients", "4"},
            {"link_latency_us", "0"},
            {"client_options", "defaults (disk-backed cache, synchronous readahead)"},
            {"server_options", "defaults"},
            {"hot_set", "8 files x 16 blocks in /hot"},
            {"spool", "/spool, each client starts with 16 own 8 KiB files and keeps at most 32"},
            {"mix", "30% read 4 KiB hot, 25% stamped write 4 KiB hot, 20% create + write "
                    "8 KiB + fsync (an unlink of the oldest at 32 files), 15% unlink oldest "
                    "(a readdir when empty), 10% readdir spool"},
            {"roles", "hot file k is written by clients k%4 and (k+1)%4 and read by the "
                      "other two"}};
  }

  Status Populate(dfs::Vfs& local) override {
    ASSIGN_OR_RETURN(VnodeRef root, local.Root());
    ASSIGN_OR_RETURN(VnodeRef hot, root->Create("hot", dfs::FileType::kDirectory, 0777,
                                                kRootCred));
    for (uint32_t k = 0; k < kFiles; ++k) {
      RETURN_IF_ERROR(PopulateFile(*hot, "h" + std::to_string(k), HotId(k), kBlocks, salt_));
    }
    ASSIGN_OR_RETURN(VnodeRef spool, root->Create("spool", dfs::FileType::kDirectory, 0777,
                                                  kRootCred));
    for (int i = 0; i < kClients; ++i) {
      for (uint32_t n = 0; n < kSpoolInitial; ++n) {
        RETURN_IF_ERROR(PopulateFile(*spool, SpoolName(i, n), SpoolId(i, n), kSpoolBlocks,
                                     salt_, static_cast<uint32_t>(i + 1)));
        state_[i].live.push_back(n);
      }
      state_[i].next = kSpoolInitial;
    }
    return Status::Ok();
  }

  Status Warm(ClientCtx& c) override {
    State& st = state_[c.index];
    st.seen.resize(size_t{kFiles} * kBlocks);
    for (uint32_t k = 0; k < kFiles; ++k) {
      ASSIGN_OR_RETURN(VnodeRef f, dfs::ResolvePath(*c.vfs, "/hot/h" + std::to_string(k)));
      RETURN_IF_ERROR(ReadBlocks(*f, 0, kBlocks, [&](uint32_t b, std::span<const uint8_t> d) {
        size_t slot = Slot(k, b);
        CheckTrackedRead(d, salt_, log_, slot, HotId(k), b, log_.MaxReturnedStart(slot),
                         st.seen[slot], "warm hot", *c.chk);
      }));
      st.hot.push_back(f);
    }
    ASSIGN_OR_RETURN(st.spool, dfs::ResolvePath(*c.vfs, "/spool"));
    ASSIGN_OR_RETURN(std::vector<dfs::DirEntry> entries, st.spool->ReadDir());
    CheckOwnListing(c, entries);
    st.buf.resize(size_t{kSpoolBlocks} * kBlock);
    return Status::Ok();
  }

  void Step(ClientCtx& c) override {
    State& st = state_[c.index];
    uint64_t r = c.rng.Below(100);
    if (r < 30) {
      uint32_t k = PickFile(c, /*writer=*/false);
      uint32_t b = static_cast<uint32_t>(c.rng.Below(kBlocks));
      size_t slot = Slot(k, b);
      uint64_t before = log_.MaxReturnedStart(slot);
      std::span<uint8_t> out = std::span<uint8_t>(st.buf).first(kBlock);
      auto n = Timed(c, kRead, "read", [&] { return st.hot[k]->Read(uint64_t{b} * kBlock, out); });
      if (n.ok()) {
        c.rec.read_bytes += *n;
        CheckTrackedRead(out.first(*n), salt_, log_, slot, HotId(k), b, before, st.seen[slot],
                         "read hot", *c.chk);
      }
    } else if (r < 55) {
      uint32_t k = PickFile(c, /*writer=*/true);
      uint32_t b = static_cast<uint32_t>(c.rng.Below(kBlocks));
      size_t slot = Slot(k, b);
      std::span<uint8_t> data = std::span<uint8_t>(st.buf).first(kBlock);
      uint64_t ticket = log_.Begin(slot);
      FillBlock(data, {Writer(c), HotId(k), b, ticket}, salt_);
      auto n = Timed(c, kWrite, "write",
                     [&] { return st.hot[k]->Write(uint64_t{b} * kBlock, data); });
      if (n.ok()) {
        log_.End(slot, ticket);
        c.rec.write_bytes += *n;
      }
    } else if (r < 75 && st.live.size() < kSpoolCap) {
      Create(c, st);
    } else if (r < 90 && !st.live.empty()) {
      Unlink(c, st);  // also a create drawn at the cap
    } else {
      auto entries = Timed(c, kMeta, "readdir", [&] { return st.spool->ReadDir(); });
      if (entries.ok()) {
        CheckOwnListing(c, *entries);
      }
    }
  }

  void Verify(dfs::Vfs& fresh, Checker& chk) override {
    for (uint32_t k = 0; k < kFiles; ++k) {
      std::string path = "/hot/h" + std::to_string(k);
      VerifyFile(fresh, path, kBlocks, chk, [&](uint32_t b, std::span<const uint8_t> d) {
        CheckFinalTracked(d, salt_, log_, Slot(k, b), HotId(k), b, "final " + path, chk);
      });
    }
    auto spool = dfs::ResolvePath(fresh, "/spool");
    auto entries = spool.ok() ? (*spool)->ReadDir() : spool.status();
    if (!entries.ok()) {
      chk.Fail("final /spool: " + entries.status().ToString());
      return;
    }
    std::set<std::string> want;
    std::vector<std::string> listed;
    for (const dfs::DirEntry& e : *entries) {
      listed.push_back(e.name);
    }
    for (int i = 0; i < kClients; ++i) {
      for (uint32_t n : state_[i].live) {
        want.insert(SpoolName(i, n));
        std::string path = "/spool/" + SpoolName(i, n);
        VerifyFile(fresh, path, kSpoolBlocks, chk, [&](uint32_t b, std::span<const uint8_t> d) {
          CheckExactRead(d, salt_, {static_cast<uint32_t>(i + 1), SpoolId(i, n), b, 0},
                         "final " + path, chk);
        });
      }
    }
    CheckListing(want, listed, "c", "final /spool", chk);
  }

 private:
  struct State {
    std::vector<VnodeRef> hot;
    VnodeRef spool;
    std::deque<uint32_t> live;  // own spool files, oldest first
    uint32_t next = 0;
    std::vector<SeenVersion> seen;
    std::vector<uint8_t> buf;
  };

  // Hot file k is written by clients k % 4 and (k + 1) % 4 and read by the
  // other two, so no client holds a read-only data token over blocks it has
  // dirty (see the mix note in config()).
  static bool Writes(int i, uint32_t k) {
    uint32_t client = static_cast<uint32_t>(i);
    return client == k % kClients || client == (k + 1) % kClients;
  }
  // A uniform draw among the four hot files client c writes (or reads).
  static uint32_t PickFile(ClientCtx& c, bool writer) {
    uint64_t nth = c.rng.Below(kFiles / 2);
    for (uint32_t k = 0; k < kFiles; ++k) {
      if (Writes(c.index, k) == writer && nth-- == 0) {
        return k;
      }
    }
    return 0;
  }
  static size_t Slot(uint32_t k, uint32_t b) { return size_t{k} * kBlocks + b; }
  static uint32_t HotId(uint32_t k) { return k + 1; }
  static uint32_t SpoolId(int i, uint32_t n) {
    return (static_cast<uint32_t>(i + 1) << 24) | n;
  }
  static std::string SpoolName(int i, uint32_t n) {
    return "c" + std::to_string(i) + "_" + std::to_string(n);
  }
  static uint32_t Writer(const ClientCtx& c) { return static_cast<uint32_t>(c.index + 1); }

  void Create(ClientCtx& c, State& st) {
    uint32_t n = st.next++;
    std::string name = SpoolName(c.index, n);
    auto f = Timed(c, kMeta, "create", [&] {
      return st.spool->Create(name, dfs::FileType::kFile, 0666, kRootCred);
    });
    if (!f.ok()) {
      return;
    }
    st.live.push_back(n);
    for (uint32_t b = 0; b < kSpoolBlocks; ++b) {
      FillBlock(std::span<uint8_t>(st.buf).subspan(size_t{b} * kBlock, kBlock),
                {Writer(c), SpoolId(c.index, n), b, 0}, salt_);
    }
    auto w = Timed(c, kWrite, "spool write", [&] { return (*f)->Write(0, st.buf); });
    if (w.ok()) {
      c.rec.write_bytes += *w;
    }
    (void)Timed(c, kFsync, "fsync", [&] { return c.cm->Fsync((*f)->fid()); });
  }

  void Unlink(ClientCtx& c, State& st) {
    uint32_t n = st.live.front();
    auto s = Timed(c, kMeta, "unlink", [&] { return st.spool->Unlink(SpoolName(c.index, n)); });
    if (s.ok()) {
      st.live.pop_front();
    }
  }

  void CheckOwnListing(ClientCtx& c, const std::vector<dfs::DirEntry>& entries) {
    std::set<std::string> want;
    for (uint32_t n : state_[c.index].live) {
      want.insert(SpoolName(c.index, n));
    }
    std::vector<std::string> listed;
    for (const dfs::DirEntry& e : entries) {
      listed.push_back(e.name);
    }
    CheckListing(want, listed, "c" + std::to_string(c.index) + "_", "readdir /spool", *c.chk);
  }

  const uint64_t salt_;
  WriteLog log_;
  std::vector<State> state_;
};

// --- stream -----------------------------------------------------------------

class Stream : public Workload {
 public:
  static constexpr uint32_t kBlocks = 4096;       // 16 MiB files
  static constexpr uint32_t kChunkBlocks = 16;    // 64 KiB reads and writes
  static constexpr uint32_t kChunks = kBlocks / kChunkBlocks;
  static constexpr uint32_t kChunksPerCycle = 16;  // 1 MiB per open-write-fsync-close
  static constexpr uint64_t kLatencyUs = 200;

  explicit Stream(uint64_t salt) : salt_(salt), last_(kBlocks, 0) {
    // One pass: scan `in`, then rewrite `out` 1 MiB at a time, each MiB in
    // one open, 16 writes, fsync, close cycle. The input is opened once, at
    // set-up: a close cancels the file's readahead.
    for (uint32_t chunk = 0; chunk < kChunks; ++chunk) {
      pass_.push_back({Kind::kRead, chunk});
    }
    for (uint32_t chunk = 0; chunk < kChunks; ++chunk) {
      if (chunk % kChunksPerCycle == 0) {
        pass_.push_back({Kind::kOpen, 0});
      }
      pass_.push_back({Kind::kWrite, chunk});
      if ((chunk + 1) % kChunksPerCycle == 0) {
        pass_.push_back({Kind::kFsync, 0});
        pass_.push_back({Kind::kClose, 0});
      }
    }
  }

  int clients() const override { return 1; }
  RigOptions rig_options() const override {
    RigOptions o;
    o.server.rpc.worker_threads = 16;
    o.server.rpc.sim_latency_us = kLatencyUs;
    return o;
  }
  dfs::CacheManager::Options client_options() const override {
    dfs::CacheManager::Options o;
    o.diskless = true;
    o.max_cached_blocks = 1024;
    o.prefetch_threads = 2;
    o.max_rpc_bytes = uint64_t{kChunkBlocks} * kBlock;
    o.readahead_min_blocks = 8;
    o.readahead_max_blocks = 64;
    o.rpc.sim_latency_us = kLatencyUs;
    return o;
  }
  std::vector<std::pair<std::string, std::string>> config() const override {
    return {{"clients", "1"},
            {"link_latency_us", "200 per leg, no bandwidth cap"},
            {"client_options", "memory cache of 1024 blocks, prefetch_threads 2, "
                               "max_rpc_bytes 64 KiB, readahead 8..64 blocks"},
            {"server_options", "16 workers, buffer cache 1024 blocks"},
            {"files", "/stream/in and /stream/out, 16 MiB each"},
            {"pass", "scan in by 64 KiB reads; rewrite out by 64 KiB writes, each MiB "
                     "in an open, 16 writes, fsync, close cycle"}};
  }

  Status Populate(dfs::Vfs& local) override {
    ASSIGN_OR_RETURN(VnodeRef root, local.Root());
    ASSIGN_OR_RETURN(VnodeRef dir, root->Create("stream", dfs::FileType::kDirectory, 0777,
                                                kRootCred));
    RETURN_IF_ERROR(PopulateFile(*dir, "in", kInId, kBlocks, salt_));
    return PopulateFile(*dir, "out", kOutId, kBlocks, salt_);
  }

  Status Warm(ClientCtx& c) override {
    ASSIGN_OR_RETURN(in_, dfs::ResolvePath(*c.vfs, "/stream/in"));
    ASSIGN_OR_RETURN(out_, dfs::ResolvePath(*c.vfs, "/stream/out"));
    buf_.resize(size_t{kChunkBlocks} * kBlock);
    return Status::Ok();
  }

  void Step(ClientCtx& c) override {
    const Op& op = pass_[pos_];
    switch (op.kind) {
      case Kind::kRead:
        Read(c, op.chunk * kChunkBlocks);
        break;
      case Kind::kWrite:
        Write(c, op.chunk * kChunkBlocks);
        break;
      case Kind::kOpen: {
        auto h = Timed(c, kMeta, "open",
                       [&] { return c.cm->Open(*c.vfs, "/stream/out", dfs::OpenMode::kWrite); });
        if (h.ok()) {
          open_ = *std::move(h);
        }
        break;
      }
      case Kind::kFsync:
        (void)Timed(c, kFsync, "fsync", [&] { return c.cm->Fsync(out_->fid()); });
        break;
      case Kind::kClose:
        (void)Timed(c, kMeta, "close", [&] { return open_.Close(); });
        break;
    }
    if (++pos_ == pass_.size()) {
      pos_ = 0;
      passes_ += 1;
    }
  }

  void Verify(dfs::Vfs& fresh, Checker& chk) override {
    VerifyFile(fresh, "/stream/in", kBlocks, chk, [&](uint32_t b, std::span<const uint8_t> d) {
      CheckExactRead(d, salt_, {0, kInId, b, 0}, "final /stream/in", chk);
    });
    VerifyFile(fresh, "/stream/out", kBlocks, chk, [&](uint32_t b, std::span<const uint8_t> d) {
      CheckExactRead(d, salt_, {last_[b] == 0 ? 0u : 1u, kOutId, b, last_[b]},
                     "final /stream/out", chk);
    });
  }

 private:
  static constexpr uint32_t kInId = 1;
  static constexpr uint32_t kOutId = 2;

  enum class Kind : uint8_t { kRead, kOpen, kWrite, kFsync, kClose };
  struct Op {
    Kind kind;
    uint32_t chunk;
  };

  void Read(ClientCtx& c, uint32_t first) {
    auto n = Timed(c, kRead, "read", [&] { return in_->Read(uint64_t{first} * kBlock, buf_); });
    if (!n.ok()) {
      return;
    }
    c.rec.read_bytes += *n;
    if (*n != buf_.size()) {
      c.chk->Fail("read /stream/in: short read of " + std::to_string(*n) + " bytes");
      return;
    }
    for (uint32_t i = 0; i < kChunkBlocks; ++i) {
      CheckExactRead(std::span<const uint8_t>(buf_).subspan(size_t{i} * kBlock, kBlock), salt_,
                     {0, kInId, first + i, 0}, "read /stream/in", *c.chk);
    }
  }

  void Write(ClientCtx& c, uint32_t first) {
    uint64_t version = passes_ + 1;
    for (uint32_t i = 0; i < kChunkBlocks; ++i) {
      FillBlock(std::span<uint8_t>(buf_).subspan(size_t{i} * kBlock, kBlock),
                {1, kOutId, first + i, version}, salt_);
    }
    auto n = Timed(c, kWrite, "write", [&] { return out_->Write(uint64_t{first} * kBlock, buf_); });
    if (n.ok()) {
      c.rec.write_bytes += *n;
      for (uint32_t i = 0; i < kChunkBlocks; ++i) {
        last_[first + i] = version;
      }
    }
  }

  const uint64_t salt_;
  std::vector<Op> pass_;
  VnodeRef in_, out_;
  dfs::OpenHandle open_;  // the open of `out` for the current 1 MiB cycle
  std::vector<uint64_t> last_;  // last acknowledged version per block of out
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
  uint64_t passes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  uint64_t salt = dfs::Rng(seed ^ 0xD1B54A32D192ED03ull).Next();
  if (name == "hot_read") {
    return std::make_unique<HotRead>(salt);
  }
  if (name == "shared_write") {
    return std::make_unique<SharedWrite>(salt);
  }
  if (name == "stream") {
    return std::make_unique<Stream>(salt);
  }
  return nullptr;
}

}  // namespace dfsbench
