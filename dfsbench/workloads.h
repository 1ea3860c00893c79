// The benchmark's three closed-loop workloads.
//
// Each client is one thread that issues its next operation when the previous
// one returns. A client's operations are drawn from its own RNG, derived from
// the run's seed and the client's index, and from state that depends only on
// the client's own earlier draws; the DFS receives only the drawn operations.
// Every call into the client vnode layer is one latency sample of its class.
#ifndef DFSBENCH_WORKLOADS_H_
#define DFSBENCH_WORKLOADS_H_

#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dfsbench/checker.h"
#include "dfsbench/rig.h"
#include "dfsbench/trace.h"
#include "src/common/rng.h"

namespace dfsbench {

enum OpClass : size_t { kRead = 0, kWrite = 1, kMeta = 2, kFsync = 3, kClasses = 4 };
inline constexpr std::array<const char*, kClasses> kClassNames = {"read", "write", "meta",
                                                                   "fsync"};

// One client thread's measurements.
struct Recorder {
  std::array<std::vector<uint32_t>, kClasses> latency_ns;
  std::array<uint64_t, kClasses> busy_ns{};
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t ops = 0;
  uint64_t failed = 0;
  // End time of every completed operation; kept only in the traced run.
  std::vector<uint64_t> op_end_ns;
};

// Span names of the client-side calls, interned once per tracer.
struct OpNames {
  std::array<uint16_t, kClasses> op{};
  uint16_t resolve = 0;
};

struct ClientCtx {
  int index = 0;
  dfs::NodeId node = 0;
  dfs::CacheManager* cm = nullptr;
  dfs::VfsRef vfs;
  dfs::Rng rng{0};
  Recorder rec;
  Tracer* tracer = nullptr;  // null in the untraced run
  OpNames names;
  Checker* chk = nullptr;     // content violations
  Checker* errors = nullptr;  // operations that returned an error
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual int clients() const = 0;
  virtual RigOptions rig_options() const = 0;
  virtual dfs::CacheManager::Options client_options() const = 0;
  // The workload's fixed options, for the run's report.
  virtual std::vector<std::pair<std::string, std::string>> config() const = 0;
  // Creates the namespace and its initial contents directly in the server's
  // volume, before any client exists.
  virtual dfs::Status Populate(dfs::Vfs& local) = 0;
  // Opens what client c uses and warms its cache.
  virtual dfs::Status Warm(ClientCtx& c) = 0;
  // Draws client c's next operation and runs it.
  virtual void Step(ClientCtx& c) = 0;
  // Reads every surviving file back through a fresh client (one with
  // client_options()).
  virtual void Verify(dfs::Vfs& fresh, Checker& chk) = 0;
};

// "hot_read", "shared_write" or "stream"; null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace dfsbench

#endif  // DFSBENCH_WORKLOADS_H_
