// In-memory spans for the benchmark's traced run.
//
// A span records a name, start, end, the enclosing span on the same thread
// (its parent) and a tag: the client node for client operations and for the
// server handlers that serve them. Spans go into one preallocated array; when
// it is full, further spans are dropped and the run stops soon after. Spans
// are analysed and written out only after every recording thread has stopped.
#ifndef DFSBENCH_TRACE_H_
#define DFSBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dfsbench {

// The layer a span belongs to.
enum class Layer : uint8_t {
  kOp,       // one benchmark call into the client vnode layer
  kResolve,  // path resolution in the client (src/vfs path helpers)
  kHandler,  // one RPC served by the file server
  kEpisode,  // one call into the exported Episode volume
  kDisk,     // one I/O on the server's SimDisk
};

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;  // 0 while open
  int32_t parent = -1;
  uint32_t tag = 0;
  uint16_t name = 0;  // index into the tracer's name table
  Layer layer = Layer::kOp;
};

class Tracer {
 public:
  explicit Tracer(size_t capacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Interns a span name; call before recording starts.
  uint16_t Name(const std::string& name);
  const std::string& NameOf(uint16_t id) const { return names_[id]; }

  void Enable(bool on) { enabled_.store(on, std::memory_order_release); }
  bool full() const { return next_.load(std::memory_order_relaxed) >= capacity_; }
  // Time the array filled (0 while not full).
  uint64_t full_at_ns() const { return full_at_.load(std::memory_order_acquire); }

  // RAII span on the calling thread. A disabled or full tracer records
  // nothing; the nesting of the spans that are recorded stays exact.
  class Scope {
   public:
    Scope(Tracer* tracer, Layer layer, uint16_t name, uint32_t tag);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t slot_ = -1;
  };

  // The recorded spans. Call only after all recording threads have stopped.
  std::vector<Span> Spans() const;

 private:
  int32_t Begin(Layer layer, uint16_t name, uint32_t tag);
  void End(int32_t slot);

  const size_t capacity_;
  std::unique_ptr<Span[]> spans_;
  std::atomic<size_t> next_{0};
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> full_at_{0};
  std::vector<std::string> names_;
};

}  // namespace dfsbench

#endif  // DFSBENCH_TRACE_H_
