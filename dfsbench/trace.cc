#include "dfsbench/trace.h"

#include <algorithm>

#include "dfsbench/checker.h"

namespace dfsbench {
namespace {

// Open spans of the calling thread, innermost last. -1 marks a span that was
// not recorded, so its children get no parent rather than a wrong one.
thread_local std::vector<int32_t> t_open;

}  // namespace

Tracer::Tracer(size_t capacity) : capacity_(capacity), spans_(new Span[capacity]) {}

uint16_t Tracer::Name(const std::string& name) {
  auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) {
    return static_cast<uint16_t>(it - names_.begin());
  }
  names_.push_back(name);
  return static_cast<uint16_t>(names_.size() - 1);
}

int32_t Tracer::Begin(Layer layer, uint16_t name, uint32_t tag) {
  if (!enabled_.load(std::memory_order_acquire)) {
    return -1;
  }
  size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= capacity_) {
    uint64_t zero = 0;
    full_at_.compare_exchange_strong(zero, NowNs(), std::memory_order_acq_rel);
    return -1;
  }
  Span& s = spans_[slot];
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.tag = tag;
  s.name = name;
  s.layer = layer;
  s.end_ns = 0;
  s.start_ns = NowNs();
  return static_cast<int32_t>(slot);
}

void Tracer::End(int32_t slot) {
  if (slot >= 0) {
    spans_[slot].end_ns = NowNs();
  }
}

Tracer::Scope::Scope(Tracer* tracer, Layer layer, uint16_t name, uint32_t tag)
    : tracer_(tracer) {
  if (tracer_ != nullptr) {
    slot_ = tracer_->Begin(layer, name, tag);
    t_open.push_back(slot_);
  }
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) {
    tracer_->End(slot_);
    t_open.pop_back();
  }
}

std::vector<Span> Tracer::Spans() const {
  size_t n = std::min(next_.load(std::memory_order_acquire), capacity_);
  return std::vector<Span>(spans_.get(), spans_.get() + n);
}

}  // namespace dfsbench
