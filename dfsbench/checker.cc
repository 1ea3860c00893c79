#include "dfsbench/checker.h"

#include <algorithm>
#include <chrono>
#include <cstring>

namespace dfsbench {
namespace {

constexpr uint32_t kMagic = 0xDF5B0C4Bu;
constexpr size_t kRecord = 32;
constexpr size_t kKeepMessages = 8;

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

uint64_t Checksum(const Stamp& s, uint64_t salt) {
  uint64_t h = Mix(salt ^ 0x9E3779B97F4A7C15ull);
  h = Mix(h ^ (uint64_t{s.writer} << 32 | s.file));
  h = Mix(h ^ s.block);
  return Mix(h ^ s.version);
}

void EncodeRecord(uint8_t* rec, const Stamp& s, uint64_t salt) {
  uint64_t check = Checksum(s, salt);
  std::memcpy(rec, &kMagic, 4);
  std::memcpy(rec + 4, &s.writer, 4);
  std::memcpy(rec + 8, &s.file, 4);
  std::memcpy(rec + 12, &s.block, 4);
  std::memcpy(rec + 16, &s.version, 8);
  std::memcpy(rec + 24, &check, 8);
}

void AtomicMax(std::atomic<uint64_t>& a, uint64_t v) {
  uint64_t cur = a.load(std::memory_order_relaxed);
  while (cur < v && !a.compare_exchange_weak(cur, v, std::memory_order_acq_rel)) {
  }
}

// Decodes and checks that the block belongs at (file, blockno).
bool DecodeAt(std::span<const uint8_t> block, uint64_t salt, uint32_t file, uint32_t blockno,
              const std::string& where, Checker& chk, Stamp* got) {
  std::string why;
  if (!DecodeBlock(block, salt, got, &why)) {
    chk.Fail(where + ": " + why);
    return false;
  }
  if (got->file != file || got->block != blockno) {
    chk.Fail(where + ": misplaced block " + ToString(*got));
    return false;
  }
  return true;
}

}  // namespace

std::string ToString(const Stamp& s) {
  return "{writer " + std::to_string(s.writer) + ", file " + std::to_string(s.file) +
         ", block " + std::to_string(s.block) + ", version " + std::to_string(s.version) + "}";
}

void FillBlock(std::span<uint8_t> block, const Stamp& s, uint64_t salt) {
  uint8_t rec[kRecord];
  EncodeRecord(rec, s, salt);
  for (size_t off = 0; off + kRecord <= block.size(); off += kRecord) {
    std::memcpy(block.data() + off, rec, kRecord);
  }
}

bool DecodeBlock(std::span<const uint8_t> block, uint64_t salt, Stamp* out, std::string* why) {
  if (block.size() != kStampBlock) {
    *why = "short block (" + std::to_string(block.size()) + " bytes)";
    return false;
  }
  uint32_t magic = 0;
  uint64_t check = 0;
  std::memcpy(&magic, block.data(), 4);
  std::memcpy(&out->writer, block.data() + 4, 4);
  std::memcpy(&out->file, block.data() + 8, 4);
  std::memcpy(&out->block, block.data() + 12, 4);
  std::memcpy(&out->version, block.data() + 16, 8);
  std::memcpy(&check, block.data() + 24, 8);
  if (magic != kMagic || check != Checksum(*out, salt)) {
    *why = "bad stamp checksum";
    return false;
  }
  for (size_t off = kRecord; off < kStampBlock; off += kRecord) {
    if (std::memcmp(block.data(), block.data() + off, kRecord) != 0) {
      *why = "torn or mixed block at byte " + std::to_string(off) + " of " + ToString(*out);
      return false;
    }
  }
  return true;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

void Checker::Fail(const std::string& message) {
  violations_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (messages_.size() < kKeepMessages) {
    messages_.push_back(message);
  }
}

std::vector<std::string> Checker::messages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return messages_;
}

WriteLog::WriteLog(size_t slots)
    : chunks_(new std::atomic<Entry*>[kMaxChunks]),
      max_returned_start_(new std::atomic<uint64_t>[slots]),
      max_start_(new std::atomic<uint64_t>[slots]),
      slots_(slots) {
  for (size_t i = 0; i < kMaxChunks; ++i) {
    chunks_[i].store(nullptr, std::memory_order_relaxed);
  }
  for (size_t i = 0; i < slots; ++i) {
    max_returned_start_[i].store(0, std::memory_order_relaxed);
    max_start_[i].store(0, std::memory_order_relaxed);
  }
}

WriteLog::~WriteLog() {
  for (size_t i = 0; i < kMaxChunks; ++i) {
    delete[] chunks_[i].load(std::memory_order_relaxed);
  }
}

WriteLog::Entry* WriteLog::EntryFor(uint64_t ticket, bool create) const {
  size_t chunk = ticket / kChunk;
  if (chunk >= kMaxChunks) {
    return nullptr;
  }
  Entry* entries = chunks_[chunk].load(std::memory_order_acquire);
  if (entries == nullptr && create) {
    auto* fresh = new Entry[kChunk];
    if (chunks_[chunk].compare_exchange_strong(entries, fresh, std::memory_order_acq_rel)) {
      entries = fresh;
    } else {
      delete[] fresh;  // another writer installed the chunk first
    }
  }
  return entries == nullptr ? nullptr : &entries[ticket % kChunk];
}

uint64_t WriteLog::Begin(size_t slot) {
  uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
  uint64_t now = NowNs();
  Entry* e = EntryFor(ticket, /*create=*/true);
  if (e != nullptr) {
    e->slot.store(slot, std::memory_order_relaxed);
    e->invoked.store(now, std::memory_order_release);
  }
  if (slot < slots_) {
    AtomicMax(max_start_[slot], now);
  }
  return ticket;
}

void WriteLog::End(size_t slot, uint64_t ticket) {
  Entry* e = EntryFor(ticket, /*create=*/false);
  if (e == nullptr) {
    return;
  }
  e->returned.store(NowNs(), std::memory_order_release);
  if (slot < slots_) {
    AtomicMax(max_returned_start_[slot], e->invoked.load(std::memory_order_acquire));
  }
}

uint64_t WriteLog::Invoked(uint64_t ticket) const {
  if (ticket == 0) {
    return 0;
  }
  Entry* e = EntryFor(ticket, /*create=*/false);
  return e == nullptr ? 0 : e->invoked.load(std::memory_order_acquire);
}

uint64_t WriteLog::Returned(uint64_t ticket) const {
  if (ticket == 0) {
    return 0;  // set-up content was in place before any run
  }
  Entry* e = EntryFor(ticket, /*create=*/false);
  return e == nullptr ? UINT64_MAX : e->returned.load(std::memory_order_acquire);
}

bool WriteLog::Issued(size_t slot, uint64_t ticket) const {
  if (ticket == 0) {
    return true;
  }
  if (ticket >= next_.load(std::memory_order_acquire)) {
    return false;
  }
  Entry* e = EntryFor(ticket, /*create=*/false);
  return e != nullptr && e->slot.load(std::memory_order_relaxed) == slot;
}

uint64_t WriteLog::MaxReturnedStart(size_t slot) const {
  return slot < slots_ ? max_returned_start_[slot].load(std::memory_order_acquire) : 0;
}

uint64_t WriteLog::MaxStart(size_t slot) const {
  return slot < slots_ ? max_start_[slot].load(std::memory_order_acquire) : 0;
}

void CheckExactRead(std::span<const uint8_t> block, uint64_t salt, const Stamp& want,
                    const std::string& where, Checker& chk) {
  Stamp got;
  if (!DecodeAt(block, salt, want.file, want.block, where, chk, &got)) {
    return;
  }
  if (got != want) {
    chk.Fail(where + ": read " + ToString(got) + ", want " + ToString(want));
  }
}

void CheckTrackedRead(std::span<const uint8_t> block, uint64_t salt, const WriteLog& log,
                      size_t slot, uint32_t file, uint32_t blockno,
                      uint64_t max_returned_start, SeenVersion& seen,
                      const std::string& where, Checker& chk) {
  Stamp got;
  if (!DecodeAt(block, salt, file, blockno, where, chk, &got)) {
    return;
  }
  uint64_t ticket = got.version;
  if (!log.Issued(slot, ticket)) {
    chk.Fail(where + ": read a version never written there " + ToString(got));
    return;
  }
  uint64_t returned = log.Returned(ticket);
  // A write that returned before the read started, and that started after
  // the returned version's write had returned, must be visible.
  if (returned != UINT64_MAX && returned < max_returned_start) {
    chk.Fail(where + ": stale read of " + ToString(got) +
             " after a later write had returned");
    return;
  }
  // Once seen, a version may only give way to versions not older than it.
  if (seen.valid && seen.ticket != ticket && returned != UINT64_MAX &&
      returned < log.Invoked(seen.ticket)) {
    chk.Fail(where + ": version went backwards: saw " + std::to_string(seen.ticket) +
             ", then " + ToString(got));
    return;
  }
  seen.ticket = ticket;
  seen.valid = true;
}

void CheckFinalTracked(std::span<const uint8_t> block, uint64_t salt, const WriteLog& log,
                       size_t slot, uint32_t file, uint32_t blockno, const std::string& where,
                       Checker& chk) {
  Stamp got;
  if (!DecodeAt(block, salt, file, blockno, where, chk, &got)) {
    return;
  }
  if (!log.Issued(slot, got.version)) {
    chk.Fail(where + ": final content was never written there " + ToString(got));
    return;
  }
  uint64_t returned = log.Returned(got.version);
  if (returned == UINT64_MAX || returned < log.MaxStart(slot)) {
    chk.Fail(where + ": final content " + ToString(got) +
             " is not the last acknowledged write");
  }
}

void CheckListing(const std::set<std::string>& want, const std::vector<std::string>& listed,
                  const std::string& prefix, const std::string& where, Checker& chk) {
  std::set<std::string> got;
  for (const std::string& name : listed) {
    if (name.rfind(prefix, 0) == 0) {
      got.insert(name);
    }
  }
  for (const std::string& name : want) {
    if (got.count(name) == 0) {
      chk.Fail(where + ": missing file " + name);
    }
  }
  for (const std::string& name : got) {
    if (want.count(name) == 0) {
      chk.Fail(where + ": unexpected file " + name);
    }
  }
}

}  // namespace dfsbench
