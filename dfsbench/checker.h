// Content checks for the DFS benchmark.
//
// Every 4 KiB block the benchmark writes is stamped with who wrote it, which
// file and block it belongs to, and a version. The stamp is a 32-byte record
// carrying a checksum, repeated 128 times to fill the block, so a block that
// mixes bytes of two writes (torn or interleaved) no longer repeats one record.
//
// Three kinds of read checks build on the stamps:
//   - exact: the reader knows the only valid content (setup data nobody
//     rewrites, or a file only the reader writes — read-your-writes);
//   - tracked: shared blocks written concurrently. Each write takes a ticket
//     from a WriteLog that records when the write call started and returned.
//     A read is stale — old state returned after new state (paper §6.3) — if
//     it returns a write that had returned before another write to the block
//     started, when that other write had itself returned before the read
//     started, or had already been seen by this reader;
//   - final: after the timed phase a fresh client reads everything back; each
//     tracked block must hold a write no later write started after, and each
//     directory must list exactly the files created and not unlinked.
#ifndef DFSBENCH_CHECKER_H_
#define DFSBENCH_CHECKER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

namespace dfsbench {

inline constexpr size_t kStampBlock = 4096;

struct Stamp {
  uint32_t writer = 0;  // 0 = set-up data, client i writes as i + 1
  uint32_t file = 0;
  uint32_t block = 0;
  uint64_t version = 0;

  bool operator==(const Stamp&) const = default;
};

std::string ToString(const Stamp& s);

// Fills a 4 KiB block with `s`. `salt` comes from the run's seed, so stamps of
// one run never validate under another.
void FillBlock(std::span<uint8_t> block, const Stamp& s, uint64_t salt);

// Decodes a 4 KiB block. Returns false and sets *why when the block is torn,
// mixed, or carries a bad checksum.
bool DecodeBlock(std::span<const uint8_t> block, uint64_t salt, Stamp* out, std::string* why);

// Monotonic nanoseconds shared by all threads (steady clock).
uint64_t NowNs();

// Counts violations; keeps the first few messages for the report.
class Checker {
 public:
  void Fail(const std::string& message);
  uint64_t violations() const { return violations_.load(std::memory_order_relaxed); }
  std::vector<std::string> messages() const;

 private:
  std::atomic<uint64_t> violations_{0};
  mutable std::mutex mu_;
  std::vector<std::string> messages_;
};

// Tickets and call times of the writes to tracked (shared) blocks. A slot
// names one tracked block. Thread-safe; lock-free on the write path.
class WriteLog {
 public:
  explicit WriteLog(size_t slots);
  ~WriteLog();
  WriteLog(const WriteLog&) = delete;
  WriteLog& operator=(const WriteLog&) = delete;

  // Takes a ticket (>= 1) for a write to `slot` and records its start time.
  // Ticket 0 stands for the set-up content, written before any run.
  uint64_t Begin(size_t slot);
  // Records that the write returned successfully.
  void End(size_t slot, uint64_t ticket);

  // Start time of the write; 0 for ticket 0 or an unknown ticket.
  uint64_t Invoked(uint64_t ticket) const;
  // Return time; UINT64_MAX while the write has not returned (or failed).
  uint64_t Returned(uint64_t ticket) const;
  // Whether `ticket` was handed out for `slot`.
  bool Issued(size_t slot, uint64_t ticket) const;
  // Largest start time among writes to `slot` that have returned.
  uint64_t MaxReturnedStart(size_t slot) const;
  // Largest start time among all writes to `slot`.
  uint64_t MaxStart(size_t slot) const;

 private:
  struct Entry {
    std::atomic<uint64_t> invoked{0};
    std::atomic<uint64_t> returned{UINT64_MAX};
    std::atomic<uint64_t> slot{UINT64_MAX};
  };
  static constexpr size_t kChunk = 1 << 16;
  static constexpr size_t kMaxChunks = 1 << 12;
  Entry* EntryFor(uint64_t ticket, bool create) const;

  mutable std::unique_ptr<std::atomic<Entry*>[]> chunks_;
  std::atomic<uint64_t> next_{1};
  std::unique_ptr<std::atomic<uint64_t>[]> max_returned_start_;
  std::unique_ptr<std::atomic<uint64_t>[]> max_start_;
  size_t slots_;
};

// What one reader last saw of one tracked block.
struct SeenVersion {
  uint64_t ticket = 0;
  bool valid = false;
};

// A read of an untracked block whose only valid content is `want`.
void CheckExactRead(std::span<const uint8_t> block, uint64_t salt, const Stamp& want,
                    const std::string& where, Checker& chk);

// A read of tracked block `slot` (file, block) that started when
// `max_returned_start` was WriteLog::MaxReturnedStart(slot). Updates `seen`.
void CheckTrackedRead(std::span<const uint8_t> block, uint64_t salt, const WriteLog& log,
                      size_t slot, uint32_t file, uint32_t blockno,
                      uint64_t max_returned_start, SeenVersion& seen,
                      const std::string& where, Checker& chk);

// Final read-back of tracked block `slot`: it must hold a write that no other
// write to the block started after.
void CheckFinalTracked(std::span<const uint8_t> block, uint64_t salt, const WriteLog& log,
                       size_t slot, uint32_t file, uint32_t blockno, const std::string& where,
                       Checker& chk);

// The names a directory lists (restricted to `prefix`) must equal `want`.
void CheckListing(const std::set<std::string>& want, const std::vector<std::string>& listed,
                  const std::string& prefix, const std::string& where, Checker& chk);

}  // namespace dfsbench

#endif  // DFSBENCH_CHECKER_H_
