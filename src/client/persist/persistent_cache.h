// The client's disk cache: 4 KiB slots on a SimDisk (MemoryCacheStore is
// the diskless option). Who owns the disk decides what outlives the client:
//   - Open(disk): a caller-owned SimDisk. Data blocks and token state survive
//     a client crash; a rebooted client reopens the same disk (warm reboot).
//   - CreatePrivate(blocks): the store owns the disk, which dies with its
//     client, so nothing on it is ever recovered: the index lives only in
//     memory, with no WAL commit, no journal append and no format write.
//     Geometry and slot code are the same; only the data slots are written.
//
//   block 0        superblock (geometry, magic)
//   [wal]          write-ahead log for index metadata (reuses src/wal)
//   [index]        one 64-byte entry per data slot: fid, remote block number,
//                  serialization stamp, data_version, write-time file size,
//                  valid/dirty flags.
//                  Written through BufferCache + Wal::LogUpdate so crash
//                  semantics are inherited from the Episode machinery.
//   [journal]      append-only token journal: header block + two alternating
//                  halves. Grants/updates and erasures are appended raw
//                  (write-through, one block per append); a checkpoint
//                  compacts the live token set into the inactive half and
//                  flips the header in a single atomic block write.
//   [data]         one 4 KiB slot per cached block, written directly to the
//                  device (user data is not logged, as in Episode).
//
// Write-ordering discipline on a caller-owned disk (each rule closes a crash
// window):
//   - A put into a slot that is currently valid first *durably* invalidates
//     the index entry (WAL commit + sync), then writes the data, then commits
//     the new entry. A crash between any two steps loses at most that one
//     cached block; it can never leave an entry describing bytes from a
//     different file or a different version.
//   - A fresh slot is written data-first, entry-second: a crash in between
//     leaves an invalid entry and an orphaned data block (harmless).
//   - Journal appends are written through to the device before returning, so
//     any prefix of the journal is a consistent (if conservative) token set:
//     a lost grant record means the token dies with the reboot (safe); a lost
//     erasure record means recovery reasserts a dead token, which the server
//     either rejects (conflict) or re-installs — and re-installed tokens are
//     revalidated against the file's data_version before cached data is
//     trusted (see CacheManager::Recover()).
//
// In both modes every put says whether the block is dirty and MarkClean
// records a store-back, so the clean-victim choice of a full store never
// drops a dirty block.
//
// Crash injection: CrashAfterWrites(n) lets the next n device writes succeed
// and then fails every subsequent I/O without touching the medium — the
// recovery sweep in tests proves any prefix of the write path recovers.
#ifndef SRC_CLIENT_PERSIST_PERSISTENT_CACHE_H_
#define SRC_CLIENT_PERSIST_PERSISTENT_CACHE_H_

#include <atomic>
#include <map>
#include <memory>
#include <vector>

#include "src/blockdev/block_device.h"
#include "src/buf/buffer_cache.h"
#include "src/client/cache_store.h"
#include "src/common/mutex.h"
#include "src/tokens/token.h"
#include "src/wal/wal.h"

namespace dfs {

// Fails all I/O after a configured number of successful writes; the medium
// keeps exactly the prefix that was written (SimDisk durability semantics).
class CrashableDevice : public BlockDevice {
 public:
  explicit CrashableDevice(BlockDevice& base) : base_(base) {}

  Status Read(uint64_t blockno, std::span<uint8_t> out) override;
  Status Write(uint64_t blockno, std::span<const uint8_t> data) override;
  Status Flush() override;
  uint64_t BlockCount() const override { return base_.BlockCount(); }

  // After `n` more successful writes, every I/O fails with kCrashed.
  void CrashAfterWrites(uint64_t n);
  void CrashNow() { crashed_.store(true, std::memory_order_release); }
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }
  uint64_t writes() const { return writes_.load(std::memory_order_relaxed); }

 private:
  BlockDevice& base_;
  std::atomic<bool> crashed_{false};
  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> remaining_{0};
  std::atomic<uint64_t> writes_{0};
};

class PersistentCacheStore : public CacheStore {
 public:
  enum class JournalOp : uint8_t { kGrant = 1, kErase = 2, kAttr = 3 };

  struct JournalRecord {
    JournalOp op = JournalOp::kGrant;
    Token token;
    uint64_t epoch = 0;  // server epoch when the grant was journaled
    // kAttr payload: the file's attributes at `stamp`. A warm reboot whose
    // status-read token survives reassertion can trust these without a
    // kFetchStatus round trip (no conflicting grant can have intervened).
    Fid fid;
    uint64_t stamp = 0;
    FileAttr attr;
  };

  struct RecoveredBlock {
    uint64_t block = 0;
    bool dirty = false;
    uint64_t stamp = 0;
    uint64_t data_version = 0;
    // The file's local size when this entry was written. For dirty blocks
    // this preserves a size extension that existed only in the dying
    // client's memory — recovery restores it so the resumed push re-extends
    // the file at the server.
    uint64_t file_size = 0;
  };
  struct RecoveredFile {
    Fid fid;
    std::vector<RecoveredBlock> blocks;
    // Journaled attributes (latest kAttr record for this fid), if any.
    bool has_attr = false;
    FileAttr attr;
    uint64_t attr_stamp = 0;
  };
  struct RecoveredState {
    bool recovered = false;  // false: the disk was virgin and got formatted
    std::vector<RecoveredFile> files;
    std::vector<JournalRecord> tokens;  // live grants (erasures applied)
  };

  // Opens an existing store (magic present: WAL recovery + index scan +
  // journal replay) or formats a virgin disk. The SimDisk is caller-owned and
  // must outlive the store — that is what lets a rebooted client reopen it.
  static Result<std::unique_ptr<PersistentCacheStore>> Open(SimDisk* disk);

  // A store on a private SimDisk of `disk_blocks` blocks. Its index lives in
  // memory only; the journal calls, Sync() and recovered() are no-ops.
  static Result<std::unique_ptr<PersistentCacheStore>> CreatePrivate(uint64_t disk_blocks);

  ~PersistentCacheStore() override;

  // CacheStore interface. PutSlice() stores a clean block with unknown
  // version metadata; recovery drops such entries, so integration code should
  // prefer PutBlock(). GetSlice/Erase/EraseFile behave like MemoryCacheStore.
  Status PutSlice(const Fid& fid, uint64_t block, BufferSlice data) override;
  Result<BufferSlice> GetSlice(const Fid& fid, uint64_t block, size_t len) override;
  void Erase(const Fid& fid, uint64_t block) override;
  void EraseFile(const Fid& fid) override;
  uint64_t bytes_used() const override;

  // Full-metadata put: `stamp` is the file's serialization stamp,
  // `data_version` its attribute version at the time the bytes were valid,
  // and `file_size` the file's local size (which for dirty blocks may run
  // ahead of the server's).
  Status PutBlock(const Fid& fid, uint64_t block, std::span<const uint8_t> data, bool dirty,
                  uint64_t stamp, uint64_t data_version, uint64_t file_size);

  // Records that a dirty block reached the server (store-back completed).
  Status MarkClean(const Fid& fid, uint64_t block, uint64_t stamp, uint64_t data_version,
                   uint64_t file_size);

  // Truncate-awareness: rewrites (through the WAL) every entry of `fid` whose
  // recorded file_size exceeds `new_size`. Without this, entries below the
  // truncation boundary keep the pre-truncate size, and a warm reboot would
  // hand recovery a stale extension for a file the server has since shrunk.
  Status ClampFileSizes(const Fid& fid, uint64_t new_size);

  // Appends a token-journal record (write-through). The journal calls below
  // do nothing on a private store: no reboot will ever replay it.
  Status Journal(JournalOp op, const Token& token, uint64_t epoch);

  // Appends an attribute record (write-through). Latest record per fid wins
  // at replay; checkpoints carry live attr records across compaction.
  Status JournalAttr(const Fid& fid, uint64_t stamp, const FileAttr& attr, uint64_t epoch);

  // Compacts `live` into the inactive half and atomically flips the header.
  Status CheckpointJournal(const std::vector<JournalRecord>& live);

  // Compacts the store's own in-memory live token set (erasures applied).
  // The keep-alive daemon calls this when the append count gets high, so the
  // journal stays short and the next reboot's replay cheap, without waiting
  // for the half to physically fill.
  Status SelfCheckpoint();

  // Raw records appended since the last compaction, the checkpoint-pressure
  // signal for the caller's piggybacked maintenance.
  uint64_t journal_appends_since_checkpoint() const;

  // Flushes the WAL and every dirty index buffer (clean-shutdown path).
  Status Sync();

  // What Open() reconstructed from the medium.
  const RecoveredState& recovered() const { return recovered_; }

  // --- Crash injection (recovery tests) ---
  void CrashAfterWrites(uint64_t n) { crash_dev_->CrashAfterWrites(n); }
  void CrashNow();
  bool crashed() const { return crash_dev_->crashed(); }
  uint64_t device_writes() const { return crash_dev_->writes(); }

  uint64_t data_slots() const { return geo_.data_slots; }

 private:
  struct Geometry {
    uint64_t wal_start = 0;
    uint64_t wal_blocks = 0;
    uint64_t index_start = 0;
    uint64_t index_blocks = 0;
    uint64_t journal_start = 0;
    uint64_t journal_half_blocks = 0;
    uint64_t data_start = 0;
    uint64_t data_slots = 0;
  };

  struct SlotState {
    bool valid = false;
    bool dirty = false;
    Fid fid;
    uint64_t block = 0;
    uint64_t stamp = 0;
    uint64_t data_version = 0;
    uint64_t file_size = 0;
  };

  using Key = std::pair<Fid, uint64_t>;

  PersistentCacheStore() = default;

  // Lays out a store over `disk` (superblock, WAL, index, journal, slots).
  static Result<std::unique_ptr<PersistentCacheStore>> Layout(SimDisk& disk);
  // True for a caller-owned disk: the index is logged and tokens journaled.
  bool durable() const { return wal_ != nullptr; }

  Status Boot();
  Status FormatLocked() REQUIRES(mu_);
  Status RecoverLocked() REQUIRES(mu_);
  Status ReplayJournalLocked() REQUIRES(mu_);

  // Writes the entry for `slot` through the WAL (one short transaction); a
  // no-op on a private store, whose index is slots_ alone.
  Status WriteEntryLocked(uint64_t slot, const SlotState& state) REQUIRES(mu_);
  // Durably clears the entry (WAL commit forced to disk before returning).
  Status InvalidateSlotLocked(uint64_t slot) REQUIRES(mu_);

  Result<uint64_t> PickSlotLocked(const Key& key) REQUIRES(mu_);

  Status AppendJournalLocked(const JournalRecord& rec) REQUIRES(mu_);
  Status WriteJournalHeaderLocked(uint8_t active_half, uint64_t seq) REQUIRES(mu_);
  Status CompactJournalLocked(const std::vector<JournalRecord>& live) REQUIRES(mu_);
  std::vector<JournalRecord> LiveJournalLocked() const REQUIRES(mu_);

  static void SerializeRecord(Writer& w, const JournalRecord& rec);

  // GUARD-EXEMPT: the private medium, created once in CreatePrivate() and
  // never reseated; null for a caller-owned disk. I/O goes through crash_dev_.
  std::unique_ptr<SimDisk> private_disk_;
  // GUARD-EXEMPT: wired once in Open() before any concurrent use; the
  // devices/WAL/cache they point at are driven only under mu_.
  std::unique_ptr<CrashableDevice> crash_dev_;
  std::unique_ptr<BufferCache> cache_;  // index metadata only; null when private
  // GUARD-EXEMPT: created once in Open(); the Wal object serializes its own
  // appends internally. Null on a private store.
  std::unique_ptr<Wal> wal_;
  // GUARD-EXEMPT: computed once in Open() from the disk size, immutable
  // afterwards.
  Geometry geo_;
  // GUARD-EXEMPT: filled during single-threaded Open()/recovery and then
  // only consumed (moved out) by the owning CacheManager before any
  // concurrent store use.
  RecoveredState recovered_;

  // LOCK-EXEMPT(leaf): serializes persistent-store operations; below every
  // hierarchy level — only the leaf buf/wal/device locks are taken inside,
  // and nothing in those layers calls back up into this store.
  mutable Mutex mu_;
  std::vector<SlotState> slots_ GUARDED_BY(mu_);
  std::map<Key, uint64_t> by_key_ GUARDED_BY(mu_);  // key -> slot
  uint64_t next_victim_ GUARDED_BY(mu_) = 0;
  uint64_t bytes_used_ GUARDED_BY(mu_) = 0;

  // Token journal in-memory state (mirrors the active half).
  std::map<TokenId, JournalRecord> live_tokens_ GUARDED_BY(mu_);
  // Latest attr record per fid (kAttr replay state).
  std::map<Fid, JournalRecord> live_attrs_ GUARDED_BY(mu_);
  uint8_t active_half_ GUARDED_BY(mu_) = 0;
  uint64_t journal_appends_ GUARDED_BY(mu_) = 0;  // since last compaction
  uint64_t journal_seq_ GUARDED_BY(mu_) = 1;
  std::vector<uint8_t> journal_tail_ GUARDED_BY(mu_);  // bytes in the active half
};

}  // namespace dfs

#endif  // SRC_CLIENT_PERSIST_PERSISTENT_CACHE_H_
