// Tests of the benchmark's content checker: it must accept a clean history
// and reject a stale block, a torn block and a missing file.
#include "dfsbench/checker.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace dfsbench {
namespace {

constexpr uint64_t kSalt = 0x5EED;

std::vector<uint8_t> Block(const Stamp& s) {
  std::vector<uint8_t> b(kStampBlock);
  FillBlock(b, s, kSalt);
  return b;
}

// Two writes to slot 0 (file 7, block 3), the second started after the first
// returned. Returns their tickets.
std::pair<uint64_t, uint64_t> TwoSequentialWrites(WriteLog& log) {
  uint64_t t1 = log.Begin(0);
  log.End(0, t1);
  std::this_thread::sleep_for(std::chrono::microseconds(50));
  uint64_t t2 = log.Begin(0);
  log.End(0, t2);
  return {t1, t2};
}

TEST(CheckerTest, BlockRoundTrips) {
  Stamp s{3, 7, 11, 42};
  Stamp got;
  std::string why;
  ASSERT_TRUE(DecodeBlock(Block(s), kSalt, &got, &why)) << why;
  EXPECT_EQ(got, s);
  EXPECT_FALSE(DecodeBlock(Block(s), kSalt + 1, &got, &why));
}

TEST(CheckerTest, AcceptsCleanRun) {
  Checker chk;
  WriteLog log(1);
  CheckExactRead(Block({0, 1, 2, 0}), kSalt, {0, 1, 2, 0}, "exact", chk);

  SeenVersion seen;
  uint64_t before = log.MaxReturnedStart(0);
  CheckTrackedRead(Block({0, 7, 3, 0}), kSalt, log, 0, 7, 3, before, seen, "setup", chk);
  auto [t1, t2] = TwoSequentialWrites(log);
  before = log.MaxReturnedStart(0);
  CheckTrackedRead(Block({2, 7, 3, t2}), kSalt, log, 0, 7, 3, before, seen, "latest", chk);
  CheckTrackedRead(Block({2, 7, 3, t2}), kSalt, log, 0, 7, 3, before, seen, "again", chk);
  CheckFinalTracked(Block({2, 7, 3, t2}), kSalt, log, 0, 7, 3, "final", chk);
  CheckListing({"c0_1", "c0_2"}, {".", "..", "c0_1", "c1_5", "c0_2"}, "c0_", "dir", chk);
  (void)t1;
  EXPECT_EQ(chk.violations(), 0u) << (chk.messages().empty() ? "" : chk.messages()[0]);
}

TEST(CheckerTest, AcceptsOverlappingWritesInEitherOrder) {
  Checker chk;
  WriteLog log(1);
  // Both writes are in flight together, so either may be the last one.
  uint64_t a = log.Begin(0);
  uint64_t b = log.Begin(0);
  log.End(0, b);
  log.End(0, a);
  SeenVersion seen;
  uint64_t before = log.MaxReturnedStart(0);
  CheckTrackedRead(Block({1, 7, 3, b}), kSalt, log, 0, 7, 3, before, seen, "b", chk);
  CheckTrackedRead(Block({2, 7, 3, a}), kSalt, log, 0, 7, 3, before, seen, "a", chk);
  CheckFinalTracked(Block({1, 7, 3, b}), kSalt, log, 0, 7, 3, "final b", chk);
  CheckFinalTracked(Block({2, 7, 3, a}), kSalt, log, 0, 7, 3, "final a", chk);
  EXPECT_EQ(chk.violations(), 0u);
}

TEST(CheckerTest, RejectsStaleBlockAfterLaterWriteReturned) {
  Checker chk;
  WriteLog log(1);
  auto [t1, t2] = TwoSequentialWrites(log);
  (void)t2;
  SeenVersion seen;
  CheckTrackedRead(Block({1, 7, 3, t1}), kSalt, log, 0, 7, 3, log.MaxReturnedStart(0), seen,
                   "stale", chk);
  EXPECT_EQ(chk.violations(), 1u);
}

TEST(CheckerTest, RejectsVersionGoingBackwardsForOneReader) {
  Checker chk;
  WriteLog log(1);
  auto [t1, t2] = TwoSequentialWrites(log);
  SeenVersion seen;
  // The reader saw t2, then t1: t1 had returned before t2 started. The
  // snapshot of returned writes is from before either write, so only the
  // reader's own memory can catch it.
  CheckTrackedRead(Block({1, 7, 3, t2}), kSalt, log, 0, 7, 3, 0, seen, "new", chk);
  CheckTrackedRead(Block({1, 7, 3, t1}), kSalt, log, 0, 7, 3, 0, seen, "old", chk);
  EXPECT_EQ(chk.violations(), 1u);
}

TEST(CheckerTest, RejectsStaleFinalContent) {
  Checker chk;
  WriteLog log(1);
  auto [t1, t2] = TwoSequentialWrites(log);
  (void)t2;
  CheckFinalTracked(Block({1, 7, 3, t1}), kSalt, log, 0, 7, 3, "final", chk);
  CheckFinalTracked(Block({0, 7, 3, 0}), kSalt, log, 0, 7, 3, "setup", chk);
  EXPECT_EQ(chk.violations(), 2u);
}

TEST(CheckerTest, RejectsStaleExactRead) {
  Checker chk;
  CheckExactRead(Block({1, 5, 0, 3}), kSalt, {1, 5, 0, 4}, "private", chk);
  EXPECT_EQ(chk.violations(), 1u);
}

TEST(CheckerTest, RejectsTornBlock) {
  Checker chk;
  WriteLog log(1);
  uint64_t t1 = log.Begin(0);
  log.End(0, t1);
  std::vector<uint8_t> torn = Block({1, 7, 3, t1});
  std::vector<uint8_t> other = Block({1, 7, 3, 0});
  std::copy(other.begin() + kStampBlock / 2, other.end(), torn.begin() + kStampBlock / 2);
  SeenVersion seen;
  CheckTrackedRead(torn, kSalt, log, 0, 7, 3, 0, seen, "torn", chk);
  CheckExactRead(torn, kSalt, {1, 7, 3, t1}, "torn exact", chk);
  std::vector<uint8_t> flipped = Block({1, 7, 3, t1});
  flipped[100] ^= 1;
  CheckExactRead(flipped, kSalt, {1, 7, 3, t1}, "flipped", chk);
  CheckExactRead(std::span<const uint8_t>(flipped).first(100), kSalt, {1, 7, 3, t1}, "short",
                 chk);
  EXPECT_EQ(chk.violations(), 4u);
}

TEST(CheckerTest, RejectsMisplacedAndUnwrittenBlocks) {
  Checker chk;
  WriteLog log(2);
  uint64_t t1 = log.Begin(1);
  log.End(1, t1);
  SeenVersion seen;
  // Right stamp, wrong block.
  CheckTrackedRead(Block({1, 7, 4, t1}), kSalt, log, 0, 7, 3, 0, seen, "misplaced", chk);
  // A ticket issued for another slot, and one never issued.
  CheckTrackedRead(Block({1, 7, 3, t1}), kSalt, log, 0, 7, 3, 0, seen, "other slot", chk);
  CheckTrackedRead(Block({1, 7, 3, 99}), kSalt, log, 0, 7, 3, 0, seen, "unissued", chk);
  EXPECT_EQ(chk.violations(), 3u);
}

TEST(CheckerTest, RejectsMissingAndUnexpectedFiles) {
  Checker chk;
  CheckListing({"c0_1", "c0_2"}, {"c0_1", "c1_2"}, "c0_", "missing", chk);
  EXPECT_EQ(chk.violations(), 1u);
  CheckListing({"c0_1"}, {"c0_1", "c0_9"}, "c0_", "unlinked still listed", chk);
  EXPECT_EQ(chk.violations(), 2u);
}

}  // namespace
}  // namespace dfsbench
