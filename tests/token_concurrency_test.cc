// Concurrency tests for the token manager itself: many hosts granting,
// returning, and being revoked in parallel; invariants checked afterwards.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>

#include "src/common/rng.h"
#include "src/tokens/token_manager.h"
#include "tests/test_util.h"

namespace dfs {
namespace {

// A host whose revocations succeed after a tiny delay (models the RPC). It
// remembers which token ids it gave up, so a test can tell a token revoked
// by a peer's grant from one that was lost.
class SlowHost : public TokenHost {
 public:
  explicit SlowHost(std::string name) : name_(std::move(name)) {}
  Status Revoke(const Token& token, uint32_t) override {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    {
      std::lock_guard<std::mutex> l(mu_);
      revoked_ids_.insert(token.id);
    }
    ++revocations;
    return Status::Ok();
  }
  std::string name() const override { return name_; }
  bool WasRevoked(TokenId id) const {
    std::lock_guard<std::mutex> l(mu_);
    return revoked_ids_.count(id) != 0;
  }
  std::atomic<int> revocations{0};

 private:
  std::string name_;
  mutable std::mutex mu_;
  std::set<TokenId> revoked_ids_;
};

TEST(TokenConcurrencyTest, ParallelConflictingGrantsNeverLoseTokens) {
  TokenManager mgr;
  constexpr int kHosts = 6;
  std::vector<std::unique_ptr<SlowHost>> hosts;
  for (int i = 0; i < kHosts; ++i) {
    hosts.push_back(std::make_unique<SlowHost>("h" + std::to_string(i)));
    mgr.RegisterHost(static_cast<HostId>(i + 1), hosts.back().get());
  }
  Fid fid{1, 2, 3};

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int h = 0; h < kHosts; ++h) {
    threads.emplace_back([&, h] {
      Rng rng(static_cast<uint64_t>(h) + 1);
      for (int round = 0; round < 40; ++round) {
        uint32_t types = rng.Chance(0.5) ? kTokenDataWrite : kTokenDataRead;
        uint64_t start = rng.Below(4) * 1000;
        auto token = mgr.Grant(static_cast<HostId>(h + 1), fid, types,
                               ByteRange{start, start + 1000});
        if (!token.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (rng.Chance(0.7)) {
          (void)mgr.Return(token->id, token->types);
        }
        // else: keep it; a future conflicting grant revokes it.
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);

  // Invariant: every surviving token is pairwise compatible with the others.
  auto tokens = mgr.TokensForFid(fid);
  for (size_t i = 0; i < tokens.size(); ++i) {
    for (size_t j = i + 1; j < tokens.size(); ++j) {
      if (tokens[i].host == tokens[j].host) {
        continue;
      }
      EXPECT_TRUE(TokensCompatible(tokens[i].types, tokens[i].range, tokens[j].types,
                                   tokens[j].range))
          << TokenTypesToString(tokens[i].types) << " vs "
          << TokenTypesToString(tokens[j].types);
    }
  }
}

TEST(TokenConcurrencyTest, UnregisterDuringGrantsIsSafe) {
  TokenManager mgr;
  SlowHost stable("stable");
  mgr.RegisterHost(1, &stable);
  Fid fid{1, 2, 3};

  std::atomic<bool> stop{false};
  std::thread churner([&] {
    SlowHost ephemeral("ephemeral");
    while (!stop.load()) {
      mgr.RegisterHost(2, &ephemeral);
      (void)mgr.Grant(2, fid, kTokenDataRead, ByteRange::All());
      mgr.UnregisterHost(2);
    }
  });
  for (int i = 0; i < 200; ++i) {
    auto t = mgr.Grant(1, fid, kTokenDataWrite, ByteRange::All());
    ASSERT_OK(t.status());
    // The churner's read grant may legitimately revoke this write token
    // between Grant and Return; only then may Return find nothing.
    Status s = mgr.Return(t->id, t->types);
    if (!s.ok()) {
      ASSERT_EQ(s.code(), ErrorCode::kNotFound) << s.ToString();
      ASSERT_TRUE(stable.WasRevoked(t->id)) << "token " << t->id << " vanished unrevoked";
    }
  }
  stop.store(true);
  churner.join();
  mgr.UnregisterHost(2);
  EXPECT_LE(mgr.TokensForFid(fid).size(), 1u);
}

TEST(TokenConcurrencyTest, ManyFilesManyHostsThroughput) {
  TokenManager mgr;
  constexpr int kHosts = 4;
  std::vector<std::unique_ptr<SlowHost>> hosts;
  for (int i = 0; i < kHosts; ++i) {
    hosts.push_back(std::make_unique<SlowHost>("h" + std::to_string(i)));
    mgr.RegisterHost(static_cast<HostId>(i + 1), hosts.back().get());
  }
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int h = 0; h < kHosts; ++h) {
    threads.emplace_back([&, h] {
      Rng rng(static_cast<uint64_t>(h) * 33 + 1);
      for (int i = 0; i < 300; ++i) {
        Fid fid{1, 1 + rng.Below(16), 1};
        auto t = mgr.Grant(static_cast<HostId>(h + 1), fid,
                           rng.Chance(0.3) ? kTokenStatusWrite : kTokenStatusRead,
                           ByteRange::All());
        if (!t.ok()) {
          errors.fetch_add(1);
        } else if (rng.Chance(0.9)) {
          (void)mgr.Return(t->id, t->types);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(mgr.stats().grants, 1000u);
}

// A host that defers every revocation (Section 6.3): Revoke answers
// kWouldBlock and a spawned thread completes the return a moment later, the
// way a client finishes its in-flight store before giving the token back.
class DeferringHost : public TokenHost {
 public:
  explicit DeferringHost(TokenManager* mgr) : mgr_(mgr) {}
  ~DeferringHost() { Join(); }

  Status Revoke(const Token& token, uint32_t types) override {
    std::lock_guard<std::mutex> l(mu_);
    returners_.emplace_back([this, id = token.id, types] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      (void)mgr_->Return(id, types);
    });
    ++deferrals;
    return Status(ErrorCode::kWouldBlock, "store in flight; will return");
  }
  std::string name() const override { return "deferring"; }

  void Join() {
    std::lock_guard<std::mutex> l(mu_);
    for (auto& t : returners_) {
      if (t.joinable()) {
        t.join();
      }
    }
    returners_.clear();
  }

  std::atomic<int> deferrals{0};

 private:
  TokenManager* mgr_;
  std::mutex mu_;
  std::vector<std::thread> returners_;
};

// A host that refuses every revocation (an open file in active use).
class RefusingHost : public TokenHost {
 public:
  Status Revoke(const Token&, uint32_t) override {
    ++refusals;
    return Status(ErrorCode::kBusy, "file is open");
  }
  std::string name() const override { return "refusing"; }
  std::atomic<int> refusals{0};
};

// Fan-out correctness: one conflicting write-open against a file cached by
// many hosts revokes every reader in one concurrent batch, and the stats
// account for the batch.
TEST(TokenConcurrencyTest, FanOutRevokesAllReadersInOneBatch) {
  TokenManager mgr;
  constexpr int kReaders = 16;
  std::vector<std::unique_ptr<SlowHost>> readers;
  Fid hot{1, 2, 3};
  for (int i = 0; i < kReaders; ++i) {
    readers.push_back(std::make_unique<SlowHost>("r" + std::to_string(i)));
    mgr.RegisterHost(static_cast<HostId>(i + 1), readers.back().get());
    ASSERT_OK(mgr.Grant(static_cast<HostId>(i + 1), hot, kTokenDataRead, ByteRange::All())
                  .status());
  }
  SlowHost writer("writer");
  mgr.RegisterHost(100, &writer);

  auto token = mgr.Grant(100, hot, kTokenDataWrite, ByteRange::All());
  ASSERT_OK(token.status());

  int revoked = 0;
  for (auto& r : readers) {
    revoked += r->revocations.load();
  }
  EXPECT_EQ(revoked, kReaders);
  auto left = mgr.TokensForFid(hot);
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0].host, 100u);

  TokenManager::Stats stats = mgr.stats();
  EXPECT_EQ(stats.revocations, static_cast<uint64_t>(kReaders));
  EXPECT_GE(stats.fanout_batches, 1u);
  EXPECT_EQ(stats.refusals, 0u);
}

// Deferred-return handling: every holder answers kWouldBlock; the grant waits
// on the shard's returned-condvar under one shared deadline and completes
// once the returns arrive.
TEST(TokenConcurrencyTest, DeferredReturnsSatisfyGrantUnderSharedDeadline) {
  TokenManager mgr;
  DeferringHost holders(&mgr);
  constexpr int kHolders = 8;
  Fid hot{1, 2, 3};
  for (int i = 0; i < kHolders; ++i) {
    mgr.RegisterHost(static_cast<HostId>(i + 1), &holders);
    ASSERT_OK(mgr.Grant(static_cast<HostId>(i + 1), hot, kTokenDataRead, ByteRange::All())
                  .status());
  }
  SlowHost writer("writer");
  mgr.RegisterHost(100, &writer);

  auto token = mgr.Grant(100, hot, kTokenDataWrite, ByteRange::All());
  ASSERT_OK(token.status());
  EXPECT_EQ(holders.deferrals.load(), kHolders);
  EXPECT_EQ(mgr.stats().deferred_returns, static_cast<uint64_t>(kHolders));
  EXPECT_EQ(mgr.TokensForFid(hot).size(), 1u);
  holders.Join();
}

// A dead holder that never completes its deferred return must not wedge the
// server: the shared deadline expires and the grant fails with kTimedOut.
TEST(TokenConcurrencyTest, DeadDeferralTimesOutUnderSharedDeadline) {
  TokenManager::Options opts;
  opts.deferred_return_timeout = std::chrono::milliseconds(50);
  TokenManager mgr(opts);
  struct GhostHost : TokenHost {
    Status Revoke(const Token&, uint32_t) override {
      return Status(ErrorCode::kWouldBlock, "will return (never does)");
    }
    std::string name() const override { return "ghost"; }
  } ghost;
  mgr.RegisterHost(1, &ghost);
  Fid hot{1, 2, 3};
  ASSERT_OK(mgr.Grant(1, hot, kTokenDataRead, ByteRange::All()).status());

  SlowHost writer("writer");
  mgr.RegisterHost(2, &writer);
  auto token = mgr.Grant(2, hot, kTokenDataWrite, ByteRange::All());
  EXPECT_EQ(token.status().code(), ErrorCode::kTimedOut);
}

// Refusal short-circuit: one refusing holder fails the whole grant with
// kConflict, but holders that did relinquish in the same fan-out round stay
// erased — the bookkeeping reflects what actually happened at the clients.
TEST(TokenConcurrencyTest, RefusalShortCircuitsGrantButKeepsStateConsistent) {
  TokenManager mgr;
  SlowHost yielding("yielding");
  RefusingHost refusing;
  mgr.RegisterHost(1, &yielding);
  mgr.RegisterHost(2, &refusing);
  Fid hot{1, 2, 3};
  ASSERT_OK(mgr.Grant(1, hot, kTokenDataRead, ByteRange::All()).status());
  ASSERT_OK(mgr.Grant(2, hot, kTokenDataRead, ByteRange::All()).status());

  SlowHost writer("writer");
  mgr.RegisterHost(3, &writer);
  auto token = mgr.Grant(3, hot, kTokenDataWrite, ByteRange::All());
  EXPECT_EQ(token.status().code(), ErrorCode::kConflict);
  EXPECT_GE(refusing.refusals.load(), 1);
  EXPECT_GE(mgr.stats().refusals, 1u);

  // The yielding host relinquished; only the refusing host's token survives.
  auto left = mgr.TokensForFid(hot);
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0].host, 2u);

  // A compatible request still succeeds against the surviving token.
  ASSERT_OK(mgr.Grant(3, hot, kTokenDataRead, ByteRange::All()).status());
}

// Disjoint volumes land on independent shards: parallel grant storms on
// different volumes proceed without conflicting (zero revocations) and the
// aggregated stats account for every grant.
TEST(TokenConcurrencyTest, DisjointVolumeGrantsRunInParallelAcrossShards) {
  TokenManager mgr;
  constexpr int kThreads = 8;
  constexpr int kGrantsPerThread = 200;
  std::vector<std::unique_ptr<SlowHost>> hosts;
  for (int i = 0; i < kThreads; ++i) {
    hosts.push_back(std::make_unique<SlowHost>("h" + std::to_string(i)));
    mgr.RegisterHost(static_cast<HostId>(i + 1), hosts.back().get());
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread owns one volume; no cross-thread conflicts exist.
      Fid fid{static_cast<uint64_t>(t + 1), 7, 9};
      for (int i = 0; i < kGrantsPerThread; ++i) {
        auto token = mgr.Grant(static_cast<HostId>(t + 1), fid, kTokenDataWrite,
                               ByteRange{static_cast<uint64_t>(i) * 10,
                                         static_cast<uint64_t>(i) * 10 + 10});
        if (!token.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (!mgr.Return(token->id, token->types).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  TokenManager::Stats stats = mgr.stats();
  EXPECT_EQ(stats.grants, static_cast<uint64_t>(kThreads) * kGrantsPerThread);
  EXPECT_EQ(stats.revocations, 0u);
  int revoked = 0;
  for (auto& h : hosts) {
    revoked += h->revocations.load();
  }
  EXPECT_EQ(revoked, 0);
}

// The serial ablation (revoke_fanout_threads = 0) reaches the same final
// state as the parallel fan-out; only the latency differs.
TEST(TokenConcurrencyTest, SerialAblationMatchesParallelOutcome) {
  TokenManager::Options opts;
  opts.revoke_fanout_threads = 0;
  TokenManager mgr(opts);
  constexpr int kReaders = 6;
  std::vector<std::unique_ptr<SlowHost>> readers;
  Fid hot{1, 2, 3};
  for (int i = 0; i < kReaders; ++i) {
    readers.push_back(std::make_unique<SlowHost>("r" + std::to_string(i)));
    mgr.RegisterHost(static_cast<HostId>(i + 1), readers.back().get());
    ASSERT_OK(mgr.Grant(static_cast<HostId>(i + 1), hot, kTokenDataRead, ByteRange::All())
                  .status());
  }
  SlowHost writer("writer");
  mgr.RegisterHost(100, &writer);
  ASSERT_OK(mgr.Grant(100, hot, kTokenDataWrite, ByteRange::All()).status());
  EXPECT_EQ(mgr.stats().revocations, static_cast<uint64_t>(kReaders));
  EXPECT_EQ(mgr.stats().fanout_batches, 0u);  // nothing went through the pool
  EXPECT_EQ(mgr.TokensForFid(hot).size(), 1u);
}

}  // namespace
}  // namespace dfs
