// Unit tests for typed tokens and the token manager: the Figure-3 open-mode
// matrix, byte-range conflicts, grant/revoke/return, whole-volume tokens,
// deferred returns, refusals, host teardown.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "src/common/rng.h"
#include "src/tokens/token_manager.h"
#include "tests/test_util.h"

namespace dfs {
namespace {

constexpr Fid kFileA{1, 2, 3};
constexpr Fid kFileB{1, 4, 5};
constexpr Fid kVolume{1, 0, 0};

// A host that answers revocations with a scripted status and records them.
class ScriptedHost : public TokenHost {
 public:
  explicit ScriptedHost(std::string name, Status answer = Status::Ok())
      : name_(std::move(name)), answer_(answer) {}

  Status Revoke(const Token& token, uint32_t types) override {
    std::lock_guard<std::mutex> lock(mu_);
    revoked_.push_back({token, types});
    return answer_;
  }
  std::string name() const override { return name_; }

  size_t revocations() const {
    std::lock_guard<std::mutex> lock(mu_);
    return revoked_.size();
  }
  void set_answer(Status s) { answer_ = s; }
  // The revocations recorded since the last call.
  std::vector<std::pair<Token, uint32_t>> TakeRevoked() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(revoked_, {});
  }

 private:
  std::string name_;
  Status answer_;
  mutable std::mutex mu_;
  std::vector<std::pair<Token, uint32_t>> revoked_;
};

// The shard that holds `volume`'s tokens, read off an id minted for it on a
// throwaway manager.
size_t ShardOfVolume(uint64_t volume) {
  TokenManager probe;
  auto t = probe.Grant(1, Fid{volume, 1, 1}, kTokenDataRead, ByteRange::All());
  EXPECT_TRUE(t.ok());
  return t.ok() ? t->id % TokenManager::kShards : TokenManager::kShards;
}

// --- Compatibility relation (Section 5.2 + Figure 3) ---

TEST(TokenCompatTest, DifferentTypesNeverConflict) {
  EXPECT_TRUE(TokensCompatible(kTokenDataRead, ByteRange::All(), kTokenStatusWrite,
                               ByteRange::All()));
  EXPECT_TRUE(TokensCompatible(kTokenLockWrite, ByteRange::All(), kTokenDataWrite,
                               ByteRange::All()));
  EXPECT_TRUE(TokensCompatible(kTokenOpenRead, ByteRange::All(), kTokenDataWrite,
                               ByteRange::All()));
}

TEST(TokenCompatTest, DataTokensConflictOnlyOnOverlap) {
  ByteRange lo{0, 100};
  ByteRange hi{100, 200};
  ByteRange mid{50, 150};
  EXPECT_TRUE(TokensCompatible(kTokenDataWrite, lo, kTokenDataWrite, hi));  // disjoint
  EXPECT_FALSE(TokensCompatible(kTokenDataWrite, lo, kTokenDataWrite, mid));
  EXPECT_FALSE(TokensCompatible(kTokenDataRead, lo, kTokenDataWrite, mid));
  EXPECT_TRUE(TokensCompatible(kTokenDataRead, lo, kTokenDataRead, lo));  // read/read
}

TEST(TokenCompatTest, StatusTokensIgnoreRanges) {
  ByteRange lo{0, 10};
  ByteRange hi{100, 200};
  EXPECT_FALSE(TokensCompatible(kTokenStatusWrite, lo, kTokenStatusRead, hi));
  EXPECT_FALSE(TokensCompatible(kTokenStatusWrite, lo, kTokenStatusWrite, hi));
  EXPECT_TRUE(TokensCompatible(kTokenStatusRead, lo, kTokenStatusRead, hi));
}

TEST(TokenCompatTest, LockTokensConflictOnOverlap) {
  ByteRange lo{0, 100};
  ByteRange hi{200, 300};
  EXPECT_TRUE(TokensCompatible(kTokenLockWrite, lo, kTokenLockWrite, hi));
  EXPECT_FALSE(TokensCompatible(kTokenLockWrite, lo, kTokenLockRead, lo));
}

// The reconstructed Figure 3, row by row.
TEST(TokenCompatTest, Figure3OpenMatrix) {
  struct Case {
    uint32_t a;
    uint32_t b;
    bool compatible;
  };
  const Case cases[] = {
      {kTokenOpenRead, kTokenOpenRead, true},
      {kTokenOpenRead, kTokenOpenWrite, true},  // UNIX allows read + write opens
      {kTokenOpenRead, kTokenOpenExecute, true},
      {kTokenOpenRead, kTokenOpenShared, true},
      {kTokenOpenRead, kTokenOpenExclusive, false},
      {kTokenOpenWrite, kTokenOpenWrite, true},
      {kTokenOpenWrite, kTokenOpenExecute, false},  // ETXTBSY both directions
      {kTokenOpenWrite, kTokenOpenShared, false},
      {kTokenOpenWrite, kTokenOpenExclusive, false},
      {kTokenOpenExecute, kTokenOpenExecute, true},
      {kTokenOpenExecute, kTokenOpenShared, true},
      {kTokenOpenExecute, kTokenOpenExclusive, false},
      {kTokenOpenShared, kTokenOpenShared, true},
      {kTokenOpenShared, kTokenOpenExclusive, false},
      {kTokenOpenExclusive, kTokenOpenExclusive, false},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(OpenModesCompatible(c.a, c.b), c.compatible)
        << TokenTypesToString(c.a) << " vs " << TokenTypesToString(c.b);
    EXPECT_EQ(OpenModesCompatible(c.b, c.a), c.compatible) << "matrix must be symmetric";
  }
}

TEST(TokenCompatTest, WholeVolumeConflictsWithWriteClass) {
  EXPECT_FALSE(TokensCompatible(kTokenWholeVolume, ByteRange::All(), kTokenDataWrite,
                                ByteRange{0, 10}));
  EXPECT_FALSE(TokensCompatible(kTokenStatusWrite, ByteRange::All(), kTokenWholeVolume,
                                ByteRange::All()));
  EXPECT_TRUE(TokensCompatible(kTokenWholeVolume, ByteRange::All(), kTokenDataRead,
                               ByteRange::All()));
}

// --- TokenManager ---

TEST(TokenManagerTest, GrantAndReturn) {
  TokenManager mgr;
  ScriptedHost h1("h1");
  mgr.RegisterHost(1, &h1);
  ASSERT_OK_AND_ASSIGN(Token t, mgr.Grant(1, kFileA, kTokenDataRead, ByteRange::All()));
  EXPECT_TRUE(mgr.HasToken(t.id));
  EXPECT_EQ(mgr.TokensForFid(kFileA).size(), 1u);
  ASSERT_OK(mgr.Return(t.id, t.types));
  EXPECT_FALSE(mgr.HasToken(t.id));
}

TEST(TokenManagerTest, CompatibleGrantsCoexist) {
  TokenManager mgr;
  ScriptedHost h1("h1"), h2("h2");
  mgr.RegisterHost(1, &h1);
  mgr.RegisterHost(2, &h2);
  ASSERT_OK(mgr.Grant(1, kFileA, kTokenDataRead, ByteRange::All()).status());
  ASSERT_OK(mgr.Grant(2, kFileA, kTokenDataRead, ByteRange::All()).status());
  EXPECT_EQ(h1.revocations(), 0u);
  EXPECT_EQ(mgr.TokensForFid(kFileA).size(), 2u);
}

TEST(TokenManagerTest, ConflictTriggersRevocation) {
  TokenManager mgr;
  ScriptedHost h1("h1"), h2("h2");
  mgr.RegisterHost(1, &h1);
  mgr.RegisterHost(2, &h2);
  ASSERT_OK_AND_ASSIGN(Token t1, mgr.Grant(1, kFileA, kTokenDataRead, ByteRange::All()));
  ASSERT_OK_AND_ASSIGN(Token t2, mgr.Grant(2, kFileA, kTokenDataWrite, ByteRange::All()));
  (void)t2;
  EXPECT_EQ(h1.revocations(), 1u);
  EXPECT_FALSE(mgr.HasToken(t1.id));  // revoked and erased
}

TEST(TokenManagerTest, SameHostNeverConflictsWithItself) {
  TokenManager mgr;
  ScriptedHost h1("h1");
  mgr.RegisterHost(1, &h1);
  ASSERT_OK(mgr.Grant(1, kFileA, kTokenDataRead, ByteRange::All()).status());
  ASSERT_OK(mgr.Grant(1, kFileA, kTokenDataWrite, ByteRange::All()).status());
  EXPECT_EQ(h1.revocations(), 0u);
}

TEST(TokenManagerTest, DisjointRangesNoRevocation) {
  TokenManager mgr;
  ScriptedHost h1("h1"), h2("h2");
  mgr.RegisterHost(1, &h1);
  mgr.RegisterHost(2, &h2);
  ASSERT_OK(mgr.Grant(1, kFileA, kTokenDataWrite, ByteRange{0, 4096}).status());
  ASSERT_OK(mgr.Grant(2, kFileA, kTokenDataWrite, ByteRange{4096, 8192}).status());
  EXPECT_EQ(h1.revocations(), 0u);
  EXPECT_EQ(mgr.TokensForFid(kFileA).size(), 2u);
}

TEST(TokenManagerTest, CoversByUnionOfOneHostsTokens) {
  TokenManager mgr;
  ScriptedHost h1("h1"), h2("h2");
  mgr.RegisterHost(1, &h1);
  mgr.RegisterHost(2, &h2);
  ASSERT_OK(mgr.Grant(1, kFileA, kTokenDataWrite, ByteRange{0, 4096}).status());
  ASSERT_OK(mgr.Grant(1, kFileA, kTokenDataRead | kTokenDataWrite, ByteRange{4096, 8192})
                .status());
  ASSERT_OK(mgr.Grant(2, kFileA, kTokenDataWrite, ByteRange{12288, 16384}).status());
  // Two adjacent grants cover a range neither contains alone.
  EXPECT_TRUE(mgr.Covers(1, kFileA, kTokenDataWrite, ByteRange{1000, 8192}));
  // Each type is covered on its own: data-read stops at the second grant.
  EXPECT_FALSE(mgr.Covers(1, kFileA, kTokenDataRead | kTokenDataWrite, ByteRange{0, 8192}));
  EXPECT_TRUE(mgr.Covers(1, kFileA, kTokenDataRead, ByteRange{4096, 8192}));
  // A gap, another host's grant, or another file does not count.
  EXPECT_FALSE(mgr.Covers(1, kFileA, kTokenDataWrite, ByteRange{0, 12288}));
  EXPECT_FALSE(mgr.Covers(1, kFileA, kTokenDataWrite, ByteRange{12288, 16384}));
  EXPECT_TRUE(mgr.Covers(2, kFileA, kTokenDataWrite, ByteRange{12288, 16384}));
  EXPECT_FALSE(mgr.Covers(1, kFileB, kTokenDataWrite, ByteRange{0, 4096}));
}

TEST(TokenManagerTest, TokensOnDifferentFilesIndependent) {
  TokenManager mgr;
  ScriptedHost h1("h1"), h2("h2");
  mgr.RegisterHost(1, &h1);
  mgr.RegisterHost(2, &h2);
  ASSERT_OK(mgr.Grant(1, kFileA, kTokenDataWrite, ByteRange::All()).status());
  ASSERT_OK(mgr.Grant(2, kFileB, kTokenDataWrite, ByteRange::All()).status());
  EXPECT_EQ(h1.revocations(), 0u);
}

TEST(TokenManagerTest, RefusedRevocationFailsGrant) {
  TokenManager mgr;
  ScriptedHost h1("h1", Status(ErrorCode::kBusy, "file open"));
  ScriptedHost h2("h2");
  mgr.RegisterHost(1, &h1);
  mgr.RegisterHost(2, &h2);
  ASSERT_OK_AND_ASSIGN(Token t1, mgr.Grant(1, kFileA, kTokenOpenWrite, ByteRange::All()));
  auto denied = mgr.Grant(2, kFileA, kTokenOpenExclusive, ByteRange::All());
  EXPECT_EQ(denied.code(), ErrorCode::kConflict);
  EXPECT_TRUE(mgr.HasToken(t1.id));  // holder kept it
  EXPECT_EQ(mgr.stats().refusals, 1u);
}

TEST(TokenManagerTest, DeferredReturnCompletesGrant) {
  TokenManager mgr;
  ScriptedHost h1("h1", Status(ErrorCode::kWouldBlock, "in-flight"));
  ScriptedHost h2("h2");
  mgr.RegisterHost(1, &h1);
  mgr.RegisterHost(2, &h2);
  ASSERT_OK_AND_ASSIGN(Token t1, mgr.Grant(1, kFileA, kTokenDataWrite, ByteRange::All()));
  // Return the token from another thread shortly after the revocation.
  std::thread returner([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    (void)mgr.Return(t1.id, t1.types);
  });
  ASSERT_OK_AND_ASSIGN(Token t2, mgr.Grant(2, kFileA, kTokenDataWrite, ByteRange::All()));
  returner.join();
  EXPECT_TRUE(mgr.HasToken(t2.id));
  EXPECT_FALSE(mgr.HasToken(t1.id));
  EXPECT_EQ(mgr.stats().deferred_returns, 1u);
}

TEST(TokenManagerTest, WholeVolumeTokenBlocksWritersOnAnyFile) {
  TokenManager mgr;
  ScriptedHost replica("replica"), writer("writer");
  mgr.RegisterHost(1, &replica);
  mgr.RegisterHost(2, &writer);
  ASSERT_OK_AND_ASSIGN(Token vt, mgr.Grant(1, kVolume, kTokenWholeVolume, ByteRange::All()));
  // A write grant on any file of volume 1 must first revoke the volume token.
  ASSERT_OK(mgr.Grant(2, kFileA, kTokenDataWrite, ByteRange::All()).status());
  EXPECT_EQ(replica.revocations(), 1u);
  EXPECT_FALSE(mgr.HasToken(vt.id));
  // Readers were never blocked.
  ASSERT_OK_AND_ASSIGN(Token vt2, mgr.Grant(1, kVolume, kTokenWholeVolume, ByteRange::All()));
  (void)vt2;
  EXPECT_EQ(writer.revocations(), 1u);  // volume grant revokes the writer now
}

TEST(TokenManagerTest, PartialReturnKeepsRemainingTypes) {
  TokenManager mgr;
  ScriptedHost h1("h1");
  mgr.RegisterHost(1, &h1);
  ASSERT_OK_AND_ASSIGN(Token t, mgr.Grant(1, kFileA, kTokenDataRead | kTokenStatusRead,
                                          ByteRange::All()));
  ASSERT_OK(mgr.Return(t.id, kTokenDataRead));
  EXPECT_TRUE(mgr.HasToken(t.id));
  auto tokens = mgr.TokensForFid(kFileA);
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].types, kTokenStatusRead);
  ASSERT_OK(mgr.Return(t.id, kTokenStatusRead));
  EXPECT_FALSE(mgr.HasToken(t.id));
}

TEST(TokenManagerTest, UnregisterHostDropsItsTokens) {
  TokenManager mgr;
  ScriptedHost h1("h1"), h2("h2");
  mgr.RegisterHost(1, &h1);
  mgr.RegisterHost(2, &h2);
  ASSERT_OK(mgr.Grant(1, kFileA, kTokenDataWrite, ByteRange::All()).status());
  mgr.UnregisterHost(1);
  // No revocation needed: the dead host's tokens are simply gone.
  ASSERT_OK(mgr.Grant(2, kFileA, kTokenDataWrite, ByteRange::All()).status());
  EXPECT_EQ(h1.revocations(), 0u);
}

TEST(TokenManagerTest, TokensForHostEnumerates) {
  TokenManager mgr;
  ScriptedHost h1("h1");
  mgr.RegisterHost(1, &h1);
  ASSERT_OK(mgr.Grant(1, kFileA, kTokenDataRead, ByteRange::All()).status());
  ASSERT_OK(mgr.Grant(1, kFileB, kTokenStatusRead, ByteRange::All()).status());
  EXPECT_EQ(mgr.TokensForHost(1).size(), 2u);
  EXPECT_EQ(mgr.TokensForHost(9).size(), 0u);
}

TEST(TokenManagerTest, EmptiedVolumeIndexEntriesArePruned) {
  // Regression: returning the last token of a volume used to leave an empty
  // vector in the volume index forever; across volume churn (create volume,
  // use it, move it away) those entries accumulated without bound.
  TokenManager mgr;
  ScriptedHost h1("h1");
  mgr.RegisterHost(1, &h1);
  std::vector<std::pair<TokenId, uint32_t>> granted;
  for (uint64_t vol = 1; vol <= 32; ++vol) {
    Fid fid{vol, 2, 3};
    auto t = mgr.Grant(1, fid, kTokenDataRead, ByteRange::All());
    ASSERT_OK(t.status());
    granted.push_back({t->id, t->types});
  }
  EXPECT_EQ(mgr.VolumeIndexEntries(), 32u);
  for (auto [id, types] : granted) {
    ASSERT_OK(mgr.Return(id, types));
  }
  EXPECT_EQ(mgr.VolumeIndexEntries(), 0u);

  // UnregisterHost prunes too.
  ASSERT_OK(mgr.Grant(1, Fid{77, 1, 1}, kTokenDataRead, ByteRange::All()).status());
  EXPECT_EQ(mgr.VolumeIndexEntries(), 1u);
  mgr.UnregisterHost(1);
  EXPECT_EQ(mgr.VolumeIndexEntries(), 0u);
}

// The per-file conflict index must find exactly what a scan of every live
// token finds. Random grants, returns, host teardowns and reassertions over a
// few fids of three volumes (including whole-volume tokens and plain tokens on
// the {volume, 0, 0} fid) are checked against a brute-force reference: each
// grant's revocations, each reassertion's verdict, and TokensForFid.
TEST(TokenManagerTest, ConflictIndexMatchesBruteForceScan) {
  constexpr HostId kHosts = 3;
  const std::vector<Fid> fids = {{1, 0, 0}, {1, 1, 1}, {1, 2, 1}, {1, 3, 1}, {2, 0, 0},
                                 {2, 1, 1}, {2, 2, 1}, {9, 0, 0}, {9, 1, 1}};
  // Volumes 1 and 9 share a shard, so whole-volume scans there must filter
  // the shard's files by volume; volume 2 lives in a shard of its own.
  ASSERT_EQ(ShardOfVolume(1), ShardOfVolume(9));
  ASSERT_NE(ShardOfVolume(1), ShardOfVolume(2));
  const std::vector<uint32_t> types = {
      kTokenDataRead,      kTokenDataWrite,  kTokenDataRead | kTokenStatusRead,
      kTokenStatusRead,    kTokenStatusWrite, kTokenDataWrite | kTokenStatusWrite,
      kTokenLockRead,      kTokenLockWrite,  kTokenOpenRead,
      kTokenOpenWrite,     kTokenOpenShared, kTokenOpenExclusive,
      kTokenWholeVolume,   kTokenWholeVolume | kTokenDataRead};
  const std::vector<ByteRange> ranges = {ByteRange::All(), {0, 4096}, {4096, 8192}, {0, 8192}};

  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    TokenManager mgr;
    std::vector<std::unique_ptr<ScriptedHost>> hosts;
    for (HostId h = 1; h <= kHosts; ++h) {
      hosts.push_back(std::make_unique<ScriptedHost>("h" + std::to_string(h)));
      mgr.RegisterHost(h, hosts.back().get());
    }
    std::map<TokenId, Token> live;  // the reference model
    std::vector<Token> dead;        // returned/revoked tokens, for reassertion

    auto expected_conflicts = [&](HostId host, const Fid& fid, uint32_t want,
                                  const ByteRange& range) {
      std::map<TokenId, uint32_t> out;
      for (const auto& [id, t] : live) {
        if (t.host == host || t.fid.volume != fid.volume) {
          continue;
        }
        bool volume_scope = ((t.types | want) & kTokenWholeVolume) != 0;
        if (t.fid != fid && !volume_scope) {
          continue;
        }
        uint32_t c = ConflictingTypes(t.types, t.range, want, range);
        if (c != 0) {
          out[id] = c;
        }
      }
      return out;
    };
    auto erase_types = [&](TokenId id, uint32_t gone) {
      Token& t = live.at(id);
      if ((t.types & ~gone) == 0) {
        dead.push_back(t);
        live.erase(id);
      } else {
        t.types &= ~gone;
      }
    };

    for (int step = 0; step < 400; ++step) {
      uint64_t op = rng.Below(10);
      if (op < 6 || live.empty()) {  // Grant
        HostId host = 1 + static_cast<HostId>(rng.Below(kHosts));
        Fid fid = fids[rng.Below(fids.size())];
        uint32_t want = types[rng.Below(types.size())];
        if ((want & kTokenWholeVolume) != 0) {
          fid = Fid{fid.volume, 0, 0};
        }
        ByteRange range = ranges[rng.Below(ranges.size())];
        auto expected = expected_conflicts(host, fid, want, range);
        auto granted = mgr.Grant(host, fid, want, range);
        ASSERT_OK(granted.status());
        std::map<TokenId, uint32_t> revoked;
        for (auto& h : hosts) {
          for (const auto& [token, gone] : h->TakeRevoked()) {
            ASSERT_EQ(revoked.count(token.id), 0u) << "token " << token.id << " revoked twice";
            revoked[token.id] = gone;
          }
        }
        ASSERT_EQ(revoked, expected) << "seed " << seed << " step " << step;
        for (const auto& [id, gone] : expected) {
          erase_types(id, gone);
        }
        live[granted->id] = *granted;
      } else if (op < 8) {  // Return some of a live token's types
        auto it = std::next(live.begin(), static_cast<long>(rng.Below(live.size())));
        uint32_t gone = it->second.types;
        if (rng.Chance(0.5)) {
          gone &= ~(gone & (gone - 1));  // just the lowest type bit
        }
        ASSERT_OK(mgr.Return(it->first, gone));
        erase_types(it->first, gone);
      } else if (op < 9) {  // Host teardown
        HostId host = 1 + static_cast<HostId>(rng.Below(kHosts));
        mgr.UnregisterHost(host);
        mgr.RegisterHost(host, hosts[host - 1].get());
        for (auto it = live.begin(); it != live.end();) {
          if (it->second.host == host) {
            dead.push_back(it->second);
            it = live.erase(it);
          } else {
            ++it;
          }
        }
      } else if (!dead.empty()) {  // Reassert a token that is gone
        size_t pick = rng.Below(dead.size());
        Token t = dead[pick];
        bool expect_ok = expected_conflicts(t.host, t.fid, t.types, t.range).empty();
        Status s = mgr.Reassert(t);
        ASSERT_EQ(s.ok(), expect_ok) << "seed " << seed << " step " << step << ": "
                                     << s.ToString();
        if (s.ok()) {
          live[t.id] = t;
          dead.erase(dead.begin() + static_cast<long>(pick));
        }
      }
      for (const Fid& fid : fids) {
        std::vector<TokenId> want_ids;
        for (const auto& [id, t] : live) {
          if (t.fid == fid) {
            want_ids.push_back(id);
          }
        }
        std::vector<TokenId> got_ids;
        for (const Token& t : mgr.TokensForFid(fid)) {
          got_ids.push_back(t.id);
        }
        ASSERT_EQ(got_ids, want_ids) << "seed " << seed << " step " << step;
      }
    }
  }
}

TEST(TokenManagerTest, ReturnAndHasTokenLockOneShard) {
  // A token id names its shard, so neither call probes the others.
  TokenManager mgr;
  ScriptedHost h1("h1");
  mgr.RegisterHost(1, &h1);
  std::vector<Token> granted;
  for (uint64_t volume = 1; volume <= 16; ++volume) {
    ASSERT_OK_AND_ASSIGN(Token t, mgr.Grant(1, Fid{volume, 2, 3}, kTokenDataRead,
                                            ByteRange::All()));
    granted.push_back(t);
  }
  for (const Token& t : granted) {
    uint64_t before = mgr.stats().lock_acquisitions;
    EXPECT_TRUE(mgr.HasToken(t.id));
    uint64_t after_has = mgr.stats().lock_acquisitions;
    EXPECT_EQ(after_has - before, 1u) << "HasToken on volume " << t.fid.volume;
    ASSERT_OK(mgr.Return(t.id, t.types));
    EXPECT_EQ(mgr.stats().lock_acquisitions - after_has, 1u)
        << "Return on volume " << t.fid.volume;
  }
}

TEST(TokenManagerTest, ReassertRejectsAnIdLiveOnAnotherVolume) {
  // An id live on volume A, reasserted by another host for volume B in a
  // different shard, would otherwise give two tokens one id.
  constexpr uint64_t kVolA = 1;
  constexpr uint64_t kVolB = 2;
  ASSERT_NE(ShardOfVolume(kVolA), ShardOfVolume(kVolB));
  TokenManager mgr;
  ScriptedHost h1("h1");
  ScriptedHost h2("h2");
  mgr.RegisterHost(1, &h1);
  mgr.RegisterHost(2, &h2);
  ASSERT_OK_AND_ASSIGN(Token a, mgr.Grant(1, Fid{kVolA, 2, 3}, kTokenDataRead,
                                          ByteRange::All()));
  Token b;
  b.id = a.id;
  b.fid = Fid{kVolB, 2, 3};
  b.types = kTokenDataWrite;
  b.range = ByteRange::All();
  b.host = 2;
  EXPECT_EQ(mgr.Reassert(b).code(), ErrorCode::kConflict);
  EXPECT_EQ(mgr.stats().reassert_conflicts, 1u);
  EXPECT_TRUE(mgr.TokensForFid(b.fid).empty());

  // Returning B's types leaves A's token whole.
  ASSERT_OK(mgr.Return(b.id, b.types));
  std::vector<Token> held = mgr.TokensForFid(a.fid);
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0].id, a.id);
  EXPECT_EQ(held[0].types, a.types);
  EXPECT_TRUE(mgr.HasToken(a.id));
}

TEST(TokenManagerTest, LeaseFastPathGrantsWithoutRevocationCallbacks) {
  // Every conflicting holder is lease-expired: the conflict scan reaps their
  // tokens in place and mints in the same lock hold — no Revoke callback, no
  // fan-out round.
  TokenManager::Options opts;
  opts.host_silent = [](HostId host) { return host == 1; };
  TokenManager mgr(opts);
  ScriptedHost dead("dead");
  ScriptedHost live("live");
  mgr.RegisterHost(1, &dead);
  mgr.RegisterHost(2, &live);

  ASSERT_OK(mgr.Grant(1, kFileA, kTokenDataWrite, ByteRange::All()).status());
  ASSERT_OK(mgr.Grant(2, kFileA, kTokenDataWrite, ByteRange::All()).status());
  EXPECT_EQ(dead.revocations(), 0u) << "expired holder must not be called back";
  TokenManager::Stats stats = mgr.stats();
  EXPECT_EQ(stats.lease_fast_path_grants, 1u);
  EXPECT_EQ(stats.lease_expired_drops, 1u);
  EXPECT_EQ(stats.revocations, 0u);
}

TEST(TokenManagerTest, LeaseFastPathRequiresAllConflictsExpired) {
  // One live holder in the conflict set forces the normal fan-out round; only
  // an all-expired set takes the fast path.
  TokenManager::Options opts;
  opts.host_silent = [](HostId host) { return host == 1; };
  TokenManager mgr(opts);
  ScriptedHost dead("dead");
  ScriptedHost live("live");
  ScriptedHost taker("taker");
  mgr.RegisterHost(1, &dead);
  mgr.RegisterHost(2, &live);
  mgr.RegisterHost(3, &taker);

  ASSERT_OK(mgr.Grant(1, kFileA, kTokenDataRead, ByteRange::All()).status());
  ASSERT_OK(mgr.Grant(2, kFileA, kTokenDataRead, ByteRange::All()).status());
  ASSERT_OK(mgr.Grant(3, kFileA, kTokenDataWrite, ByteRange::All()).status());
  EXPECT_EQ(live.revocations(), 1u);
  EXPECT_EQ(dead.revocations(), 0u);  // expired: dropped in the round, not called
  TokenManager::Stats stats = mgr.stats();
  EXPECT_EQ(stats.lease_fast_path_grants, 0u);
  EXPECT_EQ(stats.lease_expired_drops, 1u);
}

TEST(TokenTest, SerializationRoundTrip) {
  Token t;
  t.id = 42;
  t.fid = kFileA;
  t.types = kTokenDataWrite | kTokenStatusRead;
  t.range = ByteRange{100, 9000};
  t.host = 7;
  Writer w;
  t.Serialize(w);
  Reader r(w.data());
  auto back = Token::Deserialize(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->id, t.id);
  EXPECT_EQ(back->fid, t.fid);
  EXPECT_EQ(back->types, t.types);
  EXPECT_EQ(back->range, t.range);
  EXPECT_EQ(back->host, t.host);
}

}  // namespace
}  // namespace dfs
