// Typed tokens (Section 5): guarantees the file server makes to clients about
// what operations they may perform locally.
//
// Token types and their compatibility rules, straight from Section 5.2:
//  - Data read/write tokens cover a byte range; read vs. write (and write vs.
//    write) conflict only when the ranges overlap.
//  - Status read/write tokens: read vs. write and write vs. write conflict.
//  - Lock read/write tokens cover a byte range, same overlap rule.
//  - Open tokens come in five modes (normal read, normal write, execute,
//    shared read, exclusive write) with the Figure-3 compatibility matrix.
//  - Tokens of different types never conflict (they guard separate components
//    of the file).
//  - A whole-volume token (used by the replication server, Section 3.8)
//    conflicts with any write-class token on any file in the volume.
//
// Tokens held by the same host never conflict with each other: the host's own
// internal locking serializes its operations.
#ifndef SRC_TOKENS_TOKEN_H_
#define SRC_TOKENS_TOKEN_H_

#include <cstdint>
#include <string>

#include "src/common/codec.h"
#include "src/vfs/types.h"

namespace dfs {

using TokenId = uint64_t;
using HostId = uint32_t;

// Token type bits.
inline constexpr uint32_t kTokenDataRead = 1u << 0;
inline constexpr uint32_t kTokenDataWrite = 1u << 1;
inline constexpr uint32_t kTokenStatusRead = 1u << 2;
inline constexpr uint32_t kTokenStatusWrite = 1u << 3;
inline constexpr uint32_t kTokenLockRead = 1u << 4;
inline constexpr uint32_t kTokenLockWrite = 1u << 5;
inline constexpr uint32_t kTokenOpenRead = 1u << 6;
inline constexpr uint32_t kTokenOpenWrite = 1u << 7;
inline constexpr uint32_t kTokenOpenExecute = 1u << 8;
inline constexpr uint32_t kTokenOpenShared = 1u << 9;
inline constexpr uint32_t kTokenOpenExclusive = 1u << 10;
inline constexpr uint32_t kTokenWholeVolume = 1u << 11;

inline constexpr uint32_t kTokenOpenMask = kTokenOpenRead | kTokenOpenWrite |
                                           kTokenOpenExecute | kTokenOpenShared |
                                           kTokenOpenExclusive;
// Types that imply modification; these conflict with whole-volume tokens.
inline constexpr uint32_t kTokenWriteClassMask =
    kTokenDataWrite | kTokenStatusWrite | kTokenLockWrite | kTokenOpenWrite |
    kTokenOpenExclusive;

std::string TokenTypesToString(uint32_t types);

// Half-open byte range [start, end). kMaxRange covers the whole file.
struct ByteRange {
  uint64_t start = 0;
  uint64_t end = UINT64_MAX;

  bool Overlaps(const ByteRange& o) const { return start < o.end && o.start < end; }
  bool Contains(const ByteRange& o) const { return start <= o.start && o.end <= end; }
  bool operator==(const ByteRange&) const = default;

  static ByteRange All() { return ByteRange{0, UINT64_MAX}; }
};

struct Token {
  TokenId id = 0;
  Fid fid;  // for whole-volume tokens: {volume, 0, 0}
  uint32_t types = 0;
  ByteRange range = ByteRange::All();
  HostId host = 0;

  void Serialize(Writer& w) const;
  static Result<Token> Deserialize(Reader& r);
};

// Coverage by union: true when the tokens `for_each` offers cover `range`
// together, however they split it. `for_each(extend)` calls `extend(token)`
// for every candidate token; extend returns true when that token pushed the
// covered prefix further. The sweep runs from range.start through whichever
// token reaches furthest, so it is quadratic in the candidates — a handful
// per file, because clients match held tokens before asking for new ones.
template <typename ForEach>
bool CoveredByUnion(const ByteRange& range, ForEach&& for_each) {
  uint64_t reached = range.start;
  bool progressed = true;
  while (reached < range.end && progressed) {
    progressed = false;
    for_each([&](const Token& t) {
      if (t.range.start <= reached && t.range.end > reached) {
        reached = t.range.end;
        progressed = true;
        return true;
      }
      return false;
    });
  }
  return reached >= range.end;
}

// Figure 3: may two different clients hold these open modes simultaneously?
// Reconstructed from the Section 5.2/5.4 semantics (UNIX allows concurrent
// read/write opens; writing a file open for execution is forbidden; shared
// read excludes writers; exclusive write excludes everyone).
bool OpenModesCompatible(uint32_t mode_a, uint32_t mode_b);

// The subset of `held` types that conflict with a proposed grant of `req`
// over `req_range`. Revoking exactly these (and no more) lets a client keep
// e.g. its byte-range data tokens when only its status token conflicts.
uint32_t ConflictingTypes(uint32_t held, const ByteRange& held_range, uint32_t req,
                          const ByteRange& req_range);

// Full compatibility relation between two token grants (different hosts).
bool TokensCompatible(uint32_t types_a, const ByteRange& range_a, uint32_t types_b,
                      const ByteRange& range_b);

}  // namespace dfs

#endif  // SRC_TOKENS_TOKEN_H_
