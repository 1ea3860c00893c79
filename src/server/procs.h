// RPC procedure numbers and shared wire helpers for the DEcorum protocol.
#ifndef SRC_SERVER_PROCS_H_
#define SRC_SERVER_PROCS_H_

#include <cstdint>

#include "src/common/codec.h"
#include "src/vfs/types.h"
#include "src/vfs/wire.h"

namespace dfs {

// Client -> file server (the protocol exporter interface, Section 3.5).
enum Proc : uint32_t {
  kConnect = 1,       // ticket -> host registration
  kGetRoot = 2,       // volume id -> root fid + attr
  kFetchStatus = 3,   // fid, wanted token types -> token + attr + stamp
  kFetchData = 4,     // fid, range, wanted types -> token + attr + stamp + data
  kStoreData = 5,     // fid, offset, bytes [, flags] -> attr + stamp
  kStoreStatus = 6,   // fid, attr update -> attr + stamp
  kTruncate = 7,      // fid, new size -> attr + stamp
  kGetToken = 8,      // fid, types, range -> token + stamp
  kReturnToken = 9,   // token id, types
  kLookup = 10,       // dir fid, name -> child fid + attr + dir stamp
  kCreate = 11,       // dir fid, name, type, mode -> child + dir attr + stamps
  kSymlink = 12,      // dir fid, name, target
  kRemove = 13,       // dir fid, name -> dir attr + stamp
  kRemoveDir = 14,
  kRename = 15,       // src dir fid, name, dst dir fid, name
  kLink = 16,         // dir fid, name, target fid
  kReadDir = 17,      // dir fid -> entries + attr + stamp
  kReadlink = 18,     // fid -> target
  kGetAcl = 19,
  kSetAcl = 20,
  kSetLock = 21,      // fid, range, exclusive, owner
  kClearLock = 22,
  // Special store issued only by token-revocation code (Section 6.4): runs on
  // the dedicated pool and takes only the server I/O lock.
  kRevocationStore = 23,
  // Forces the volume's physical file system to make recent metadata durable
  // (an Episode log flush). fsync sends it only when it stored nothing or a
  // revocation store-back of the file (which forces nothing) ran during it;
  // otherwise its own stores forced the log (kStoreFlagForceLog).
  kSyncVolume = 24,
  // Recovery protocol: after a server restart, each surviving client sends
  // one batched reassertion of every token it still holds from the old
  // incarnation; admitted during the grace period (unlike data RPCs).
  kReassertTokens = 25,  // count + tokens -> epoch + per-token verdicts
  // Lease renewal when the client has nothing else to say; reply carries the
  // server's current epoch so restarts are detected between data RPCs.
  kKeepAlive = 26,

  // Volume server interface (Section 3.6).
  kVolList = 40,
  kVolGetInfo = 41,
  kVolClone = 42,
  kVolDump = 43,      // volume id, since version -> serialized dump
  kVolRestore = 44,   // serialized dump -> new volume id (and export refresh)
  kVolDelete = 45,
  kVolSetBusy = 46,

  // File server -> client cache manager.
  kRevokeToken = 100,  // token, types, stamp -> {0 returned, 1 deferred, 2 refused}
  kRevokeTokenBatch = 101,  // count + (token, types, stamp)* -> count + verdicts

  // Volume location database (Section 3.4).
  kVldbRegister = 200,  // volume id, name, server node
  kVldbLookupById = 201,
  kVldbLookupByName = 202,
  kVldbRemove = 203,
};

// kFetchData trailing flags byte (optional on the wire; absent means 0).
// Token-only grant: serve the token + sync info but no data bytes — the
// caller is about to overwrite the entire requested range, so fetching the
// bytes it will clobber would be pure network waste.
inline constexpr uint8_t kFetchFlagTokenOnly = 0x1;

// kStoreData / kRevocationStore trailing flags byte, after the last part
// (optional on the wire; absent means 0).
// Force the log: once the store is applied and the file's locks are released,
// the server forces the volume's log (what kSyncVolume does) before it
// answers. A flagged store's success means its data reached the server and
// every commit up to it is durable, so an fsync whose stores all carried the
// flag, with no unflagged store-back of the file in between, needs no
// kSyncVolume round trip.
inline constexpr uint8_t kStoreFlagForceLog = 0x1;

// Revocation reply codes.
inline constexpr uint8_t kRevokeReturned = 0;
inline constexpr uint8_t kRevokeDeferred = 1;
inline constexpr uint8_t kRevokeRefused = 2;

// Per-file serialization timestamp header present in every fid-op reply
// (Section 6.2): attr + the server-assigned stamp for this operation.
struct SyncInfo {
  FileAttr attr;
  uint64_t stamp = 0;
};

inline void PutSyncInfo(Writer& w, const SyncInfo& s) {
  PutAttr(w, s.attr);
  w.PutU64(s.stamp);
}

inline Result<SyncInfo> ReadSyncInfo(Reader& r) {
  SyncInfo s;
  ASSIGN_OR_RETURN(s.attr, ReadAttr(r));
  ASSIGN_OR_RETURN(s.stamp, r.ReadU64());
  return s;
}

inline void PutAttrUpdate(Writer& w, const AttrUpdate& u) {
  auto put_opt32 = [&w](const std::optional<uint32_t>& v) {
    w.PutBool(v.has_value());
    w.PutU32(v.value_or(0));
  };
  auto put_opt64 = [&w](const std::optional<uint64_t>& v) {
    w.PutBool(v.has_value());
    w.PutU64(v.value_or(0));
  };
  put_opt32(u.mode);
  put_opt32(u.uid);
  put_opt32(u.gid);
  put_opt64(u.mtime);
  put_opt64(u.atime);
}

inline Result<AttrUpdate> ReadAttrUpdate(Reader& r) {
  AttrUpdate u;
  auto read_opt32 = [&r](std::optional<uint32_t>& v) -> Status {
    ASSIGN_OR_RETURN(bool has, r.ReadBool());
    ASSIGN_OR_RETURN(uint32_t raw, r.ReadU32());
    if (has) {
      v = raw;
    }
    return Status::Ok();
  };
  auto read_opt64 = [&r](std::optional<uint64_t>& v) -> Status {
    ASSIGN_OR_RETURN(bool has, r.ReadBool());
    ASSIGN_OR_RETURN(uint64_t raw, r.ReadU64());
    if (has) {
      v = raw;
    }
    return Status::Ok();
  };
  RETURN_IF_ERROR(read_opt32(u.mode));
  RETURN_IF_ERROR(read_opt32(u.uid));
  RETURN_IF_ERROR(read_opt32(u.gid));
  RETURN_IF_ERROR(read_opt64(u.mtime));
  RETURN_IF_ERROR(read_opt64(u.atime));
  return u;
}

// Errors travel as a status byte + code + message so RPC-level failures are
// distinguishable from application-level ones.
inline WireMessage EncodeErrorReply(const Status& s) {
  Writer w;
  w.PutU8(0);
  w.PutU16(static_cast<uint16_t>(s.code()));
  w.PutString(std::string(s.message()));
  return WireMessage(w.Take());
}

// Prepends the ok byte to the body's head; any scatter-gather segments ride
// along untouched (their offsets shift with the head).
inline WireMessage EncodeOkReply(Writer&& body) {
  WireMessage m = body.TakeMessage();
  m.head.insert(m.head.begin(), 1);
  for (WireMessage::Segment& seg : m.segments) {
    seg.offset += 1;
  }
  return m;
}

// Client-side: unwraps the status byte; returns a Reader-able payload.
Result<WireMessage> UnwrapReply(Result<WireMessage> raw);

}  // namespace dfs

#endif  // SRC_SERVER_PROCS_H_
