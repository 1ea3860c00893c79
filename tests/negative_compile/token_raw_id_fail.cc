// MUST NOT COMPILE: the pre-capability WAL API took a raw TxnId, so any
// integer — stale, guessed, or from an already-finished transaction — could
// drive Commit. The token API must reject a raw id at the call site.
#include "src/wal/wal.h"

namespace dfs {

Status CommitRawId(Wal& wal) { return wal.Commit(7); }

}  // namespace dfs
