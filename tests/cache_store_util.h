// Byte-buffer access to the slice-only CacheStore interface, for store tests
// that fill and compare plain byte vectors.
#ifndef TESTS_CACHE_STORE_UTIL_H_
#define TESTS_CACHE_STORE_UTIL_H_

#include <cstring>
#include <span>

#include "src/client/cache_store.h"

namespace dfs {

// Stores a private copy of `data` as the block.
inline Status PutBytes(CacheStore& store, const Fid& fid, uint64_t block,
                       std::span<const uint8_t> data) {
  return store.PutSlice(fid, block, BufferSlice::CopyOf(data));
}

// Fills `out` with the block's first out.size() bytes (zero-padded past the
// stored length); kNotFound when the block is absent.
inline Status GetBytes(CacheStore& store, const Fid& fid, uint64_t block,
                       std::span<uint8_t> out) {
  ASSIGN_OR_RETURN(BufferSlice slice, store.GetSlice(fid, block, out.size()));
  std::memcpy(out.data(), slice.data(), slice.size());
  return Status::Ok();
}

}  // namespace dfs

#endif  // TESTS_CACHE_STORE_UTIL_H_
