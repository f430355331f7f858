// Deterministic integer mixing + shard routing.
//
// Mix64 is the SplitMix64 finalizer: one well-mixed word from one input word,
// with no RNG state to carry. It backs shard routing (ShardOfKey): which
// shard owns a template/cluster key, a pure function so tests can recompute
// it exactly. Changing these constants silently re-routes every persisted
// shard — treat them as part of the on-disk format.

#pragma once

#include <cstddef>
#include <cstdint>

namespace dbaugur {

/// SplitMix64 finalizer (Steele/Lea/Flood). Bijective on uint64_t.
inline uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The shard owning `key` among `shard_count` shards. Deterministic across
/// runs, hosts, and save/load; mixing first means sequential template ids
/// spread uniformly instead of striping (id % N would put every hot
/// low-numbered template on the same few shards under skewed id assignment).
/// shard_count must be >= 1 (callers validate; a 0 count would divide by 0).
inline size_t ShardOfKey(uint64_t key, size_t shard_count) {
  return static_cast<size_t>(Mix64(key) % static_cast<uint64_t>(shard_count));
}

}  // namespace dbaugur
