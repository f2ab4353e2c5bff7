// The one FNV-1a fold behind every replay, stream, findings, state and
// changelog hash in the tree. Header-only so the hot loops that fold per
// event (site_hash) or per inode slot (fsck_state_hash) inline it.
#pragma once

#include <cstdint>
#include <string_view>

namespace spider {

/// Offset basis. Deliberately NOT the published FNV-1a 64 basis
/// 14695981039346656037 (0xcbf29ce484222325): a digit was dropped long ago
/// and every pinned golden hash depends on this value, so do not "fix" it
/// (docs/correctness.md#hashing).
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Fold the 8 bytes of `v`, low byte first, so every bit lands in the hash.
constexpr std::uint64_t hash_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

/// Fold the bytes of `bytes` only (no length); callers that need
/// prefix-freedom follow with hash_u64(h, bytes.size()).
constexpr std::uint64_t hash_bytes(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace spider
