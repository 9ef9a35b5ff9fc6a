/// \file hash.hpp
/// 64-bit FNV-1a over byte strings: the whole-model fingerprint surfaced
/// in report diagnostics (ReportDiagnostics::system_hash).  Artifact
/// store keys are 128-bit SipHash digests instead (core/model_slice.hpp).

#ifndef WHARF_UTIL_HASH_HPP
#define WHARF_UTIL_HASH_HPP

#include <cstdint>
#include <string_view>

namespace wharf::util {

/// 64-bit FNV-1a over a byte string.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace wharf::util

#endif  // WHARF_UTIL_HASH_HPP
