/// \file weight.hpp
/// Byte-weight traits for cache accounting.
///
/// The ArtifactStore admits and evicts by artifact *weight* — the number
/// of bytes an artifact keeps resident — instead of a flat entry count.
/// These helpers measure the common shapes: heap_bytes() returns the
/// heap-owned excess of a value (0 for trivially copyable types), and
/// byte_weight() adds the object itself.  Stage artifacts compose their
/// weight as sizeof(artifact) plus the heap_bytes of each member, one
/// walk over the field list of engine/artifact_types.hpp reaching the
/// nested members.  Weights are estimates (allocator overhead is
/// ignored); what matters is that they are deterministic and
/// proportional to real memory use, so a byte budget bounds residency
/// and eviction order is reproducible.

#ifndef WHARF_UTIL_WEIGHT_HPP
#define WHARF_UTIL_WEIGHT_HPP

#include <cstddef>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace wharf::util {

/// Heap excess of a trivially copyable value: none.
template <typename T, typename = std::enable_if_t<std::is_trivially_copyable_v<T>>>
[[nodiscard]] constexpr std::size_t heap_bytes(const T&) noexcept {
  return 0;
}

/// Heap excess of a string: its character buffer.
[[nodiscard]] inline std::size_t heap_bytes(const std::string& s) noexcept {
  return s.capacity();
}

/// Heap excess of a vector of trivially copyable elements: its buffer.
template <typename T, typename = std::enable_if_t<std::is_trivially_copyable_v<T>>>
[[nodiscard]] std::size_t heap_bytes(const std::vector<T>& v) noexcept {
  return v.capacity() * sizeof(T);
}

/// Heap excess of an engaged optional: that of its value.
template <typename T>
[[nodiscard]] std::size_t heap_bytes(const std::optional<T>& o) {
  return o.has_value() ? heap_bytes(*o) : 0;
}

/// Total weight of a value: the object plus its heap excess.
template <typename T>
[[nodiscard]] std::size_t byte_weight(const T& value) {
  return sizeof(T) + heap_bytes(value);
}

}  // namespace wharf::util

#endif  // WHARF_UTIL_WEIGHT_HPP
