#include "engine/artifact_types.hpp"

#include <memory>
#include <string>

#include "util/weight.hpp"

namespace wharf {

namespace {

/// Heap bytes `value` keeps resident beyond its own sizeof.
template <typename T>
std::size_t heap_walk(const T& value) {
  if constexpr (std::is_trivially_copyable_v<T>) {
    return 0;
  } else if constexpr (std::is_same_v<T, std::string>) {
    return util::heap_bytes(value);
  } else if constexpr (std::is_same_v<T, std::shared_ptr<const ArrivalTable>>) {
    return value ? sizeof(ArrivalTable) + value->heap_bytes() : 0;
  } else if constexpr (requires { value.has_value(); }) {
    return value.has_value() ? heap_walk(*value) : 0;
  } else if constexpr (requires { value.size(); }) {
    if constexpr (std::is_trivially_copyable_v<typename T::value_type>) {
      return util::heap_bytes(value);
    } else {
      std::size_t total = 0;
      for (const auto& element : value) total += sizeof(element) + heap_walk(element);
      return total;
    }
  } else {
    std::size_t total = 0;
    for_each_field(value, [&](const auto& member) { total += heap_walk(member); });
    return total;
  }
}

}  // namespace

template <typename T>
std::size_t weight_of(const T& artifact) {
  return sizeof(T) + heap_walk(artifact);
}

template std::size_t weight_of(const InterferenceContext&);
template std::size_t weight_of(const LatencyResult&);
template std::size_t weight_of(const TargetArtifacts&);
template std::size_t weight_of(const DmmResult&);
template std::size_t weight_of(const ilp::PackingSolution&);

}  // namespace wharf
