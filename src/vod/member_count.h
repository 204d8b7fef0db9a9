// Member count of an aggregate, for the guards of the one-row-per-member
// tables (kMetricFields in vod/metrics.h, kConfigKnobs in
// vod/config_knobs.h): a table with as many rows as its struct has
// members, and no member in two rows, covers every member.

#ifndef SPIFFI_VOD_MEMBER_COUNT_H_
#define SPIFFI_VOD_MEMBER_COUNT_H_

#include <cstddef>

namespace spiffi::vod {

namespace member_count_internal {

// Converts to any member type; only ever named in unevaluated contexts.
struct AnyMember {
  template <typename T>
  operator T() const;
};

}  // namespace member_count_internal

// Number of members of the aggregate T: the longest brace-initializer
// list T accepts. A member that is itself an aggregate counts once.
template <typename T, typename... Members>
constexpr std::size_t CountMembers(Members... members) {
  if constexpr (requires {
                  T{members..., member_count_internal::AnyMember{}};
                }) {
    return CountMembers<T>(members..., member_count_internal::AnyMember{});
  } else {
    return sizeof...(Members);
  }
}

}  // namespace spiffi::vod

#endif  // SPIFFI_VOD_MEMBER_COUNT_H_
