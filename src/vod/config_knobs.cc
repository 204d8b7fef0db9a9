#include "vod/config_knobs.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>

namespace spiffi::vod {

namespace {

using Script = std::vector<fault::FaultAction>;

// A number's canonical text: integers exactly, doubles with "%.17g"
// (which reads back to the same double).
template <typename T>
std::string NumberText(T value) {
  char buf[32];
  if constexpr (std::is_floating_point_v<T>) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  } else if constexpr (std::is_unsigned_v<T>) {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  }
  return buf;
}

// Reads all of `text` as a T: no junk before or after, in T's range, and
// finite for doubles.
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(*out);
  return true;
}

// Position of `name` in `names`, or -1.
int NameIndex(std::span<const char* const> names, std::string_view name) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (name == names[i]) return static_cast<int>(i);
  }
  return -1;
}

// Comma-separated `time:kind:target:factor` actions; "" is no action.
bool ParseScript(std::string_view text, Script* script) {
  while (!text.empty()) {
    const std::size_t comma = text.find(',');
    std::string_view rest = text.substr(0, comma);
    std::string_view fields[4];
    for (int i = 0; i < 3; ++i) {
      const std::size_t colon = rest.find(':');
      if (colon == std::string_view::npos) return false;
      fields[i] = rest.substr(0, colon);
      rest.remove_prefix(colon + 1);
    }
    fields[3] = rest;
    fault::FaultAction action;
    const int kind = NameIndex(fault::kFaultKindNames, fields[1]);
    if (kind < 0 || !ParseNumber(fields[0], &action.time) ||
        !ParseNumber(fields[2], &action.target) ||
        !ParseNumber(fields[3], &action.factor)) {
      return false;
    }
    action.kind = static_cast<fault::FaultKind>(kind);
    script->push_back(action);
    if (comma == std::string_view::npos) break;
    text.remove_prefix(comma + 1);
    if (text.empty()) return false;  // a trailing comma
  }
  return true;
}

}  // namespace

std::uint64_t ConfigDigest(const SimConfig& config) {
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a, 64-bit
  auto leaf = [&hash](const std::string& text) {
    for (char c : text + '|') {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ULL;
    }
  };
  for (const ConfigKnob& knob : kConfigKnobs) {
    std::visit(
        [&](auto get) {
          const auto& value = get(config);
          using T = std::remove_cvref_t<decltype(value)>;
          if constexpr (std::is_same_v<T, Script>) {
            leaf(NumberText<std::int64_t>(value.size()));
            for (const fault::FaultAction& a : value) {
              leaf(NumberText(a.time));
              leaf(NumberText(static_cast<int>(a.kind)));
              leaf(NumberText(a.target));
              leaf(NumberText(a.factor));
            }
          } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>) {
            leaf(NumberText(static_cast<int>(value)));
          } else {
            leaf(NumberText(value));
          }
        },
        knob.get);
  }
  return hash;
}

std::string KnobBoundError(const SimConfig& config) {
  for (const ConfigKnob& knob : kConfigKnobs) {
    const KnobBound& bound = knob.bound;
    const double value = std::visit(
        [&config](auto get) {
          using T = std::remove_cvref_t<decltype(get(config))>;
          if constexpr (std::is_arithmetic_v<T>) {
            return static_cast<double>(get(config));
          } else {
            return 0.0;  // bounds are only declared on numeric knobs
          }
        },
        knob.get);
    // Each test is written so that NaN, which fails every comparison,
    // fails the bound.
    const std::string key = knob.key;
    if (bound.kind == KnobBound::kNonNegative && !(value >= 0.0)) {
      return key + " must be non-negative";
    }
    if (bound.kind == KnobBound::kPositive && !(value > 0.0)) {
      return key + " must be positive";
    }
    if (bound.kind == KnobBound::kRange &&
        !(value >= bound.lo && value <= bound.hi)) {
      return key + " must be in [" + NumberText(bound.lo) + ", " +
             NumberText(bound.hi) + "]";
    }
  }
  return "";
}

std::string FormatConfig(const SimConfig& config) {
  std::string out;
  for (const ConfigKnob& knob : kConfigKnobs) {
    out += (out.empty() ? "" : " ") + std::string(knob.key) + "=";
    std::visit(
        [&](auto get) {
          const auto& value = get(config);
          using T = std::remove_cvref_t<decltype(value)>;
          if constexpr (std::is_same_v<T, Script>) {
            const char* separator = "";
            for (const fault::FaultAction& a : value) {
              out += separator + NumberText(a.time) + ":" +
                     fault::FaultKindName(a.kind) + ":" + NumberText(a.target) +
                     ":" + NumberText(a.factor);
              separator = ",";
            }
          } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>) {
            out += knob.names[static_cast<std::size_t>(value)];
          } else {
            out += NumberText(value);
          }
        },
        knob.get);
  }
  return out;
}

std::string SetConfigKnob(SimConfig* config, std::string_view key,
                          std::string_view value) {
  for (const ConfigKnob& knob : kConfigKnobs) {
    if (key != knob.key) continue;
    return std::visit(
        [&](auto get) -> std::string {
          using T = std::remove_cvref_t<decltype(get(*config))>;
          T parsed{};
          std::string expected;
          if constexpr (std::is_same_v<T, Script>) {
            if (!ParseScript(value, &parsed)) {
              expected = "comma-separated time:kind:target:factor actions";
            }
          } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>) {
            int index = NameIndex(knob.names, value);
            parsed = static_cast<T>(index);
            for (std::size_t i = 0; index < 0 && i < knob.names.size(); ++i) {
              expected += (i == 0 ? "one of " : ", ") +
                          std::string(knob.names[i]);
            }
          } else if (!ParseNumber(value, &parsed)) {
            expected = std::is_floating_point_v<T> ? "a finite number"
                       : std::is_signed_v<T>       ? "an integer"
                                                   : "a non-negative integer";
          }
          if (!expected.empty()) {
            return "bad value '" + std::string(value) + "' for " +
                   std::string(key) + ": expected " + expected;
          }
          // The one write through a row's accessor; *config is mutable.
          const_cast<T&>(get(*config)) = std::move(parsed);
          return "";
        },
        knob.get);
  }
  return "unknown config knob '" + std::string(key) + "'";
}

}  // namespace spiffi::vod
