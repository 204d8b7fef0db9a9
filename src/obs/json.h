// The JSON value writers shared by every exporter: telemetry JSONL, the
// metrics-registry dump, the run report and the Chrome trace.

#ifndef SPIFFI_OBS_JSON_H_
#define SPIFFI_OBS_JSON_H_

#include <cmath>
#include <cstdio>
#include <ostream>
#include <string_view>

namespace spiffi::obs {

// Doubles as %.17g (round-trip exact), so equal values yield
// byte-identical exports; non-finite values have no JSON representation
// and become 0.
inline void WriteJsonNumber(std::ostream& out, double value) {
  if (!std::isfinite(value)) {
    out << 0;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out << buf;
}

// A quoted string: quote, backslash and newline as \", \\ and \n, other
// control characters as \u00XX, everything else verbatim.
inline void WriteJsonString(std::ostream& out, std::string_view s) {
  out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (c == '\n') {
      out << "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out << buf;
    } else {
      out << c;
    }
  }
  out << '"';
}

}  // namespace spiffi::obs

#endif  // SPIFFI_OBS_JSON_H_
