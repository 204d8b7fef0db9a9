#include "vod/report.h"

#include <cmath>
#include <cstdio>
#include <type_traits>
#include <variant>

namespace spiffi::vod {

namespace {

void WriteNumber(std::ostream& out, double value) {
  if (!std::isfinite(value)) {
    out << 0;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out << buf;
}

void WriteString(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

void WriteRunReportJson(std::ostream& out, const RunReport& r) {
  const SimMetrics& m = r.metrics;
  out << "{\"label\":";
  WriteString(out, r.label);
  out << ",\"config\":";
  WriteString(out, r.config_summary);
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(r.config_digest));
  out << ",\"config_digest\":\"" << digest << '"';
  out << ",\"config_knobs\":";
  WriteString(out, r.config_knobs);
  out << ",\"seed\":" << r.seed;
  out << ",\"terminals\":" << r.terminals;
  out << ",\"sim_seconds\":";
  WriteNumber(out, r.sim_seconds);
  out << ",\"wall_seconds\":";
  WriteNumber(out, r.wall_seconds);
  out << ",\"events_per_sec\":";
  WriteNumber(out, r.events_per_sec);
  // Every SimMetrics field under its kMetricFields key — counts as
  // integers, the rest "%.17g" — then the derived ratios.
  out << ",\"metrics\":{";
  for (const MetricField& field : kMetricFields) {
    out << '"' << field.key << "\":";
    std::visit(
        [&](auto member) {
          if constexpr (std::is_floating_point_v<
                            std::remove_reference_t<decltype(m.*member)>>) {
            WriteNumber(out, m.*member);
          } else {
            out << m.*member;
          }
        },
        field.member);
    out << ',';
  }
  out << "\"buffer_hit_ratio\":";
  WriteNumber(out, m.hit_ratio());
  out << ",\"proxy_offload_ratio\":";
  WriteNumber(out, m.proxy_offload_ratio());
  out << "}";
  out << ",\"telemetry_path\":";
  WriteString(out, r.telemetry_path);
  out << "}\n";
}

}  // namespace spiffi::vod
