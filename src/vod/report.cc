#include "vod/report.h"

#include <cstdio>
#include <type_traits>
#include <variant>

#include "obs/json.h"

namespace spiffi::vod {

void WriteRunReportJson(std::ostream& out, const RunReport& r) {
  const SimMetrics& m = r.metrics;
  out << "{\"label\":";
  obs::WriteJsonString(out, r.label);
  out << ",\"config\":";
  obs::WriteJsonString(out, r.config_summary);
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(r.config_digest));
  out << ",\"config_digest\":\"" << digest << '"';
  out << ",\"config_knobs\":";
  obs::WriteJsonString(out, r.config_knobs);
  out << ",\"seed\":" << r.seed;
  out << ",\"terminals\":" << r.terminals;
  out << ",\"sim_seconds\":";
  obs::WriteJsonNumber(out, r.sim_seconds);
  out << ",\"wall_seconds\":";
  obs::WriteJsonNumber(out, r.wall_seconds);
  out << ",\"events_per_sec\":";
  obs::WriteJsonNumber(out, r.events_per_sec);
  // Every SimMetrics field under its kMetricFields key — counts as
  // integers, the rest "%.17g" — then the derived ratios.
  out << ",\"metrics\":{";
  for (const MetricField& field : kMetricFields) {
    out << '"' << field.key << "\":";
    std::visit(
        [&](auto member) {
          if constexpr (std::is_floating_point_v<
                            std::remove_reference_t<decltype(m.*member)>>) {
            obs::WriteJsonNumber(out, m.*member);
          } else {
            out << m.*member;
          }
        },
        field.member);
    out << ',';
  }
  out << "\"buffer_hit_ratio\":";
  obs::WriteJsonNumber(out, m.hit_ratio());
  out << ",\"proxy_offload_ratio\":";
  obs::WriteJsonNumber(out, m.proxy_offload_ratio());
  out << "}";
  out << ",\"telemetry_path\":";
  obs::WriteJsonString(out, r.telemetry_path);
  out << "}\n";
}

}  // namespace spiffi::vod
