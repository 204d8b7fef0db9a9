#include "obs/kernel_profile.h"

#include <cstdio>

namespace spiffi::obs {

KernelProfile CaptureKernelProfile(const sim::Environment& env) {
  KernelProfile profile;
  profile.events_fired = env.events_fired();
  profile.calendar_size = env.calendar_size();
  profile.peak_calendar_size = env.peak_calendar_size();
  profile.calendar_grows = env.calendar_storage_grows();
  profile.lane_fires = env.calendar_lane_fires();
  profile.sift_levels = env.calendar_sift_levels();
  profile.live_processes = env.live_processes();
  profile.peak_processes = env.peak_processes();
  profile.resume_slots = env.resume_slots();
  return profile;
}

void WriteKernelProfileJson(std::ostream& out, const std::string& name,
                            const KernelProfile& profile,
                            double wall_seconds) {
  double events_per_sec =
      wall_seconds > 0.0
          ? static_cast<double>(profile.events_fired) / wall_seconds
          : 0.0;
  char buf[64];
  out << "{\n  \"name\": \"" << name << "\",\n";
  out << "  \"events_fired\": " << profile.events_fired << ",\n";
  std::snprintf(buf, sizeof(buf), "%.6f", wall_seconds);
  out << "  \"wall_seconds\": " << buf << ",\n";
  std::snprintf(buf, sizeof(buf), "%.1f", events_per_sec);
  out << "  \"events_per_sec\": " << buf << ",\n";
  out << "  \"calendar_size\": " << profile.calendar_size << ",\n";
  out << "  \"peak_calendar_size\": " << profile.peak_calendar_size
      << ",\n";
  out << "  \"calendar_grows\": " << profile.calendar_grows << ",\n";
  out << "  \"lane_fires\": " << profile.lane_fires << ",\n";
  out << "  \"sift_levels\": " << profile.sift_levels << ",\n";
  out << "  \"live_processes\": " << profile.live_processes << ",\n";
  out << "  \"peak_processes\": " << profile.peak_processes << ",\n";
  out << "  \"resume_slots\": " << profile.resume_slots << "\n}\n";
}

}  // namespace spiffi::obs
