// Interconnection network model.
//
// Per §6.2 the network is "a bus with unlimited aggregate bandwidth and
// constant latency regardless of which terminal and node are
// communicating": a message of b bytes is delivered
// wire_delay_base + wire_delay_per_byte * b seconds after it is sent, with
// no queueing. CPU costs for send/receive are charged by the endpoints
// (terminals have dedicated hardware and charge nothing; server nodes
// charge CpuCosts against their Cpu).
//
// The network also measures aggregate traffic in fixed one-second buckets
// so experiments can report the peak bandwidth demand (Fig 18).

#ifndef SPIFFI_HW_NETWORK_H_
#define SPIFFI_HW_NETWORK_H_

#include <cstdint>

#include "sim/calendar.h"
#include "sim/environment.h"

namespace spiffi::hw {

struct NetworkParams {
  double wire_delay_base_sec = 5e-6;        // 5 microseconds
  double wire_delay_per_byte_sec = 0.04e-6; // 0.04 microseconds/byte
  double bandwidth_bucket_sec = 1.0;        // peak-measurement granularity
};

class Network final {
 public:
  Network(sim::Environment* env, const NetworkParams& params);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Delivers `token` to `destination->OnEvent(token)` after the wire
  // delay for a message of `bytes` bytes. The destination must outlive
  // the delivery; one-shot destinations come from the environment's
  // one-shot arena (Environment::NewOneShot), whose storage outlives
  // every pending delivery by construction.
  void Send(std::int64_t bytes, sim::EventHandler* destination,
            std::uint64_t token);

  double WireDelay(std::int64_t bytes) const {
    return params_.wire_delay_base_sec +
           params_.wire_delay_per_byte_sec * static_cast<double>(bytes);
  }

  void ResetStats();

  std::uint64_t total_bytes() const { return total_bytes_; }
  std::uint64_t total_messages() const { return total_messages_; }
  // Highest one-second-bucket byte count observed since the last reset
  // (includes the still-open bucket).
  std::uint64_t peak_bytes_per_bucket() const;
  double AverageBandwidth(sim::SimTime now) const;
  sim::SimTime stats_start() const { return stats_start_; }

 private:
  sim::Environment* env_;
  NetworkParams params_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t total_messages_ = 0;
  // Simulated time never runs backwards, so a bucket closes for good
  // once traffic lands in a later one: only the open bucket and the
  // peak of the closed ones need keeping.
  std::int64_t open_bucket_ = -1;  // -1 before any traffic
  std::uint64_t open_bucket_bytes_ = 0;
  std::uint64_t closed_bucket_peak_ = 0;
  sim::SimTime stats_start_ = 0.0;
};

}  // namespace spiffi::hw

#endif  // SPIFFI_HW_NETWORK_H_
