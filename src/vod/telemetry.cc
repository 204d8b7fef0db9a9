#include "vod/telemetry.h"

#include <initializer_list>

#include "sim/check.h"

namespace spiffi::vod {

namespace {

// A channel that streams one of the Simulation's registry probes.
struct ProbeChannel {
  const char* channel;
  const char* probe;
  bool counter;  // else a gauge
};
constexpr bool kCounter = true;
constexpr bool kGauge = false;

}  // namespace

TelemetryRecorder::TelemetryRecorder(Simulation* simulation,
                                     const TelemetryOptions& options)
    : simulation_(simulation) {
  SPIFFI_CHECK(simulation != nullptr);
  SPIFFI_CHECK(options.interval_sec > 0.0);
  series_.set_retention(options.retention);
  series_.StreamTo(options.jsonl);
  RegisterChannels();
  simulation_->env().Spawn(Sampler(options.interval_sec));
}

void TelemetryRecorder::RegisterChannels() {
  Simulation* sim = simulation_;
  // Each probe is resolved once, here: a sample calls it directly.
  auto mirror = [this, sim](std::initializer_list<ProbeChannel> rows) {
    for (const ProbeChannel& row : rows) {
      const auto& probe = sim->metrics().Probe(row.probe);
      if (row.counter) {
        series_.AddCounter(row.channel, probe);
      } else {
        series_.AddGauge(row.channel, probe);
      }
    }
  };

  // --- Disks ---
  series_.AddGauge("disks.busy", [sim] {
    int busy = 0;
    server::VideoServer& server = sim->server();
    for (int n = 0; n < server.num_nodes(); ++n) {
      server::Node& node = server.node(n);
      for (int d = 0; d < node.num_disks(); ++d) {
        if (node.disk(d).busy()) ++busy;
      }
    }
    return static_cast<double>(busy);
  });
  series_.AddGauge("disks.total", [sim] {
    int total = 0;
    server::VideoServer& server = sim->server();
    for (int n = 0; n < server.num_nodes(); ++n) {
      total += server.node(n).num_disks();
    }
    return static_cast<double>(total);
  });
  series_.AddGauge("disks.queue_avg", [sim] {
    double queue_sum = 0.0;
    int total = 0;
    server::VideoServer& server = sim->server();
    for (int n = 0; n < server.num_nodes(); ++n) {
      server::Node& node = server.node(n);
      for (int d = 0; d < node.num_disks(); ++d) {
        queue_sum += static_cast<double>(node.disk(d).queue_length());
        ++total;
      }
    }
    return total > 0 ? queue_sum / total : 0.0;
  });
  mirror({{"disks.reads", "disk.reads", kCounter}});

  // --- Node CPUs & buffer pools ---
  series_.AddGauge("cpus.busy", [sim] {
    int busy = 0;
    server::VideoServer& server = sim->server();
    for (int n = 0; n < server.num_nodes(); ++n) {
      if (server.node(n).cpu().busy()) ++busy;
    }
    return static_cast<double>(busy);
  });
  series_.AddGauge("pool.pages_in_use", [sim] {
    std::int64_t pages = 0;
    server::VideoServer& server = sim->server();
    for (int n = 0; n < server.num_nodes(); ++n) {
      pages += server.node(n).pool().pages_in_use();
    }
    return static_cast<double>(pages);
  });
  mirror({{"pool.references", "pool.references", kCounter},
          {"pool.hits", "pool.hits", kCounter}});

  // --- Network ---
  series_.AddCounter("network.bytes", [sim] {
    return static_cast<double>(sim->network().total_bytes());
  });

  // --- Terminals ---
  mirror({{"terminals.glitches", "terminal.glitches", kCounter},
          {"terminals.frames", "terminal.frames_displayed", kCounter}});
  series_.AddGauge("terminals.priming", [sim] {
    int priming = 0;
    for (int t = 0; t < sim->num_terminals(); ++t) {
      if (sim->terminal(t).state() == client::Terminal::State::kPriming) {
        ++priming;
      }
    }
    return static_cast<double>(priming);
  });
  series_.AddGauge("terminals.playing", [sim] {
    int playing = 0;
    for (int t = 0; t < sim->num_terminals(); ++t) {
      if (sim->terminal(t).state() == client::Terminal::State::kPlaying) {
        ++playing;
      }
    }
    return static_cast<double>(playing);
  });

  // --- Stream sharing (only when the manager exists, mirroring the
  // fault channels' lean-schema rule) ---
  if (sim->stream_share() != nullptr) {
    series_.AddGauge("share.open_groups", [sim] {
      return static_cast<double>(sim->stream_share()->open_group_count());
    });
    mirror({{"share.followers", "share.followers", kCounter},
            {"share.patches", "share.patches", kCounter}});
  }
  if (sim->config().prefix_cache_fraction > 0.0) {
    mirror({{"pool.pinned_pages", "pool.pinned_pages", kGauge},
            {"pool.prefix_hits", "pool.prefix_hits", kCounter}});
  }

  // --- Proxy tier (only when proxies are configured) ---
  if (sim->num_proxies() > 0) {
    mirror({{"proxy.references", "proxy.references", kCounter},
            {"proxy.hits", "proxy.hits", kCounter},
            {"proxy.forwards", "proxy.forwards", kCounter},
            {"proxy.pages_in_use", "proxy.pages_in_use", kGauge}});
  }

  // --- Fault injector (only on runs with an active FaultPlan, so
  // healthy-run telemetry keeps the lean schema) ---
  if (sim->fault_state() != nullptr) {
    series_.AddGauge("fault.disks_down", [sim] {
      const fault::FaultState* state = sim->fault_state();
      int down = 0;
      for (int d = 0; d < state->total_disks(); ++d) {
        if (!state->disk_up(d)) ++down;
      }
      return static_cast<double>(down);
    });
    series_.AddGauge("fault.nodes_down", [sim] {
      const fault::FaultState* state = sim->fault_state();
      int down = 0;
      for (int n = 0; n < state->num_nodes(); ++n) {
        if (!state->node_up(n)) ++down;
      }
      return static_cast<double>(down);
    });
    mirror({{"fault.faults_injected", "fault.faults_injected", kCounter}});
    if (sim->config().rebuild_mbps > 0.0) {
      series_.AddGauge("fault.disks_rebuilding", [sim] {
        return static_cast<double>(sim->fault_state()->disks_rebuilding());
      });
      mirror({{"fault.rebuild_bytes", "fault.rebuild_bytes", kCounter}});
    }
  }

  // --- Admission control (only when a policy is active) ---
  if (sim->admission() != nullptr) {
    mirror({{"admission.active_sessions", "admission.active_sessions",
             kGauge}});
    series_.AddGauge("admission.reserved_bytes_per_sec", [sim] {
      return sim->admission()->reserved_bytes_per_sec();
    });
    mirror({{"admission.defers", "admission.defers", kCounter},
            {"admission.rejects", "admission.rejects", kCounter}});
  }

  // --- Request retry (only when a retry budget is configured) ---
  if (sim->config().request_retry_budget > 0) {
    mirror({{"terminals.request_retries", "terminal.request_retries",
             kCounter},
            {"terminals.session_failovers", "terminal.session_failovers",
             kCounter}});
  }
}

sim::Process TelemetryRecorder::Sampler(double interval_sec) {
  sim::Environment* env = &simulation_->env();
  for (;;) {
    co_await env->Hold(interval_sec);
    series_.Sample(env->now());
  }
}

}  // namespace spiffi::vod
