#include "vod/telemetry.h"

#include "sim/check.h"

namespace spiffi::vod {

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
  series_.AddCounter("disks.reads", [sim] {
    std::uint64_t reads = 0;
    server::VideoServer& server = sim->server();
    for (int n = 0; n < server.num_nodes(); ++n) {
      server::Node& node = server.node(n);
      for (int d = 0; d < node.num_disks(); ++d) {
        reads += node.disk(d).requests_served();
      }
    }
    return static_cast<double>(reads);
  });

  // --- Node CPUs & buffer pools ---
  series_.AddGauge("cpus.busy", [sim] {
    int busy = 0;
    server::VideoServer& server = sim->server();
    for (int n = 0; n < server.num_nodes(); ++n) {
      if (server.node(n).cpu().resource().busy() > 0) ++busy;
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
  series_.AddCounter("pool.references", [sim] {
    std::uint64_t references = 0;
    server::VideoServer& server = sim->server();
    for (int n = 0; n < server.num_nodes(); ++n) {
      references += server.node(n).pool().stats().references;
    }
    return static_cast<double>(references);
  });
  series_.AddCounter("pool.hits", [sim] {
    std::uint64_t hits = 0;
    server::VideoServer& server = sim->server();
    for (int n = 0; n < server.num_nodes(); ++n) {
      hits += server.node(n).pool().stats().hits;
    }
    return static_cast<double>(hits);
  });

  // --- Network ---
  series_.AddCounter("network.bytes", [sim] {
    return static_cast<double>(sim->network().total_bytes());
  });

  // --- Terminals ---
  series_.AddCounter("terminals.glitches", [sim] {
    std::uint64_t glitches = 0;
    for (int t = 0; t < sim->num_terminals(); ++t) {
      glitches += sim->terminal(t).stats().glitches;
    }
    return static_cast<double>(glitches);
  });
  series_.AddCounter("terminals.frames", [sim] {
    std::uint64_t frames = 0;
    for (int t = 0; t < sim->num_terminals(); ++t) {
      frames += sim->terminal(t).stats().frames_displayed;
    }
    return static_cast<double>(frames);
  });
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
    series_.AddCounter("share.followers", [sim] {
      return static_cast<double>(
          sim->stream_share()->stats().followers_attached);
    });
    series_.AddCounter("share.patches", [sim] {
      return static_cast<double>(
          sim->stream_share()->stats().patchers_attached);
    });
  }
  if (sim->config().prefix_cache_fraction > 0.0) {
    series_.AddGauge("pool.pinned_pages", [sim] {
      std::int64_t pages = 0;
      server::VideoServer& server = sim->server();
      for (int n = 0; n < server.num_nodes(); ++n) {
        pages += server.node(n).pool().pinned_pages();
      }
      return static_cast<double>(pages);
    });
    series_.AddCounter("pool.prefix_hits", [sim] {
      std::uint64_t hits = 0;
      server::VideoServer& server = sim->server();
      for (int n = 0; n < server.num_nodes(); ++n) {
        hits += server.node(n).pool().stats().prefix_hits;
      }
      return static_cast<double>(hits);
    });
  }

  // --- Proxy tier (only when proxies are configured) ---
  if (sim->num_proxies() > 0) {
    series_.AddCounter("proxy.references", [sim] {
      std::uint64_t sum = 0;
      for (int p = 0; p < sim->num_proxies(); ++p) {
        sum += sim->proxy_node(p).stats().references;
      }
      return static_cast<double>(sum);
    });
    series_.AddCounter("proxy.hits", [sim] {
      std::uint64_t sum = 0;
      for (int p = 0; p < sim->num_proxies(); ++p) {
        sum += sim->proxy_node(p).stats().hits;
      }
      return static_cast<double>(sum);
    });
    series_.AddCounter("proxy.forwards", [sim] {
      std::uint64_t sum = 0;
      for (int p = 0; p < sim->num_proxies(); ++p) {
        sum += sim->proxy_node(p).stats().forwards;
      }
      return static_cast<double>(sum);
    });
    series_.AddGauge("proxy.pages_in_use", [sim] {
      std::int64_t sum = 0;
      for (int p = 0; p < sim->num_proxies(); ++p) {
        sum += sim->proxy_node(p).cache().pages_in_use();
      }
      return static_cast<double>(sum);
    });
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
    series_.AddCounter("fault.faults_injected", [sim] {
      return static_cast<double>(
          sim->fault_state()->StatsAt(sim->env().now()).faults_injected);
    });
    if (sim->config().rebuild_mbps > 0.0) {
      series_.AddGauge("fault.disks_rebuilding", [sim] {
        return static_cast<double>(sim->fault_state()->disks_rebuilding());
      });
      series_.AddCounter("fault.rebuild_bytes", [sim] {
        return static_cast<double>(
            sim->fault_state()->StatsAt(sim->env().now()).rebuild_bytes);
      });
    }
  }

  // --- Admission control (only when a policy is active) ---
  if (sim->admission() != nullptr) {
    series_.AddGauge("admission.active_sessions", [sim] {
      return static_cast<double>(sim->admission()->active_sessions());
    });
    series_.AddGauge("admission.reserved_bytes_per_sec", [sim] {
      return sim->admission()->reserved_bytes_per_sec();
    });
    series_.AddCounter("admission.defers", [sim] {
      return static_cast<double>(sim->admission()->stats().defers);
    });
    series_.AddCounter("admission.rejects", [sim] {
      return static_cast<double>(sim->admission()->stats().rejects);
    });
  }

  // --- Request retry (only when a retry budget is configured) ---
  if (sim->config().request_retry_budget > 0) {
    series_.AddCounter("terminals.request_retries", [sim] {
      std::uint64_t sum = 0;
      for (int t = 0; t < sim->num_terminals(); ++t) {
        sum += sim->terminal(t).stats().request_retries;
      }
      return static_cast<double>(sum);
    });
    series_.AddCounter("terminals.session_failovers", [sim] {
      std::uint64_t sum = 0;
      for (int t = 0; t < sim->num_terminals(); ++t) {
        sum += sim->terminal(t).stats().session_failovers;
      }
      return static_cast<double>(sum);
    });
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
