#include "vod/simulation.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <string>
#include <utility>

#include "layout/nonstriped.h"
#include "layout/replicated.h"
#include "layout/striping.h"
#include "mpeg/library_cache.h"
#include "sim/check.h"
#include "vod/config_knobs.h"
#include "vod/report.h"

namespace spiffi::vod {

namespace {

// Distinct child-stream tags for the master seed.
constexpr std::uint64_t kLibraryStream = 1;
constexpr std::uint64_t kPlacementStream = 2;
constexpr std::uint64_t kFaultStream = 3;
constexpr std::uint64_t kTerminalStreamBase = 1000;

// Process-wide observer registry. Guarded by ObserverMutex() so that
// simulations finishing on ParallelRunner worker threads can notify
// concurrently with (re)installation from the main thread.
std::mutex& ObserverMutex() {
  static std::mutex mutex;
  return mutex;
}

RunObserver& GlobalRunObserver() {
  static RunObserver observer;
  return observer;
}

// Snapshot under the lock; invoked outside it by the caller.
RunObserver CurrentRunObserver() {
  std::lock_guard<std::mutex> lock(ObserverMutex());
  return GlobalRunObserver();
}

// A Stats counter of one component family, registered as a probe that
// sums it over the family.
template <typename Stats>
struct CounterRow {
  const char* name;
  std::uint64_t Stats::*field;
};

using TerminalStats = client::Terminal::Stats;
constexpr CounterRow<TerminalStats> kTerminalCounters[] = {
    {"terminal.glitches", &TerminalStats::glitches},
    {"terminal.frames_displayed", &TerminalStats::frames_displayed},
    {"terminal.videos_completed", &TerminalStats::videos_completed},
    {"terminal.blocks_received", &TerminalStats::blocks_received},
    {"terminal.requests_sent", &TerminalStats::requests_sent},
    {"terminal.stale_replies", &TerminalStats::stale_replies},
    // Deadline misses, each attributed to exactly one pipeline stage.
    {"terminal.late_blocks", &TerminalStats::late_blocks},
    {"terminal.late_attrib.network", &TerminalStats::late_attrib_network},
    {"terminal.late_attrib.server_cpu",
     &TerminalStats::late_attrib_server_cpu},
    {"terminal.late_attrib.disk_queue",
     &TerminalStats::late_attrib_disk_queue},
    {"terminal.late_attrib.disk_service",
     &TerminalStats::late_attrib_disk_service},
    {"terminal.late_attrib.fault", &TerminalStats::late_attrib_fault},
    {"fault.requests_redirected", &TerminalStats::requests_redirected},
    {"fault.blocks_rerouted", &TerminalStats::blocks_rerouted},
    {"terminal.request_retries", &TerminalStats::request_retries},
    {"terminal.retries_exhausted", &TerminalStats::retries_exhausted},
    {"terminal.session_failovers", &TerminalStats::session_failovers},
    {"terminal.duplicate_replies", &TerminalStats::duplicate_replies},
};

using PoolStats = server::BufferPool::Stats;
constexpr CounterRow<PoolStats> kPoolCounters[] = {
    {"pool.references", &PoolStats::references},
    {"pool.hits", &PoolStats::hits},
    {"pool.attaches", &PoolStats::attaches},
    {"pool.misses", &PoolStats::misses},
    {"pool.shared_refs", &PoolStats::shared_refs},
    {"pool.evictions", &PoolStats::evictions},
    {"pool.wasted_prefetches", &PoolStats::wasted_prefetches},
    {"pool.allocation_stalls", &PoolStats::allocation_stalls},
    {"pool.prefix_hits", &PoolStats::prefix_hits},
};

using NodeFaultStats = server::Node::FaultStats;
constexpr CounterRow<NodeFaultStats> kNodeFaultCounters[] = {
    {"fault.rerouted_requests", &NodeFaultStats::rerouted_requests},
    {"fault.degraded_waits", &NodeFaultStats::degraded_waits},
};

using PrefetchStats = server::Prefetcher::Stats;
constexpr CounterRow<PrefetchStats> kPrefetchCounters[] = {
    {"prefetch.issued", &PrefetchStats::issued},
    {"prefetch.enqueued", &PrefetchStats::enqueued},
    {"prefetch.duplicates_dropped", &PrefetchStats::duplicates_dropped},
    {"prefetch.already_cached", &PrefetchStats::already_cached},
};

using ProxyStats = proxy::ProxyNode::Stats;
constexpr CounterRow<ProxyStats> kProxyCounters[] = {
    {"proxy.references", &ProxyStats::references},
    {"proxy.hits", &ProxyStats::hits},
    {"proxy.attaches", &ProxyStats::attaches},
    {"proxy.forwards", &ProxyStats::forwards},
    {"proxy.bytes_from_cache", &ProxyStats::bytes_from_cache},
    {"proxy.forward_retries", &ProxyStats::forward_retries},
    {"proxy.stale_replies", &ProxyStats::stale_replies},
};

}  // namespace

void SetRunObserver(RunObserver observer) {
  std::lock_guard<std::mutex> lock(ObserverMutex());
  GlobalRunObserver() = std::move(observer);
}

std::shared_ptr<const mpeg::VideoLibrary> SharedLibraryFor(
    const SimConfig& config) {
  // Videos and their popularity (z = 0 degenerates to uniform).
  mpeg::LibraryKey key;
  key.count = config.num_videos();
  key.duration_seconds = config.video_seconds;
  key.params = config.mpeg;
  key.zipf_z = config.zipf_z;
  key.seed = sim::Rng(config.seed).Child(kLibraryStream).NextU64();
  key.block_bytes = config.stripe_bytes;
  return mpeg::SharedLibrary(key);
}

LibraryPins PinLibraries(const std::vector<SimConfig>& configs) {
  LibraryPins pins;
  pins.reserve(configs.size());
  for (const SimConfig& config : configs) {
    pins.push_back(SharedLibraryFor(config));
  }
  return pins;
}

Simulation::Simulation(const SimConfig& config) : config_(config) {
  std::string error = config.Validate();
  if (!error.empty()) {
    std::fprintf(stderr, "invalid SimConfig: %s\n", error.c_str());
  }
  SPIFFI_CHECK(error.empty());

  // Pre-size the event heap from the configured load so the calendar
  // never reallocates mid-run (storage_grows() stays 0 in steady state).
  env_ = std::make_unique<sim::Environment>();
  env_->ReserveCalendar(config.expected_peak_events());
  sim::Rng master(config.seed);

  library_ = SharedLibraryFor(config);

  // Layout.
  if (config.placement == VideoPlacement::kStriped) {
    std::vector<std::int64_t> blocks(config.num_videos());
    for (int v = 0; v < config.num_videos(); ++v) {
      blocks[v] = library_->NumBlocks(v);
    }
    layout_ = std::make_unique<layout::StripedLayout>(
        config.num_nodes, config.disks_per_node, config.stripe_bytes,
        std::move(blocks));
  } else if (config.placement == VideoPlacement::kReplicatedStriped) {
    std::vector<std::int64_t> blocks(config.num_videos());
    for (int v = 0; v < config.num_videos(); ++v) {
      blocks[v] = library_->NumBlocks(v);
    }
    layout_ = std::make_unique<layout::ReplicatedStripedLayout>(
        config.num_nodes, config.disks_per_node, config.stripe_bytes,
        std::move(blocks), config.replica_count);
  } else {
    std::vector<std::int64_t> bytes(config.num_videos());
    for (int v = 0; v < config.num_videos(); ++v) {
      bytes[v] = library_->video(v).total_bytes();
    }
    layout_ = std::make_unique<layout::NonStripedLayout>(
        config.num_nodes, config.disks_per_node, config.stripe_bytes,
        std::move(bytes), master.Child(kPlacementStream).NextU64());
  }

  network_ = std::make_unique<hw::Network>(env_.get(), config.network);

  // Fault subsystem: built only for an enabled FaultPlan, so the empty
  // default leaves every fault_ pointer null and the run bit-identical
  // to a build without the subsystem.
  if (config.fault_plan.enabled()) {
    fault_state_ = std::make_unique<fault::FaultState>(
        config.num_nodes, config.disks_per_node);
    fault_injector_ = std::make_unique<fault::FaultInjector>(
        env_.get(), config.fault_plan, fault_state_.get(),
        master.Child(kFaultStream));
  }

  // Server nodes.
  server::NodeConfig node_config;
  node_config.disks_per_node = config.disks_per_node;
  node_config.cpu_mips = config.cpu_mips;
  node_config.costs = config.cpu_costs;
  node_config.disk = config.disk;
  node_config.sched.policy = config.disk_sched;
  node_config.sched.cylinder_bytes = config.disk.cylinder_bytes;
  node_config.sched.gss_groups = config.gss_groups;
  node_config.sched.realtime_classes = config.realtime_classes;
  node_config.sched.realtime_spacing_sec = config.realtime_spacing_sec;
  node_config.pool_pages = config.pool_pages_per_node();
  node_config.replacement = config.replacement;
  node_config.prefetch = config.prefetch;
  node_config.prefetch_trigger = config.effective_prefetch_trigger();
  node_config.prefetch_workers = config.effective_prefetch_workers();
  node_config.max_advance_prefetch_sec = config.max_advance_prefetch_sec;
  node_config.fault_hop_budget = config.fault_plan.reroute_hop_budget;
  node_config.fault_recheck_sec = config.fault_plan.recheck_sec;
  node_config.prefix_cache_fraction = config.prefix_cache_fraction;
  node_config.prefix_recompute_sec = config.prefix_recompute_sec;
  node_config.num_nodes = config.num_nodes;
  server_ = std::make_unique<server::VideoServer>(
      env_.get(), config.num_nodes, node_config, network_.get(),
      library_.get(), layout_.get(), fault_state_.get());

  // Admission control: built only when a policy is selected, so the
  // default `off` run never consults it and stays bit-identical.
  if (config.admission_policy != AdmissionPolicy::kOff) {
    AdmissionParams admission_params;
    admission_params.policy = config.admission_policy;
    admission_params.num_nodes = config.num_nodes;
    // A node's deliverable disk bandwidth is the media transfer rate
    // summed over its disks; the headroom fraction discounts the seek
    // and rotation overhead a real stream mix pays on top of transfer.
    admission_params.node_bytes_per_sec =
        config.disks_per_node * config.disk.transfer_rate_bytes_per_sec;
    admission_params.stream_bytes_per_sec = config.mpeg.bytes_per_second();
    admission_params.headroom_fraction = config.admission_headroom;
    admission_params.max_defers_before_reject = config.admission_max_defers;
    admission_ = std::make_unique<AdmissionController>(admission_params);
    if (config.admission_policy == AdmissionPolicy::kMeasuredHeadroom) {
      admission_->set_utilization_probe([this] {
        double sum = 0.0;
        int count = 0;
        sim::SimTime now = env_->now();
        for (int n = 0; n < server_->num_nodes(); ++n) {
          const server::Node& node = server_->node(n);
          for (int d = 0; d < node.num_disks(); ++d) {
            sum += node.disk(d).AverageUtilization(now);
            ++count;
          }
        }
        return sum / count;
      });
    }
  }

  if (fault_injector_ != nullptr) {
    // Physical consequences of fault transitions. Disk availability is
    // recomputed as !(node up && disk up) so overlapping disk and node
    // outages compose idempotently: a disk stays down until both its own
    // fault and its node's crash have been repaired.
    fault_injector_->set_effect_handler([this](
        const fault::FaultEvent& event) {
      auto apply_disk = [this](int disk_global) {
        int node = disk_global / config_.disks_per_node;
        int local = disk_global % config_.disks_per_node;
        hw::Disk& disk = server_->node(node).disk(local);
        disk.SetFailed(!(fault_state_->node_up(node) &&
                         fault_state_->disk_up(disk_global)));
        disk.SetServiceTimeScale(fault_state_->disk_slow_factor(disk_global));
      };
      // Post-repair rebuild: a disk that just became serviceable again
      // re-reads its stripe regions from replica peers at a throttled
      // rate. Only spawned when rebuild is configured, the layout has
      // replicas to read from, and no rebuild is already running for
      // the disk (a rebuild that outlived a brief re-failure keeps its
      // flag and simply continues).
      auto maybe_rebuild = [this](int disk_global) {
        if (config_.rebuild_mbps <= 0.0 || layout_->replica_count() < 2) {
          return;
        }
        int node = disk_global / config_.disks_per_node;
        if (!fault_state_->node_up(node) ||
            !fault_state_->disk_up(disk_global)) {
          return;
        }
        if (!fault_state_->BeginRebuild(disk_global, env_->now())) return;
        env_->Spawn(RebuildDisk(disk_global));
      };
      switch (event.kind) {
        case fault::FaultKind::kDiskFail:
        case fault::FaultKind::kDiskRecover:
        case fault::FaultKind::kDiskLimpBegin:
        case fault::FaultKind::kDiskLimpEnd:
          apply_disk(event.target);
          if (event.kind == fault::FaultKind::kDiskRecover &&
              event.applied) {
            maybe_rebuild(event.target);
          }
          break;
        case fault::FaultKind::kNodeFail:
        case fault::FaultKind::kNodeRecover:
          for (int d = 0; d < config_.disks_per_node; ++d) {
            apply_disk(event.target * config_.disks_per_node + d);
          }
          if (event.applied && admission_ != nullptr) {
            if (event.kind == fault::FaultKind::kNodeFail) {
              admission_->OnNodeDown(event.target);
            } else {
              admission_->OnNodeUp(event.target);
            }
          }
          if (event.kind == fault::FaultKind::kNodeRecover &&
              event.applied) {
            for (int d = 0; d < config_.disks_per_node; ++d) {
              maybe_rebuild(event.target * config_.disks_per_node + d);
            }
          }
          break;
      }
    });
    fault_injector_->Start();
  }

  if (config.stream_sharing_enabled()) {
    share_ = std::make_unique<client::StreamShareManager>(
        env_.get(), config.piggyback_window_sec, config.patch_window_sec);
  }

  // Proxy nodes exist only when configured, so a zero-proxy run
  // schedules no proxy events and stays bit-identical to the flat
  // topology.
  if (config.proxy_nodes > 0) {
    proxies_.reserve(config.proxy_nodes);
    for (int p = 0; p < config.proxy_nodes; ++p) {
      proxy::ProxyParams proxy_params;
      proxy_params.id = p;
      proxy_params.cache_pages = config.proxy_cache_pages;
      proxy_params.policy = config.proxy_policy;
      proxy_params.recompute_sec = config.proxy_recompute_sec;
      proxy_params.retry_budget = config.request_retry_budget;
      proxy_params.retry_min_timeout_sec = config.retry_min_timeout_sec;
      proxy_params.retry_backoff_base_sec = config.retry_backoff_base_sec;
      proxies_.push_back(std::make_unique<proxy::ProxyNode>(
          env_.get(), proxy_params, network_.get(), server_.get(),
          layout_.get(), library_.get(), fault_state_.get()));
    }
  }

  // Terminals, with staggered starts.
  client::TerminalParams terminal_params;
  terminal_params.memory_bytes = config.terminal_memory_bytes;
  terminal_params.pause_enabled = config.pause_enabled;
  terminal_params.pauses_per_video_mean = config.pauses_per_video_mean;
  terminal_params.pause_duration_mean_sec = config.pause_duration_mean_sec;
  terminal_params.search_enabled = config.search_enabled;
  terminal_params.searches_per_video_mean = config.searches_per_video_mean;
  terminal_params.search_duration_mean_sec =
      config.search_duration_mean_sec;
  terminal_params.search_show_sec = config.search_show_sec;
  terminal_params.search_skip_sec = config.search_skip_sec;
  terminal_params.random_initial_position =
      config.random_initial_position && !config.stream_sharing_enabled();
  terminal_params.retry_budget = config.request_retry_budget;
  terminal_params.retry_min_timeout_sec = config.retry_min_timeout_sec;
  terminal_params.retry_backoff_base_sec = config.retry_backoff_base_sec;
  terminal_params.admission_defer_sec = config.admission_defer_sec;
  terminals_.reserve(config.terminals);
  for (int t = 0; t < config.terminals; ++t) {
    sim::Rng rng = master.Child(kTerminalStreamBase + t);
    sim::SimTime start = rng.Uniform(0.0, config.start_window_sec);
    // Static terminal -> proxy assignment: terminal t uses proxy t % P.
    server::MessageSink* ingress =
        proxies_.empty() ? nullptr : proxies_[t % config.proxy_nodes].get();
    terminals_.push_back(std::make_unique<client::Terminal>(
        env_.get(), t, terminal_params, network_.get(),
        server_.get(), library_.get(), layout_.get(), rng, start,
        share_.get(), fault_state_.get(), ingress, admission_.get()));
  }

  RegisterMetrics();
}

Simulation::~Simulation() = default;

void Simulation::RebuildSink::OnMessage(const server::Message& message) {
  (void)message;
  ++replies;
}

sim::Process Simulation::RebuildDisk(int disk_global) {
  const int node = disk_global / config_.disks_per_node;
  const double rate = config_.rebuild_mbps * 1e6 / 8.0;  // bytes/sec
  // Keyed by disk: a node recovery runs one rebuild per disk, and their
  // envelope discounts must accumulate (and clear independently).
  if (admission_ != nullptr) admission_->SetRebuildLoad(disk_global, rate);
  std::uint64_t bytes_read = 0;
  bool completed = true;
  for (int v = 0; v < config_.num_videos() && completed; ++v) {
    const std::int64_t blocks = library_->NumBlocks(v);
    for (std::int64_t b = 0; b < blocks; ++b) {
      if (!fault_state_->node_up(node) ||
          !fault_state_->disk_up(disk_global)) {
        // Re-failed mid-rebuild: abort without counting a completion;
        // the next recovery starts a fresh pass.
        completed = false;
        break;
      }
      const std::vector<layout::BlockLocation> replicas =
          layout_->Replicas(v, b);
      bool owned = false;
      const layout::BlockLocation* peer = nullptr;
      for (const layout::BlockLocation& loc : replicas) {
        if (loc.disk_global == disk_global) {
          owned = true;
        } else if (peer == nullptr && loc.node != node &&
                   fault_state_->LocationUp(loc)) {
          peer = &loc;
        }
      }
      if (!owned) continue;
      const std::int64_t bytes = library_->BlockBytes(v, b);
      if (peer != nullptr) {
        server::Message request;
        request.kind = server::Message::Kind::kReadRequest;
        request.terminal = -1;  // background resync, like prefetch tasks
        request.video = v;
        request.block = b;
        request.bytes = bytes;
        request.deadline = sim::kSimTimeMax;
        request.reply_to = &rebuild_sink_;
        server::PostMessage(env_.get(), network_.get(),
                            server::kControlMessageBytes,
                            server_->node_sink(peer->node), request);
        bytes_read += static_cast<std::uint64_t>(bytes);
      }
      // Throttle: the pass sweeps the disk at rebuild_mbps whether or
      // not a peer was reachable for this particular block.
      co_await env_->Hold(static_cast<double>(bytes) / rate);
    }
  }
  if (admission_ != nullptr) admission_->SetRebuildLoad(disk_global, 0.0);
  fault_state_->EndRebuild(disk_global, env_->now(), bytes_read, completed);
}

void Simulation::RunWarmup() { env_->RunUntil(config_.warmup_seconds); }

void Simulation::ResetAllStats() {
  sim::SimTime now = env_->now();
  server_->ResetStats(now);
  network_->ResetStats();
  for (auto& terminal : terminals_) terminal->ResetStats();
  if (share_ != nullptr) share_->ResetStats();
  for (auto& proxy : proxies_) proxy->ResetStats();
  if (fault_state_ != nullptr) fault_state_->ResetStats(now);
  if (admission_ != nullptr) admission_->ResetStats();
  measure_start_ = now;
}

void Simulation::RunMeasurement() {
  env_->RunUntil(measure_start_ + config_.measure_seconds);
}

SimMetrics Simulation::Collect() const {
  SimMetrics m;
  for (const MetricField& field : kMetricFields) {
    SetFieldValue(m, field, metrics_.Value(field.probe));
  }
  return m;
}

void Simulation::RegisterMetrics() {
  // Every probe is a pure read of component state, so Collect() may run
  // at any time and in any order. Sums walk components in index order;
  // tests/vod/metrics_regression_test.cc pins the SimMetrics probes to
  // exact golden values.
  metrics_.AddProbe("sim.terminals", [this] {
    return static_cast<double>(config_.terminals);
  });
  metrics_.AddProbe("sim.measured_seconds",
                    [this] { return env_->now() - measure_start_; });

  // --- Stats counters summed over a component family: one summing
  // helper per family, one probe per row ---
  auto sum_terminals = [this](auto field) {
    std::uint64_t sum = 0;
    for (const auto& terminal : terminals_) sum += terminal->stats().*field;
    return static_cast<double>(sum);
  };
  auto sum_pool = [this](auto field) {
    std::uint64_t sum = 0;
    for (int n = 0; n < server_->num_nodes(); ++n) {
      sum += server_->node(n).pool().stats().*field;
    }
    return static_cast<double>(sum);
  };
  auto sum_node_fault = [this](auto field) {
    std::uint64_t sum = 0;
    for (int n = 0; n < server_->num_nodes(); ++n) {
      sum += server_->node(n).fault_stats().*field;
    }
    return static_cast<double>(sum);
  };
  auto sum_prefetch = [this](auto field) {
    std::uint64_t sum = 0;
    for (int n = 0; n < server_->num_nodes(); ++n) {
      const server::Node& node = server_->node(n);
      for (int d = 0; d < node.num_disks(); ++d) {
        sum += node.prefetcher(d).stats().*field;
      }
    }
    return static_cast<double>(sum);
  };
  auto sum_proxy = [this](auto field) {
    std::uint64_t sum = 0;
    for (const auto& proxy : proxies_) sum += proxy->stats().*field;
    return static_cast<double>(sum);
  };
  auto add_sums = [this](const auto& rows, auto sum) {
    for (const auto& row : rows) {
      metrics_.AddProbe(row.name, [sum, field = row.field] {
        return sum(field);
      });
    }
  };
  add_sums(kTerminalCounters, sum_terminals);
  add_sums(kPoolCounters, sum_pool);
  add_sums(kNodeFaultCounters, sum_node_fault);
  add_sums(kPrefetchCounters, sum_prefetch);
  add_sums(kProxyCounters, sum_proxy);

  // --- Components built only when configured: every probe reads zero
  // while its component is absent, so exports keep one schema ---
  auto add_share = [this](const char* name, auto field) {
    metrics_.AddProbe(name, [this, field] {
      return share_ == nullptr ? 0.0
                               : static_cast<double>(share_->stats().*field);
    });
  };
  using ShareStats = client::StreamShareManager::Stats;
  add_share("share.groups_formed", &ShareStats::groups_formed);
  add_share("share.followers", &ShareStats::followers_attached);
  add_share("share.patches", &ShareStats::patchers_attached);
  add_share("share.patch_seconds", &ShareStats::patch_seconds_total);
  add_share("share.handoffs", &ShareStats::leader_handoffs);
  auto add_admission = [this](const char* name, auto field) {
    metrics_.AddProbe(name, [this, field] {
      return admission_ == nullptr
                 ? 0.0
                 : static_cast<double>(admission_->stats().*field);
    });
  };
  using AdmissionStats = AdmissionController::Stats;
  add_admission("admission.admits", &AdmissionStats::admits);
  add_admission("admission.rejects", &AdmissionStats::rejects);
  add_admission("admission.defers", &AdmissionStats::defers);
  add_admission("admission.failover_readmissions",
                &AdmissionStats::failover_readmissions);
  auto add_fault = [this](const char* name, auto field) {
    metrics_.AddProbe(name, [this, field] {
      return fault_state_ == nullptr
                 ? 0.0
                 : static_cast<double>(
                       fault_state_->StatsAt(env_->now()).*field);
    });
  };
  using FaultStats = fault::FaultState::Stats;
  add_fault("fault.faults_injected", &FaultStats::faults_injected);
  add_fault("fault.repairs_completed", &FaultStats::repairs_completed);
  add_fault("fault.downtime_sec", &FaultStats::downtime_sec);
  add_fault("fault.rebuilds_completed", &FaultStats::rebuilds_completed);
  add_fault("fault.rebuild_sec", &FaultStats::rebuild_sec);
  add_fault("fault.rebuild_bytes", &FaultStats::rebuild_bytes);
  metrics_.AddProbe("fault.mttr_sec", [this] {
    return fault_state_ == nullptr ? 0.0 : fault_state_->MttrSec();
  });
  // Registry-only: live reservation state at collection time.
  metrics_.AddProbe("admission.active_sessions", [this] {
    return admission_ == nullptr
               ? 0.0
               : static_cast<double>(admission_->active_sessions());
  });

  // --- Terminal experience ---
  metrics_.AddProbe("terminal.glitched_terminals", [this] {
    int count = 0;
    for (const auto& terminal : terminals_) {
      if (terminal->stats().glitches > 0) ++count;
    }
    return static_cast<double>(count);
  });
  // Frame-size draws of the display loop since construction (not reset
  // with the stats): window refills, and the sizes the batch kernel
  // redrew on the scalar path during them.
  auto sum_windows = [this](auto field) {
    std::uint64_t sum = 0;
    for (const auto& terminal : terminals_) {
      sum += field(terminal->frame_window());
    }
    return static_cast<double>(sum);
  };
  metrics_.AddProbe("terminal.frame_window_refills", [sum_windows] {
    return sum_windows([](const auto& w) { return w.refills(); });
  });
  metrics_.AddProbe("terminal.display_scalar_draws", [sum_windows] {
    return sum_windows([](const auto& w) { return w.scalar_draws(); });
  });
  metrics_.AddProbe("terminal.response_ms.avg", [this] {
    double sum = 0.0;
    std::uint64_t total_blocks = 0;
    for (const auto& terminal : terminals_) {
      sum += terminal->stats().response_sketch.sum();
      total_blocks += terminal->stats().blocks_received;
    }
    return total_blocks == 0 ? 0.0 : sum / total_blocks * 1e3;
  });
  // Response-time and deadline-slack distributions, as mergeable <=1%
  // relative-error sketches; the SimMetrics percentiles come from here.
  metrics_.AddSketchProbe(
      "terminal.response_sec_sketch", [this](obs::QuantileSketch& s) {
        for (const auto& terminal : terminals_) {
          s.Merge(terminal->stats().response_sketch);
        }
      });
  auto response_ms_quantile = [this](double q) {
    return metrics_.GetSketch("terminal.response_sec_sketch").Quantile(q) *
           1e3;
  };
  metrics_.AddProbe("terminal.response_ms.p50", [response_ms_quantile] {
    return response_ms_quantile(0.5);
  });
  metrics_.AddProbe("terminal.response_ms.p99", [response_ms_quantile] {
    return response_ms_quantile(0.99);
  });
  metrics_.AddProbe("terminal.deadline_slack_ms.avg", [this] {
    double sum = 0.0;
    std::uint64_t count = 0;
    for (const auto& terminal : terminals_) {
      sum += terminal->stats().slack_sketch.sum();
      count += terminal->stats().slack_sketch.count();
    }
    return count == 0 ? 0.0 : sum / count * 1e3;
  });
  metrics_.AddSketchProbe(
      "terminal.deadline_slack_sec_sketch", [this](obs::QuantileSketch& s) {
        for (const auto& terminal : terminals_) {
          s.Merge(terminal->stats().slack_sketch);
        }
      });

  // --- Buffer pool, prefetch and proxy levels ---
  metrics_.AddProbe("fault.prefetches_skipped_dead", [this] {
    std::uint64_t sum = 0;
    for (int n = 0; n < server_->num_nodes(); ++n) {
      const server::Node& node = server_->node(n);
      sum += node.fault_stats().prefetches_skipped_dead;
      for (int d = 0; d < node.num_disks(); ++d) {
        sum += node.prefetcher(d).stats().dropped_disk_down;
      }
    }
    return static_cast<double>(sum);
  });
  metrics_.AddProbe("pool.pinned_pages", [this] {
    std::int64_t sum = 0;
    for (int n = 0; n < server_->num_nodes(); ++n) {
      sum += server_->node(n).pool().pinned_pages();
    }
    return static_cast<double>(sum);
  });
  metrics_.AddProbe("proxy.forward_ms.avg", [this] {
    double sum = 0.0;
    std::uint64_t count = 0;
    for (const auto& proxy : proxies_) {
      sum += proxy->stats().forward_latency.sum();
      count += proxy->stats().forward_latency.count();
    }
    return count == 0 ? 0.0 : sum / count * 1e3;
  });
  // Registry-only: cache occupancy across the tier at collection time.
  metrics_.AddProbe("proxy.pages_in_use", [this] {
    std::int64_t sum = 0;
    for (const auto& proxy : proxies_) {
      sum += proxy->cache().pages_in_use();
    }
    return static_cast<double>(sum);
  });

  // --- Disks & CPU ---
  auto for_each_disk = [this](auto visit) {
    for (int n = 0; n < server_->num_nodes(); ++n) {
      const server::Node& node = server_->node(n);
      for (int d = 0; d < node.num_disks(); ++d) visit(node.disk(d));
    }
  };
  metrics_.AddProbe("disk.reads", [for_each_disk] {
    std::uint64_t sum = 0;
    for_each_disk([&](const hw::Disk& disk) { sum += disk.requests_served(); });
    return static_cast<double>(sum);
  });
  metrics_.AddProbe("disk.utilization.avg", [this, for_each_disk] {
    double sum = 0.0;
    int total_disks = 0;
    sim::SimTime now = env_->now();
    for_each_disk([&](const hw::Disk& disk) {
      sum += disk.AverageUtilization(now);
      ++total_disks;
    });
    return sum / total_disks;
  });
  metrics_.AddProbe("disk.utilization.min", [this, for_each_disk] {
    double min = 1.0;
    sim::SimTime now = env_->now();
    for_each_disk([&](const hw::Disk& disk) {
      min = std::min(min, disk.AverageUtilization(now));
    });
    return min;
  });
  metrics_.AddProbe("disk.utilization.max", [this, for_each_disk] {
    double max = 0.0;
    sim::SimTime now = env_->now();
    for_each_disk([&](const hw::Disk& disk) {
      max = std::max(max, disk.AverageUtilization(now));
    });
    return max;
  });
  metrics_.AddProbe("cpu.utilization.avg", [this] {
    double sum = 0.0;
    sim::SimTime now = env_->now();
    for (int n = 0; n < server_->num_nodes(); ++n) {
      sum += server_->node(n).cpu().AverageUtilization(now);
    }
    return sum / server_->num_nodes();
  });
  // Queue-wait vs service breakdown: service_ms.avg is the mechanical
  // half; queue_wait_ms.avg is the time requests spent waiting for the
  // head before being picked by the scheduler.
  auto disk_tally_ms = [for_each_disk](auto tally_of) {
    double sum = 0.0;
    std::uint64_t count = 0;
    for_each_disk([&](const hw::Disk& disk) {
      sum += tally_of(disk).sum();
      count += tally_of(disk).count();
    });
    return count == 0 ? 0.0 : sum / count * 1e3;
  };
  metrics_.AddProbe("disk.service_ms.avg", [disk_tally_ms] {
    return disk_tally_ms([](const hw::Disk& disk) -> const auto& {
      return disk.service_tally();
    });
  });
  metrics_.AddProbe("disk.queue_wait_ms.avg", [disk_tally_ms] {
    return disk_tally_ms([](const hw::Disk& disk) -> const auto& {
      return disk.queue_wait_tally();
    });
  });
  metrics_.AddProbe("disk.seek_cylinders.avg", [for_each_disk] {
    double sum = 0.0;
    std::uint64_t count = 0;
    for_each_disk([&](const hw::Disk& disk) {
      sum += disk.seek_distance_tally().sum();
      count += disk.service_tally().count();
    });
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  });

  // --- Network ---
  metrics_.AddProbe("network.peak_bytes_per_sec", [this] {
    return static_cast<double>(network_->peak_bytes_per_bucket()) /
           config_.network.bandwidth_bucket_sec;
  });
  metrics_.AddProbe("network.avg_bytes_per_sec", [this] {
    return network_->AverageBandwidth(env_->now());
  });

  // --- Kernel self-profile ---
  metrics_.AddProbe("kernel.events_fired", [this] {
    return static_cast<double>(env_->events_fired());
  });
  metrics_.AddProbe("kernel.peak_calendar_size", [this] {
    return static_cast<double>(env_->peak_calendar_size());
  });
  metrics_.AddProbe("kernel.calendar_grows", [this] {
    return static_cast<double>(env_->calendar_storage_grows());
  });
  metrics_.AddProbe("kernel.calendar_lane_fires", [this] {
    return static_cast<double>(env_->calendar_lane_fires());
  });
  metrics_.AddProbe("kernel.calendar_sift_levels", [this] {
    return static_cast<double>(env_->calendar_sift_levels());
  });
  metrics_.AddProbe("kernel.peak_processes", [this] {
    return static_cast<double>(env_->peak_processes());
  });
}

obs::Tracer& Simulation::EnableTracing(std::size_t ring_capacity) {
  obs::Tracer& tracer = env_->EnableTracing(ring_capacity);
  tracer.SetProcessName(obs::Tracer::kTerminalsPid, "terminals");
  tracer.SetProcessName(obs::Tracer::kNetworkPid, "network");
  if (fault_state_ != nullptr) {
    tracer.SetProcessName(obs::Tracer::kFaultPid, "faults");
    int total_disks = config_.total_disks();
    for (int g = 0; g < total_disks; ++g) {
      tracer.SetThreadName(obs::Tracer::kFaultPid, g,
                           "disk " + std::to_string(g / config_.disks_per_node) +
                               "." + std::to_string(g % config_.disks_per_node));
    }
    for (int n = 0; n < config_.num_nodes; ++n) {
      tracer.SetThreadName(obs::Tracer::kFaultPid, total_disks + n,
                           "node " + std::to_string(n));
    }
  }
  for (int p = 0; p < num_proxies(); ++p) {
    std::int32_t pid = obs::Tracer::kProxyPidBase + p;
    tracer.SetProcessName(pid, "proxy " + std::to_string(p));
    tracer.SetThreadName(pid, obs::Tracer::kCpuTid, "cache");
  }
  for (int n = 0; n < server_->num_nodes(); ++n) {
    std::int32_t pid = obs::Tracer::kNodePidBase + n;
    tracer.SetProcessName(pid, "node " + std::to_string(n));
    tracer.SetThreadName(pid, obs::Tracer::kCpuTid, "cpu");
    tracer.SetThreadName(pid, obs::Tracer::kPoolTid, "buffer pool");
    for (int d = 0; d < config_.disks_per_node; ++d) {
      tracer.SetThreadName(pid, obs::Tracer::kDiskTidBase + d,
                           "disk " + std::to_string(d));
    }
  }
  return tracer;
}

SimMetrics Simulation::Run() {
  static const std::atomic<bool> never_cancelled{false};
  SimMetrics metrics;
  bool completed = Run(never_cancelled, &metrics, ProgressFn());
  SPIFFI_CHECK(completed);
  return metrics;
}

bool Simulation::Run(const std::atomic<bool>& cancel, SimMetrics* out,
                     const ProgressFn& progress) {
  SPIFFI_CHECK(out != nullptr);
  // Slice count per phase: fine enough that a moot capacity probe stops
  // within ~2% of its runtime, coarse enough to keep RunUntil overhead
  // invisible. Intermediate slice boundaries fire the same events in the
  // same order as one big RunUntil, and the final boundary is the exact
  // phase end, so results do not depend on the slicing.
  constexpr int kSlicesPerPhase = 50;
  auto wall_start = std::chrono::steady_clock::now();
  const double sim_end = config_.warmup_seconds + config_.measure_seconds;
  auto report_progress = [&](bool in_measurement) {
    if (!progress) return;
    RunProgress p;
    p.sim_now_seconds = env_->now();
    p.sim_end_seconds = sim_end;
    p.events_fired = env_->events_fired();
    p.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    p.in_measurement = in_measurement;
    progress(p);
  };

  for (int i = 1; i <= kSlicesPerPhase; ++i) {
    if (cancel.load(std::memory_order_relaxed)) return false;
    sim::SimTime end = i == kSlicesPerPhase
                           ? config_.warmup_seconds
                           : config_.warmup_seconds * i / kSlicesPerPhase;
    env_->RunUntil(end);
    report_progress(false);
  }
  ResetAllStats();
  for (int i = 1; i <= kSlicesPerPhase; ++i) {
    if (cancel.load(std::memory_order_relaxed)) return false;
    sim::SimTime end =
        i == kSlicesPerPhase
            ? measure_start_ + config_.measure_seconds
            : measure_start_ + config_.measure_seconds * i / kSlicesPerPhase;
    env_->RunUntil(end);
    report_progress(true);
  }

  *out = Collect();
  if (RunObserver observer = CurrentRunObserver()) {
    RunProfile profile;
    profile.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    profile.terminals = config_.terminals;
    profile.sim_seconds = sim_end;
    profile.seed = config_.seed;
    profile.config_digest = ConfigDigest(config_);
    profile.config_summary = config_.Describe();
    profile.config_knobs = FormatConfig(config_);
    profile.metrics = *out;
    profile.kernel = obs::CaptureKernelProfile(*env_);
    profile.frame_window_refills = static_cast<std::uint64_t>(
        metrics_.Value("terminal.frame_window_refills"));
    profile.display_scalar_draws = static_cast<std::uint64_t>(
        metrics_.Value("terminal.display_scalar_draws"));
    observer(profile);
  }
  return true;
}

SimMetrics RunSimulation(const SimConfig& config) {
  Simulation simulation(config);
  return simulation.Run();
}

}  // namespace spiffi::vod
