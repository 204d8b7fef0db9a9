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
  return mpeg::SharedLibrary(key);
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
      blocks[v] = library_->NumBlocks(v, config.stripe_bytes);
    }
    layout_ = std::make_unique<layout::StripedLayout>(
        config.num_nodes, config.disks_per_node, config.stripe_bytes,
        std::move(blocks));
  } else if (config.placement == VideoPlacement::kReplicatedStriped) {
    std::vector<std::int64_t> blocks(config.num_videos());
    for (int v = 0; v < config.num_videos(); ++v) {
      blocks[v] = library_->NumBlocks(v, config.stripe_bytes);
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
  node_config.block_bytes = config.stripe_bytes;
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

  // Tier routing is always resolvable (proxy hop == -1 when the tier is
  // off); proxy nodes themselves exist only when configured, so a
  // zero-proxy run schedules no proxy events and stays bit-identical to
  // the flat topology.
  router_ =
      std::make_unique<layout::TierRouter>(layout_.get(), config.proxy_nodes);
  if (config.proxy_nodes > 0) {
    proxies_.reserve(config.proxy_nodes);
    for (int p = 0; p < config.proxy_nodes; ++p) {
      proxy::ProxyParams proxy_params;
      proxy_params.id = p;
      proxy_params.cache_pages = config.proxy_cache_pages;
      proxy_params.policy = config.proxy_policy;
      proxy_params.recompute_sec = config.proxy_recompute_sec;
      proxy_params.block_bytes = config.stripe_bytes;
      proxy_params.retry_budget = config.request_retry_budget;
      proxy_params.retry_min_timeout_sec = config.retry_min_timeout_sec;
      proxy_params.retry_backoff_base_sec = config.retry_backoff_base_sec;
      proxies_.push_back(std::make_unique<proxy::ProxyNode>(
          env_.get(), proxy_params, network_.get(), server_.get(),
          router_.get(), library_.get(), fault_state_.get()));
    }
  }

  // Terminals, with staggered starts.
  client::TerminalParams terminal_params;
  terminal_params.memory_bytes = config.terminal_memory_bytes;
  terminal_params.block_bytes = config.stripe_bytes;
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
    server::MessageSink* ingress =
        proxies_.empty() ? nullptr
                         : proxies_[router_->ProxyForTerminal(t)].get();
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
    const std::int64_t blocks =
        library_->NumBlocks(v, config_.stripe_bytes);
    const std::int64_t total = library_->video(v).total_bytes();
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
      const std::int64_t bytes = std::min<std::int64_t>(
          config_.stripe_bytes, total - b * config_.stripe_bytes);
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
  metrics_.Reset();  // owned instruments; probes read the state above
  measure_start_ = now;
}

void Simulation::RunMeasurement() {
  env_->RunUntil(measure_start_ + config_.measure_seconds);
}

SimMetrics Simulation::CollectDirect() const {
  SimMetrics m;
  m.terminals = config_.terminals;
  sim::SimTime now = env_->now();
  m.measured_seconds = now - measure_start_;

  obs::QuantileSketch response_sketch;
  for (const auto& terminal : terminals_) {
    const auto& stats = terminal->stats();
    m.glitches += stats.glitches;
    if (stats.glitches > 0) ++m.terminals_with_glitches;
    m.frames_displayed += stats.frames_displayed;
    m.videos_completed += stats.videos_completed;
    // Sum first; normalized to a mean after the loop.
    m.avg_response_ms += stats.response_time.sum();
    response_sketch.Merge(stats.response_sketch);
  }
  m.p50_response_ms = response_sketch.Quantile(0.5) * 1e3;
  m.p99_response_ms = response_sketch.Quantile(0.99) * 1e3;
  std::uint64_t total_blocks = 0;
  for (const auto& terminal : terminals_) {
    total_blocks += terminal->stats().blocks_received;
  }
  m.avg_response_ms =
      total_blocks == 0 ? 0.0 : m.avg_response_ms / total_blocks * 1e3;

  double disk_util_sum = 0.0;
  double disk_util_min = 1.0;
  double disk_util_max = 0.0;
  double service_sum = 0.0;
  double seek_sum = 0.0;
  std::uint64_t service_count = 0;
  double cpu_util_sum = 0.0;
  int total_disks = 0;

  for (int n = 0; n < server_->num_nodes(); ++n) {
    const server::Node& node = server_->node(n);
    cpu_util_sum += node.cpu().AverageUtilization(now);
    const auto& pool_stats = node.pool().stats();
    m.buffer_references += pool_stats.references;
    m.buffer_hits += pool_stats.hits;
    m.buffer_attaches += pool_stats.attaches;
    m.buffer_misses += pool_stats.misses;
    m.shared_references += pool_stats.shared_refs;
    m.wasted_prefetches += pool_stats.wasted_prefetches;
    m.prefix_hits += pool_stats.prefix_hits;
    m.prefix_pinned_pages += node.pool().pinned_pages();
    for (int d = 0; d < node.num_disks(); ++d) {
      const hw::Disk& disk = node.disk(d);
      double util = disk.AverageUtilization(now);
      disk_util_sum += util;
      disk_util_min = std::min(disk_util_min, util);
      disk_util_max = std::max(disk_util_max, util);
      m.disk_reads += disk.requests_served();
      service_sum += disk.service_tally().sum();
      seek_sum += disk.seek_distance_tally().sum();
      service_count += disk.service_tally().count();
      ++total_disks;
    }
    for (int d = 0; d < node.num_disks(); ++d) {
      m.prefetches_issued += node.prefetcher(d).stats().issued;
    }
  }
  m.avg_disk_utilization = disk_util_sum / total_disks;
  m.min_disk_utilization = disk_util_min;
  m.max_disk_utilization = disk_util_max;
  m.avg_cpu_utilization = cpu_util_sum / server_->num_nodes();
  if (service_count > 0) {
    m.avg_disk_service_ms = service_sum / service_count * 1e3;
    m.avg_seek_cylinders = seek_sum / static_cast<double>(service_count);
  }

  m.peak_network_bytes_per_sec =
      static_cast<double>(network_->peak_bytes_per_bucket()) /
      config_.network.bandwidth_bucket_sec;
  m.avg_network_bytes_per_sec = network_->AverageBandwidth(now);
  m.events_simulated = env_->events_fired();

  // Stream sharing: all zero when no manager was constructed.
  if (share_ != nullptr) {
    const auto& share_stats = share_->stats();
    m.share_groups = share_stats.groups_formed;
    m.share_followers = share_stats.followers_attached;
    m.share_patches = share_stats.patchers_attached;
    m.share_patch_seconds = share_stats.patch_seconds_total;
    m.share_handoffs = share_stats.leader_handoffs;
  }

  // Proxy tier: all zero when no proxies are configured.
  double proxy_forward_sum = 0.0;
  std::uint64_t proxy_forward_count = 0;
  for (const auto& proxy : proxies_) {
    const auto& proxy_stats = proxy->stats();
    m.proxy_references += proxy_stats.references;
    m.proxy_hits += proxy_stats.hits;
    m.proxy_attaches += proxy_stats.attaches;
    m.proxy_forwards += proxy_stats.forwards;
    m.proxy_bytes_from_cache += proxy_stats.bytes_from_cache;
    proxy_forward_sum += proxy_stats.forward_latency.sum();
    proxy_forward_count += proxy_stats.forward_latency.count();
  }
  m.avg_proxy_forward_ms =
      proxy_forward_count == 0
          ? 0.0
          : proxy_forward_sum / proxy_forward_count * 1e3;

  // Availability: all zero on healthy runs (no FaultState).
  if (fault_state_ != nullptr) {
    fault::FaultState::Stats fstats = fault_state_->StatsAt(now);
    m.faults_injected = fstats.faults_injected;
    m.repairs_completed = fstats.repairs_completed;
    m.mttr_sec = fault_state_->MttrSec();
    m.fault_downtime_sec = fstats.downtime_sec;
    m.rebuilds_completed = fstats.rebuilds_completed;
    m.rebuild_sec = fstats.rebuild_sec;
    m.rebuild_bytes = fstats.rebuild_bytes;
  }
  for (int n = 0; n < server_->num_nodes(); ++n) {
    const server::Node& node = server_->node(n);
    const auto& fstats = node.fault_stats();
    m.rerouted_requests += fstats.rerouted_requests;
    m.degraded_waits += fstats.degraded_waits;
    m.prefetches_skipped_dead += fstats.prefetches_skipped_dead;
    for (int d = 0; d < node.num_disks(); ++d) {
      m.prefetches_skipped_dead +=
          node.prefetcher(d).stats().dropped_disk_down;
    }
  }
  for (const auto& terminal : terminals_) {
    m.requests_redirected += terminal->stats().requests_redirected;
    m.blocks_rerouted += terminal->stats().blocks_rerouted;
  }

  // Resilience layer: all zero when admission control, request retry,
  // and rebuild are off.
  if (admission_ != nullptr) {
    const auto& astats = admission_->stats();
    m.admission_admits = static_cast<std::uint64_t>(astats.admits);
    m.admission_rejects = static_cast<std::uint64_t>(astats.rejects);
    m.admission_defers = static_cast<std::uint64_t>(astats.defers);
    m.failover_readmissions =
        static_cast<std::uint64_t>(astats.failover_readmissions);
  }
  for (const auto& terminal : terminals_) {
    const auto& tstats = terminal->stats();
    m.request_retries += tstats.request_retries;
    m.retries_exhausted += tstats.retries_exhausted;
    m.session_failovers += tstats.session_failovers;
    m.duplicate_replies += tstats.duplicate_replies;
  }
  for (const auto& proxy : proxies_) {
    m.proxy_forward_retries += proxy->stats().forward_retries;
    m.proxy_stale_replies += proxy->stats().stale_replies;
  }
  return m;
}

SimMetrics Simulation::Collect() const {
  SimMetrics m;
  m.terminals = config_.terminals;
  m.measured_seconds = metrics_.Value("sim.measured_seconds");

  m.glitches =
      static_cast<std::uint64_t>(metrics_.Value("terminal.glitches"));
  m.terminals_with_glitches =
      static_cast<int>(metrics_.Value("terminal.glitched_terminals"));
  m.frames_displayed = static_cast<std::uint64_t>(
      metrics_.Value("terminal.frames_displayed"));
  m.videos_completed = static_cast<std::uint64_t>(
      metrics_.Value("terminal.videos_completed"));
  m.avg_response_ms = metrics_.Value("terminal.response_ms.avg");
  obs::QuantileSketch response =
      metrics_.GetSketch("terminal.response_sec_sketch");
  m.p50_response_ms = response.Quantile(0.5) * 1e3;
  m.p99_response_ms = response.Quantile(0.99) * 1e3;

  m.buffer_references =
      static_cast<std::uint64_t>(metrics_.Value("pool.references"));
  m.buffer_hits = static_cast<std::uint64_t>(metrics_.Value("pool.hits"));
  m.buffer_attaches =
      static_cast<std::uint64_t>(metrics_.Value("pool.attaches"));
  m.buffer_misses =
      static_cast<std::uint64_t>(metrics_.Value("pool.misses"));
  m.shared_references =
      static_cast<std::uint64_t>(metrics_.Value("pool.shared_refs"));
  m.wasted_prefetches =
      static_cast<std::uint64_t>(metrics_.Value("pool.wasted_prefetches"));
  m.prefetches_issued =
      static_cast<std::uint64_t>(metrics_.Value("prefetch.issued"));

  m.disk_reads = static_cast<std::uint64_t>(metrics_.Value("disk.reads"));
  m.avg_disk_utilization = metrics_.Value("disk.utilization.avg");
  m.min_disk_utilization = metrics_.Value("disk.utilization.min");
  m.max_disk_utilization = metrics_.Value("disk.utilization.max");
  m.avg_cpu_utilization = metrics_.Value("cpu.utilization.avg");
  m.avg_disk_service_ms = metrics_.Value("disk.service_ms.avg");
  m.avg_seek_cylinders = metrics_.Value("disk.seek_cylinders.avg");

  m.peak_network_bytes_per_sec =
      metrics_.Value("network.peak_bytes_per_sec");
  m.avg_network_bytes_per_sec = metrics_.Value("network.avg_bytes_per_sec");
  m.events_simulated =
      static_cast<std::uint64_t>(metrics_.Value("kernel.events_fired"));

  m.share_groups =
      static_cast<std::uint64_t>(metrics_.Value("share.groups_formed"));
  m.share_followers =
      static_cast<std::uint64_t>(metrics_.Value("share.followers"));
  m.share_patches =
      static_cast<std::uint64_t>(metrics_.Value("share.patches"));
  m.share_patch_seconds = metrics_.Value("share.patch_seconds");
  m.share_handoffs =
      static_cast<std::uint64_t>(metrics_.Value("share.handoffs"));
  m.prefix_hits =
      static_cast<std::uint64_t>(metrics_.Value("pool.prefix_hits"));
  m.prefix_pinned_pages =
      static_cast<std::int64_t>(metrics_.Value("pool.pinned_pages"));

  m.proxy_references =
      static_cast<std::uint64_t>(metrics_.Value("proxy.references"));
  m.proxy_hits = static_cast<std::uint64_t>(metrics_.Value("proxy.hits"));
  m.proxy_attaches =
      static_cast<std::uint64_t>(metrics_.Value("proxy.attaches"));
  m.proxy_forwards =
      static_cast<std::uint64_t>(metrics_.Value("proxy.forwards"));
  m.proxy_bytes_from_cache = static_cast<std::uint64_t>(
      metrics_.Value("proxy.bytes_from_cache"));
  m.avg_proxy_forward_ms = metrics_.Value("proxy.forward_ms.avg");

  m.faults_injected =
      static_cast<std::uint64_t>(metrics_.Value("fault.faults_injected"));
  m.repairs_completed =
      static_cast<std::uint64_t>(metrics_.Value("fault.repairs_completed"));
  m.mttr_sec = metrics_.Value("fault.mttr_sec");
  m.fault_downtime_sec = metrics_.Value("fault.downtime_sec");
  m.rerouted_requests =
      static_cast<std::uint64_t>(metrics_.Value("fault.rerouted_requests"));
  m.degraded_waits =
      static_cast<std::uint64_t>(metrics_.Value("fault.degraded_waits"));
  m.prefetches_skipped_dead = static_cast<std::uint64_t>(
      metrics_.Value("fault.prefetches_skipped_dead"));
  m.requests_redirected = static_cast<std::uint64_t>(
      metrics_.Value("fault.requests_redirected"));
  m.blocks_rerouted =
      static_cast<std::uint64_t>(metrics_.Value("fault.blocks_rerouted"));

  m.admission_admits =
      static_cast<std::uint64_t>(metrics_.Value("admission.admits"));
  m.admission_rejects =
      static_cast<std::uint64_t>(metrics_.Value("admission.rejects"));
  m.admission_defers =
      static_cast<std::uint64_t>(metrics_.Value("admission.defers"));
  m.failover_readmissions = static_cast<std::uint64_t>(
      metrics_.Value("admission.failover_readmissions"));
  m.request_retries = static_cast<std::uint64_t>(
      metrics_.Value("terminal.request_retries"));
  m.retries_exhausted = static_cast<std::uint64_t>(
      metrics_.Value("terminal.retries_exhausted"));
  m.session_failovers = static_cast<std::uint64_t>(
      metrics_.Value("terminal.session_failovers"));
  m.duplicate_replies = static_cast<std::uint64_t>(
      metrics_.Value("terminal.duplicate_replies"));
  m.proxy_forward_retries = static_cast<std::uint64_t>(
      metrics_.Value("proxy.forward_retries"));
  m.proxy_stale_replies =
      static_cast<std::uint64_t>(metrics_.Value("proxy.stale_replies"));
  m.rebuilds_completed = static_cast<std::uint64_t>(
      metrics_.Value("fault.rebuilds_completed"));
  m.rebuild_sec = metrics_.Value("fault.rebuild_sec");
  m.rebuild_bytes =
      static_cast<std::uint64_t>(metrics_.Value("fault.rebuild_bytes"));
  return m;
}

void Simulation::RegisterMetrics() {
  // Every probe below replicates the corresponding CollectDirect()
  // computation exactly — same loops, same accumulation order — so the
  // registry path is bit-identical to the direct path (enforced by
  // tests/vod/metrics_regression_test.cc). Change both together.
  metrics_.AddProbe("sim.measured_seconds",
                    [this] { return env_->now() - measure_start_; });

  // --- Terminal experience ---
  auto sum_terminals = [this](auto field) {
    std::uint64_t sum = 0;
    for (const auto& terminal : terminals_) {
      sum += field(terminal->stats());
    }
    return static_cast<double>(sum);
  };
  metrics_.AddProbe("terminal.glitches", [sum_terminals] {
    return sum_terminals([](const auto& s) { return s.glitches; });
  });
  metrics_.AddProbe("terminal.glitched_terminals", [this] {
    int count = 0;
    for (const auto& terminal : terminals_) {
      if (terminal->stats().glitches > 0) ++count;
    }
    return static_cast<double>(count);
  });
  metrics_.AddProbe("terminal.frames_displayed", [sum_terminals] {
    return sum_terminals([](const auto& s) { return s.frames_displayed; });
  });
  metrics_.AddProbe("terminal.videos_completed", [sum_terminals] {
    return sum_terminals([](const auto& s) { return s.videos_completed; });
  });
  metrics_.AddProbe("terminal.blocks_received", [sum_terminals] {
    return sum_terminals([](const auto& s) { return s.blocks_received; });
  });
  metrics_.AddProbe("terminal.requests_sent", [sum_terminals] {
    return sum_terminals([](const auto& s) { return s.requests_sent; });
  });
  metrics_.AddProbe("terminal.stale_replies", [sum_terminals] {
    return sum_terminals([](const auto& s) { return s.stale_replies; });
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
    for (const auto& terminal : terminals_) {
      sum += terminal->stats().response_time.sum();
    }
    std::uint64_t total_blocks = 0;
    for (const auto& terminal : terminals_) {
      total_blocks += terminal->stats().blocks_received;
    }
    return total_blocks == 0 ? 0.0 : sum / total_blocks * 1e3;
  });
  metrics_.AddHistogramProbe(
      "terminal.response_sec", [this](sim::Histogram& h) {
        for (const auto& terminal : terminals_) {
          h.Merge(terminal->stats().response_histogram);
        }
      });
  // The sketch carries the same samples at <=1% relative error; the
  // SimMetrics percentiles come from here, the coarse histogram above is
  // the regression reference.
  metrics_.AddSketchProbe(
      "terminal.response_sec_sketch", [this](obs::QuantileSketch& s) {
        for (const auto& terminal : terminals_) {
          s.Merge(terminal->stats().response_sketch);
        }
      });

  // --- Deadline slack & glitch attribution (derived; registry-only) ---
  metrics_.AddProbe("terminal.deadline_slack_ms.avg", [this] {
    double sum = 0.0;
    std::uint64_t count = 0;
    for (const auto& terminal : terminals_) {
      sum += terminal->stats().deadline_slack.sum();
      count += terminal->stats().deadline_slack.count();
    }
    return count == 0 ? 0.0 : sum / count * 1e3;
  });
  metrics_.AddHistogramProbe(
      "terminal.deadline_slack_sec", [this](sim::Histogram& h) {
        for (const auto& terminal : terminals_) {
          h.Merge(terminal->stats().slack_histogram);
        }
      });
  metrics_.AddSketchProbe(
      "terminal.deadline_slack_sec_sketch", [this](obs::QuantileSketch& s) {
        for (const auto& terminal : terminals_) {
          s.Merge(terminal->stats().slack_sketch);
        }
      });
  metrics_.AddProbe("terminal.late_blocks", [sum_terminals] {
    return sum_terminals([](const auto& s) { return s.late_blocks; });
  });
  metrics_.AddProbe("terminal.late_attrib.network", [sum_terminals] {
    return sum_terminals(
        [](const auto& s) { return s.late_attrib_network; });
  });
  metrics_.AddProbe("terminal.late_attrib.server_cpu", [sum_terminals] {
    return sum_terminals(
        [](const auto& s) { return s.late_attrib_server_cpu; });
  });
  metrics_.AddProbe("terminal.late_attrib.disk_queue", [sum_terminals] {
    return sum_terminals(
        [](const auto& s) { return s.late_attrib_disk_queue; });
  });
  metrics_.AddProbe("terminal.late_attrib.disk_service", [sum_terminals] {
    return sum_terminals(
        [](const auto& s) { return s.late_attrib_disk_service; });
  });
  metrics_.AddProbe("terminal.late_attrib.fault", [sum_terminals] {
    return sum_terminals([](const auto& s) { return s.late_attrib_fault; });
  });

  // --- Availability (registered unconditionally; every probe reads zero
  // on healthy runs so exports have a stable schema) ---
  metrics_.AddProbe("fault.faults_injected", [this] {
    return fault_state_ == nullptr
               ? 0.0
               : static_cast<double>(
                     fault_state_->StatsAt(env_->now()).faults_injected);
  });
  metrics_.AddProbe("fault.repairs_completed", [this] {
    return fault_state_ == nullptr
               ? 0.0
               : static_cast<double>(
                     fault_state_->StatsAt(env_->now()).repairs_completed);
  });
  metrics_.AddProbe("fault.mttr_sec", [this] {
    return fault_state_ == nullptr ? 0.0 : fault_state_->MttrSec();
  });
  metrics_.AddProbe("fault.downtime_sec", [this] {
    return fault_state_ == nullptr
               ? 0.0
               : fault_state_->StatsAt(env_->now()).downtime_sec;
  });
  auto sum_node_fault = [this](auto field) {
    std::uint64_t sum = 0;
    for (int n = 0; n < server_->num_nodes(); ++n) {
      sum += field(server_->node(n).fault_stats());
    }
    return static_cast<double>(sum);
  };
  metrics_.AddProbe("fault.rerouted_requests", [sum_node_fault] {
    return sum_node_fault(
        [](const auto& s) { return s.rerouted_requests; });
  });
  metrics_.AddProbe("fault.degraded_waits", [sum_node_fault] {
    return sum_node_fault([](const auto& s) { return s.degraded_waits; });
  });
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
  metrics_.AddProbe("fault.requests_redirected", [sum_terminals] {
    return sum_terminals(
        [](const auto& s) { return s.requests_redirected; });
  });
  metrics_.AddProbe("fault.blocks_rerouted", [sum_terminals] {
    return sum_terminals([](const auto& s) { return s.blocks_rerouted; });
  });
  metrics_.AddProbe("fault.rebuilds_completed", [this] {
    return fault_state_ == nullptr
               ? 0.0
               : static_cast<double>(
                     fault_state_->StatsAt(env_->now()).rebuilds_completed);
  });
  metrics_.AddProbe("fault.rebuild_sec", [this] {
    return fault_state_ == nullptr
               ? 0.0
               : fault_state_->StatsAt(env_->now()).rebuild_sec;
  });
  metrics_.AddProbe("fault.rebuild_bytes", [this] {
    return fault_state_ == nullptr
               ? 0.0
               : static_cast<double>(
                     fault_state_->StatsAt(env_->now()).rebuild_bytes);
  });

  // --- Resilience (unconditional; every probe reads zero when admission
  // control and request retry are off) ---
  metrics_.AddProbe("admission.admits", [this] {
    return admission_ == nullptr
               ? 0.0
               : static_cast<double>(admission_->stats().admits);
  });
  metrics_.AddProbe("admission.rejects", [this] {
    return admission_ == nullptr
               ? 0.0
               : static_cast<double>(admission_->stats().rejects);
  });
  metrics_.AddProbe("admission.defers", [this] {
    return admission_ == nullptr
               ? 0.0
               : static_cast<double>(admission_->stats().defers);
  });
  metrics_.AddProbe("admission.failover_readmissions", [this] {
    return admission_ == nullptr
               ? 0.0
               : static_cast<double>(
                     admission_->stats().failover_readmissions);
  });
  // Registry-only: live reservation state at collection time.
  metrics_.AddProbe("admission.active_sessions", [this] {
    return admission_ == nullptr
               ? 0.0
               : static_cast<double>(admission_->active_sessions());
  });
  metrics_.AddProbe("terminal.request_retries", [sum_terminals] {
    return sum_terminals([](const auto& s) { return s.request_retries; });
  });
  metrics_.AddProbe("terminal.retries_exhausted", [sum_terminals] {
    return sum_terminals([](const auto& s) { return s.retries_exhausted; });
  });
  metrics_.AddProbe("terminal.session_failovers", [sum_terminals] {
    return sum_terminals([](const auto& s) { return s.session_failovers; });
  });
  metrics_.AddProbe("terminal.duplicate_replies", [sum_terminals] {
    return sum_terminals([](const auto& s) { return s.duplicate_replies; });
  });

  // --- Buffer pool & prefetch (summed over nodes) ---
  auto sum_pool = [this](auto field) {
    std::uint64_t sum = 0;
    for (int n = 0; n < server_->num_nodes(); ++n) {
      sum += field(server_->node(n).pool().stats());
    }
    return static_cast<double>(sum);
  };
  metrics_.AddProbe("pool.references", [sum_pool] {
    return sum_pool([](const auto& s) { return s.references; });
  });
  metrics_.AddProbe("pool.hits", [sum_pool] {
    return sum_pool([](const auto& s) { return s.hits; });
  });
  metrics_.AddProbe("pool.attaches", [sum_pool] {
    return sum_pool([](const auto& s) { return s.attaches; });
  });
  metrics_.AddProbe("pool.misses", [sum_pool] {
    return sum_pool([](const auto& s) { return s.misses; });
  });
  metrics_.AddProbe("pool.shared_refs", [sum_pool] {
    return sum_pool([](const auto& s) { return s.shared_refs; });
  });
  metrics_.AddProbe("pool.evictions", [sum_pool] {
    return sum_pool([](const auto& s) { return s.evictions; });
  });
  metrics_.AddProbe("pool.wasted_prefetches", [sum_pool] {
    return sum_pool([](const auto& s) { return s.wasted_prefetches; });
  });
  metrics_.AddProbe("pool.allocation_stalls", [sum_pool] {
    return sum_pool([](const auto& s) { return s.allocation_stalls; });
  });
  metrics_.AddProbe("pool.prefix_hits", [sum_pool] {
    return sum_pool([](const auto& s) { return s.prefix_hits; });
  });
  metrics_.AddProbe("pool.pinned_pages", [this] {
    std::int64_t sum = 0;
    for (int n = 0; n < server_->num_nodes(); ++n) {
      sum += server_->node(n).pool().pinned_pages();
    }
    return static_cast<double>(sum);
  });

  // --- Stream sharing (all zero when no manager is constructed) ---
  metrics_.AddProbe("share.groups_formed", [this] {
    return share_ == nullptr
               ? 0.0
               : static_cast<double>(share_->stats().groups_formed);
  });
  metrics_.AddProbe("share.followers", [this] {
    return share_ == nullptr
               ? 0.0
               : static_cast<double>(share_->stats().followers_attached);
  });
  metrics_.AddProbe("share.patches", [this] {
    return share_ == nullptr
               ? 0.0
               : static_cast<double>(share_->stats().patchers_attached);
  });
  metrics_.AddProbe("share.patch_seconds", [this] {
    return share_ == nullptr ? 0.0 : share_->stats().patch_seconds_total;
  });
  metrics_.AddProbe("share.handoffs", [this] {
    return share_ == nullptr
               ? 0.0
               : static_cast<double>(share_->stats().leader_handoffs);
  });
  // --- Proxy tier (registered unconditionally; the loops read zero when
  // no proxies exist so exports keep a stable schema) ---
  auto sum_proxy = [this](auto field) {
    std::uint64_t sum = 0;
    for (const auto& proxy : proxies_) {
      sum += field(proxy->stats());
    }
    return static_cast<double>(sum);
  };
  metrics_.AddProbe("proxy.references", [sum_proxy] {
    return sum_proxy([](const auto& s) { return s.references; });
  });
  metrics_.AddProbe("proxy.hits", [sum_proxy] {
    return sum_proxy([](const auto& s) { return s.hits; });
  });
  metrics_.AddProbe("proxy.attaches", [sum_proxy] {
    return sum_proxy([](const auto& s) { return s.attaches; });
  });
  metrics_.AddProbe("proxy.forwards", [sum_proxy] {
    return sum_proxy([](const auto& s) { return s.forwards; });
  });
  metrics_.AddProbe("proxy.bytes_from_cache", [sum_proxy] {
    return sum_proxy([](const auto& s) { return s.bytes_from_cache; });
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
  metrics_.AddProbe("proxy.forward_retries", [sum_proxy] {
    return sum_proxy([](const auto& s) { return s.forward_retries; });
  });
  metrics_.AddProbe("proxy.stale_replies", [sum_proxy] {
    return sum_proxy([](const auto& s) { return s.stale_replies; });
  });
  // Registry-only: cache occupancy across the tier at collection time.
  metrics_.AddProbe("proxy.pages_in_use", [this] {
    std::int64_t sum = 0;
    for (const auto& proxy : proxies_) {
      sum += proxy->cache().pages_in_use();
    }
    return static_cast<double>(sum);
  });

  auto sum_prefetch = [this](auto field) {
    std::uint64_t sum = 0;
    for (int n = 0; n < server_->num_nodes(); ++n) {
      const server::Node& node = server_->node(n);
      for (int d = 0; d < node.num_disks(); ++d) {
        sum += field(node.prefetcher(d).stats());
      }
    }
    return static_cast<double>(sum);
  };
  metrics_.AddProbe("prefetch.issued", [sum_prefetch] {
    return sum_prefetch([](const auto& s) { return s.issued; });
  });
  metrics_.AddProbe("prefetch.enqueued", [sum_prefetch] {
    return sum_prefetch([](const auto& s) { return s.enqueued; });
  });
  metrics_.AddProbe("prefetch.duplicates_dropped", [sum_prefetch] {
    return sum_prefetch(
        [](const auto& s) { return s.duplicates_dropped; });
  });
  metrics_.AddProbe("prefetch.already_cached", [sum_prefetch] {
    return sum_prefetch([](const auto& s) { return s.already_cached; });
  });

  // --- Disks & CPU ---
  metrics_.AddProbe("disk.reads", [this] {
    std::uint64_t sum = 0;
    for (int n = 0; n < server_->num_nodes(); ++n) {
      const server::Node& node = server_->node(n);
      for (int d = 0; d < node.num_disks(); ++d) {
        sum += node.disk(d).requests_served();
      }
    }
    return static_cast<double>(sum);
  });
  metrics_.AddProbe("disk.utilization.avg", [this] {
    double sum = 0.0;
    int total_disks = 0;
    sim::SimTime now = env_->now();
    for (int n = 0; n < server_->num_nodes(); ++n) {
      const server::Node& node = server_->node(n);
      for (int d = 0; d < node.num_disks(); ++d) {
        sum += node.disk(d).AverageUtilization(now);
        ++total_disks;
      }
    }
    return sum / total_disks;
  });
  metrics_.AddProbe("disk.utilization.min", [this] {
    double min = 1.0;
    sim::SimTime now = env_->now();
    for (int n = 0; n < server_->num_nodes(); ++n) {
      const server::Node& node = server_->node(n);
      for (int d = 0; d < node.num_disks(); ++d) {
        min = std::min(min, node.disk(d).AverageUtilization(now));
      }
    }
    return min;
  });
  metrics_.AddProbe("disk.utilization.max", [this] {
    double max = 0.0;
    sim::SimTime now = env_->now();
    for (int n = 0; n < server_->num_nodes(); ++n) {
      const server::Node& node = server_->node(n);
      for (int d = 0; d < node.num_disks(); ++d) {
        max = std::max(max, node.disk(d).AverageUtilization(now));
      }
    }
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
  metrics_.AddProbe("disk.service_ms.avg", [this] {
    double sum = 0.0;
    std::uint64_t count = 0;
    for (int n = 0; n < server_->num_nodes(); ++n) {
      const server::Node& node = server_->node(n);
      for (int d = 0; d < node.num_disks(); ++d) {
        sum += node.disk(d).service_tally().sum();
        count += node.disk(d).service_tally().count();
      }
    }
    return count == 0 ? 0.0 : sum / count * 1e3;
  });
  metrics_.AddProbe("disk.seek_cylinders.avg", [this] {
    double sum = 0.0;
    std::uint64_t count = 0;
    for (int n = 0; n < server_->num_nodes(); ++n) {
      const server::Node& node = server_->node(n);
      for (int d = 0; d < node.num_disks(); ++d) {
        sum += node.disk(d).seek_distance_tally().sum();
        count += node.disk(d).service_tally().count();
      }
    }
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  });
  // Queue-wait vs service breakdown: service_ms.avg above is the
  // mechanical half; this is the time requests spent waiting for the
  // head before being picked by the scheduler.
  metrics_.AddProbe("disk.queue_wait_ms.avg", [this] {
    double sum = 0.0;
    std::uint64_t count = 0;
    for (int n = 0; n < server_->num_nodes(); ++n) {
      const server::Node& node = server_->node(n);
      for (int d = 0; d < node.num_disks(); ++d) {
        sum += node.disk(d).queue_wait_tally().sum();
        count += node.disk(d).queue_wait_tally().count();
      }
    }
    return count == 0 ? 0.0 : sum / count * 1e3;
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
  bool completed = Run(never_cancelled, &metrics);
  SPIFFI_CHECK(completed);
  return metrics;
}

bool Simulation::Run(const std::atomic<bool>& cancel, SimMetrics* out) {
  return Run(cancel, out, ProgressFn());
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
