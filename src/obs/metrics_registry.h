// Central registry of named metrics (observability layer).
//
// Components register probes at construction time under unique dotted
// names ("pool.hits", "disk.queue_wait_ms.avg", ...). A probe is a
// callback that reads state the component already keeps (its Stats
// struct, a utilization integrator, ...), polled at read/export time;
// the registry owns no state, so opening a measurement window is the
// components' own ResetStats(). Two kinds of probe exist:
//
//  * Scalar probes — one double.
//  * Sketch probes — merge a component's QuantileSketch into the
//    accumulator passed in (a distribution, e.g. response times).
//
// Duplicate registration of a name is a programming error and CHECKs.
// Export: WriteJson emits every entry (sketches as count/mean/min/max and
// p50/p90/p99); WriteCsv emits one name,value row per scalar facet.

#ifndef SPIFFI_OBS_METRICS_REGISTRY_H_
#define SPIFFI_OBS_METRICS_REGISTRY_H_

#include <cstddef>
#include <functional>
#include <map>
#include <ostream>
#include <string>

#include "obs/quantile_sketch.h"

namespace spiffi::obs {

class MetricsRegistry {
 public:
  using ProbeFn = std::function<double()>;
  // Merges the component's quantile sketch into the accumulator.
  using SketchProbeFn = std::function<void(QuantileSketch&)>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- Registration (CHECKs on duplicate names) ---

  void AddProbe(const std::string& name, ProbeFn probe);
  void AddSketchProbe(const std::string& name, SketchProbeFn probe);

  // --- Reads ---

  bool Has(const std::string& name) const;
  std::size_t size() const { return entries_.size(); }

  // Reading of a scalar probe (CHECKs on sketch probes and on unknown
  // names).
  double Value(const std::string& name) const;
  // The scalar probe itself, for callers that read it repeatedly without
  // a lookup by name (same CHECKs as Value()).
  const ProbeFn& Probe(const std::string& name) const;
  // Snapshot of a sketch probe (CHECKs otherwise).
  QuantileSketch GetSketch(const std::string& name) const;

  // --- Export ---

  void WriteJson(std::ostream& out) const;
  void WriteCsv(std::ostream& out) const;

 private:
  // Exactly one of the two is set.
  struct Entry {
    ProbeFn probe;
    SketchProbeFn sketch_probe;
  };

  Entry& Register(const std::string& name);
  const Entry& Find(const std::string& name) const;

  // Ordered map: exports are deterministic and diff-friendly.
  std::map<std::string, Entry> entries_;
};

}  // namespace spiffi::obs

#endif  // SPIFFI_OBS_METRICS_REGISTRY_H_
