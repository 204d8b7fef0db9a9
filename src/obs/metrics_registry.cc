#include "obs/metrics_registry.h"

#include <cstdio>
#include <utility>

#include "obs/json.h"
#include "sim/check.h"

namespace spiffi::obs {

MetricsRegistry::Entry& MetricsRegistry::Register(const std::string& name) {
  SPIFFI_CHECK(!name.empty());
  auto [it, inserted] = entries_.try_emplace(name);
  if (!inserted) {
    std::fprintf(stderr, "duplicate metric registered: %s\n",
                 name.c_str());
  }
  SPIFFI_CHECK(inserted);
  return it->second;
}

const MetricsRegistry::Entry& MetricsRegistry::Find(
    const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::fprintf(stderr, "unknown metric: %s\n", name.c_str());
  }
  SPIFFI_CHECK(it != entries_.end());
  return it->second;
}

void MetricsRegistry::AddProbe(const std::string& name, ProbeFn probe) {
  SPIFFI_CHECK(probe != nullptr);
  Register(name).probe = std::move(probe);
}

void MetricsRegistry::AddSketchProbe(const std::string& name,
                                     SketchProbeFn probe) {
  SPIFFI_CHECK(probe != nullptr);
  Register(name).sketch_probe = std::move(probe);
}

bool MetricsRegistry::Has(const std::string& name) const {
  return entries_.find(name) != entries_.end();
}

double MetricsRegistry::Value(const std::string& name) const {
  return Probe(name)();
}

const MetricsRegistry::ProbeFn& MetricsRegistry::Probe(
    const std::string& name) const {
  const Entry& entry = Find(name);
  SPIFFI_CHECK(entry.probe != nullptr && "requires a scalar probe");
  return entry.probe;
}

QuantileSketch MetricsRegistry::GetSketch(const std::string& name) const {
  const Entry& entry = Find(name);
  SPIFFI_CHECK(entry.sketch_probe != nullptr);
  QuantileSketch merged;
  entry.sketch_probe(merged);
  return merged;
}

namespace {

void WriteSketchJson(std::ostream& out, const QuantileSketch& s) {
  out << "{\"count\":" << s.count() << ",\"mean\":";
  WriteJsonNumber(out, s.mean());
  out << ",\"min\":";
  WriteJsonNumber(out, s.count() == 0 ? 0.0 : s.min());
  out << ",\"max\":";
  WriteJsonNumber(out, s.count() == 0 ? 0.0 : s.max());
  out << ",\"p50\":";
  WriteJsonNumber(out, s.Quantile(0.5));
  out << ",\"p90\":";
  WriteJsonNumber(out, s.Quantile(0.9));
  out << ",\"p99\":";
  WriteJsonNumber(out, s.Quantile(0.99));
  out << '}';
}

}  // namespace

void MetricsRegistry::WriteJson(std::ostream& out) const {
  out << "{\n";
  bool first = true;
  for (const auto& [name, entry] : entries_) {
    if (!first) out << ",\n";
    first = false;
    out << "  \"" << name << "\":";
    if (entry.probe != nullptr) {
      WriteJsonNumber(out, entry.probe());
    } else {
      QuantileSketch merged;
      entry.sketch_probe(merged);
      WriteSketchJson(out, merged);
    }
  }
  out << "\n}\n";
}

void MetricsRegistry::WriteCsv(std::ostream& out) const {
  out << "metric,value\n";
  auto row = [&out](const std::string& name, double value) {
    out << name << ',';
    WriteJsonNumber(out, value);
    out << '\n';
  };
  for (const auto& [name, entry] : entries_) {
    if (entry.probe != nullptr) {
      row(name, entry.probe());
      continue;
    }
    QuantileSketch s;
    entry.sketch_probe(s);
    row(name + ".count", static_cast<double>(s.count()));
    row(name + ".mean", s.mean());
    row(name + ".p50", s.Quantile(0.5));
    row(name + ".p99", s.Quantile(0.99));
  }
}

}  // namespace spiffi::obs
