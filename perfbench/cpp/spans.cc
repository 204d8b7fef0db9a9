#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder(std::string workload)
    : workload_(std::move(workload)),
      epoch_(std::chrono::steady_clock::now()) {}

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int SpanRecorder::Begin(const std::string& name) {
  Span span;
  span.parent = Current();
  span.name = name;
  span.start_s = Now();
  std::lock_guard<std::mutex> lock(mutex_);
  span.id = static_cast<int>(spans_.size());
  spans_.push_back(span);
  open_.push_back(span.id);
  return span.id;
}

void SpanRecorder::End(int id) {
  double now = Now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id].end_s = now;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int SpanRecorder::Current() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return open_.empty() ? -1 : open_.back();
}

void SpanRecorder::Add(const std::string& name, int parent, double start_s,
                       double end_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.name = name;
  span.start_s = start_s;
  span.end_s = end_s;
  spans_.push_back(span);
}

namespace {

// Duration of `span` not covered by the union of its children.
double SelfSeconds(const Span& span,
                   std::vector<std::pair<double, double>> children) {
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double cursor = span.start_s;
  for (auto [start, end] : children) {
    start = std::max(start, cursor);
    end = std::min(end, span.end_s);
    if (end <= start) continue;
    covered += end - start;
    cursor = end;
  }
  return std::max(0.0, span.end_s - span.start_s - covered);
}

std::string Num(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

}  // namespace

std::vector<SpanSummary> SpanRecorder::Summarize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[span.parent].emplace_back(span.start_s, span.end_s);
    }
  }
  std::map<std::string, SpanSummary> by_name;
  for (const Span& span : spans_) {
    SpanSummary& summary = by_name[span.name];
    summary.name = span.name;
    summary.count += 1;
    summary.total_s += span.end_s - span.start_s;
    summary.self_s += SelfSeconds(span, children[span.id]);
  }
  std::vector<SpanSummary> result;
  for (auto& [name, summary] : by_name) result.push_back(summary);
  return result;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void SpanRecorder::WriteJson(std::ostream& out,
                             const std::string& env_json) const {
  std::vector<SpanSummary> summary = Summarize();
  std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"workload\": " << JsonString(workload_)
      << ",\n \"env\": " << env_json << ",\n \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "\n  " : ",\n  ") << "{\"id\": " << span.id
        << ", \"parent\": " << span.parent
        << ", \"name\": " << JsonString(span.name)
        << ", \"start_s\": " << Num(span.start_s)
        << ", \"end_s\": " << Num(span.end_s)
        << ", \"workload\": " << JsonString(workload_) << "}";
  }
  out << "],\n \"self_time\": [";
  for (std::size_t i = 0; i < summary.size(); ++i) {
    const SpanSummary& s = summary[i];
    out << (i == 0 ? "\n  " : ",\n  ")
        << "{\"name\": " << JsonString(s.name) << ", \"count\": " << s.count
        << ", \"total_s\": " << Num(s.total_s)
        << ", \"self_s\": " << Num(s.self_s) << "}";
  }
  out << "]}\n";
}

}  // namespace perfbench
