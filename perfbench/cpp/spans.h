// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around each call
// into a simulator layer: name, start, end, parent span and workload.
// Nothing is written until WriteJson() at exit, so recording costs two
// clock reads and a vector push per span. Self time of a span is its
// duration minus the part of it covered by its children (overlapping
// children, such as parallel capacity probes, are merged first).

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  int id = 0;
  int parent = -1;  // -1: root
  std::string name;
  double start_s = 0.0;  // seconds since the recorder was created
  double end_s = 0.0;
};

// Per-name totals over every span of that name.
struct SpanSummary {
  std::string name;
  int count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::string workload);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Seconds since construction, on the clock spans use.
  double Now() const;

  // Opens a span under the innermost open span. Begin/End are called
  // from the benchmark's main thread only and must nest.
  int Begin(const std::string& name);
  void End(int id);
  // Innermost open span (-1 when none).
  int Current() const;

  // Records an already finished span; safe from any thread (run
  // observers call it from runner workers).
  void Add(const std::string& name, int parent, double start_s,
           double end_s);

  std::vector<SpanSummary> Summarize() const;
  // {"workload", "env": env_json, "spans": [...], "self_time": [...]}.
  void WriteJson(std::ostream& out, const std::string& env_json) const;

 private:
  const std::string workload_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;  // guards spans_
  std::vector<Span> spans_;
  std::vector<int> open_;  // main-thread stack of open span ids
};

// `s` as a JSON string literal, quotes included.
std::string JsonString(const std::string& s);

// Scoped span; a null recorder makes it a no-op (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
