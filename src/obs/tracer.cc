#include "obs/tracer.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/json.h"
#include "sim/check.h"

namespace spiffi::obs {

const char* TraceCategoryName(TraceCategory category) {
  switch (category) {
    case TraceCategory::kTerminal: return "terminal";
    case TraceCategory::kServer: return "server";
    case TraceCategory::kDisk: return "disk";
    case TraceCategory::kNetwork: return "network";
    case TraceCategory::kBuffer: return "buffer";
    case TraceCategory::kPrefetch: return "prefetch";
    case TraceCategory::kKernel: return "kernel";
    case TraceCategory::kFault: return "fault";
    case TraceCategory::kProxy: return "proxy";
  }
  return "unknown";
}

Tracer::Tracer(std::size_t capacity)
    : capacity_(capacity), epoch_(std::chrono::steady_clock::now()) {
  SPIFFI_CHECK(capacity > 0);
  ring_.reserve(std::min<std::size_t>(capacity, 4096));
}

double Tracer::WallMicrosNow() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

TraceEvent* Tracer::Append() {
  ++total_recorded_;
  if (ring_.size() < capacity_) {
    ring_.emplace_back();
    return &ring_.back();
  }
  TraceEvent* slot = &ring_[next_];
  next_ = (next_ + 1) % capacity_;
  return slot;
}

std::size_t Tracer::size() const { return ring_.size(); }

std::uint64_t Tracer::dropped() const { return total_recorded_ - ring_.size(); }

const TraceEvent& Tracer::event(std::size_t i) const {
  SPIFFI_CHECK(i < ring_.size());
  // Once the ring has wrapped, next_ points at the oldest entry.
  return ring_[(next_ + i) % ring_.size()];
}

namespace {

void CopyArgs(TraceEvent* event, std::initializer_list<TraceArg> args) {
  event->num_args = 0;
  for (const TraceArg& arg : args) {
    if (event->num_args == event->args.size()) break;
    event->args[event->num_args++] = arg;
  }
}

}  // namespace

void Tracer::Instant(TraceCategory category, const char* name,
                     std::int32_t pid, std::int32_t tid, sim::SimTime ts,
                     std::initializer_list<TraceArg> args) {
  if (!enabled_) return;
  TraceEvent* event = Append();
  *event = TraceEvent{};
  event->ts = ts;
  event->wall_us = WallMicrosNow();
  event->pid = pid;
  event->tid = tid;
  event->name = name;
  event->category = category;
  event->phase = 'i';
  CopyArgs(event, args);
}

void Tracer::Span(TraceCategory category, const char* name,
                  std::int32_t pid, std::int32_t tid, sim::SimTime start_ts,
                  sim::SimTime end_ts,
                  std::initializer_list<TraceArg> args) {
  if (!enabled_) return;
  SPIFFI_DCHECK(end_ts >= start_ts);
  TraceEvent* event = Append();
  *event = TraceEvent{};
  event->ts = start_ts;
  event->end_ts = end_ts;
  event->wall_us = WallMicrosNow();
  event->pid = pid;
  event->tid = tid;
  event->name = name;
  event->category = category;
  event->phase = 'X';
  CopyArgs(event, args);
}

void Tracer::AsyncBegin(TraceCategory category, const char* name,
                        std::int32_t pid, std::uint64_t id, sim::SimTime ts,
                        std::initializer_list<TraceArg> args) {
  if (!enabled_) return;
  TraceEvent* event = Append();
  *event = TraceEvent{};
  event->ts = ts;
  event->wall_us = WallMicrosNow();
  event->id = id;
  event->pid = pid;
  event->name = name;
  event->category = category;
  event->phase = 'b';
  CopyArgs(event, args);
}

void Tracer::AsyncEnd(TraceCategory category, const char* name,
                      std::int32_t pid, std::uint64_t id, sim::SimTime ts,
                      std::initializer_list<TraceArg> args) {
  if (!enabled_) return;
  TraceEvent* event = Append();
  *event = TraceEvent{};
  event->ts = ts;
  event->wall_us = WallMicrosNow();
  event->id = id;
  event->pid = pid;
  event->name = name;
  event->category = category;
  event->phase = 'e';
  CopyArgs(event, args);
}

void Tracer::Counter(TraceCategory category, const char* name,
                     std::int32_t pid, std::int32_t tid, sim::SimTime ts,
                     double value) {
  if (!enabled_) return;
  TraceEvent* event = Append();
  *event = TraceEvent{};
  event->ts = ts;
  event->wall_us = WallMicrosNow();
  event->pid = pid;
  event->tid = tid;
  event->name = name;
  event->category = category;
  event->phase = 'C';
  event->num_args = 1;
  event->args[0] = TraceArg{name, value};
}

void Tracer::SetProcessName(std::int32_t pid, std::string name) {
  process_names_[pid] = std::move(name);
}

void Tracer::SetThreadName(std::int32_t pid, std::int32_t tid,
                           std::string name) {
  thread_names_[{pid, tid}] = std::move(name);
}

void Tracer::WriteEventJson(std::ostream& out,
                            const TraceEvent& event) const {
  out << "{\"name\":";
  WriteJsonString(out, event.name != nullptr ? event.name : "?");
  out << ",\"cat\":\"" << TraceCategoryName(event.category) << '"';
  out << ",\"ph\":\"" << event.phase << '"';
  out << ",\"ts\":";
  WriteJsonNumber(out, event.ts * 1e6);
  if (event.phase == 'X') {
    out << ",\"dur\":";
    WriteJsonNumber(out, (event.end_ts - event.ts) * 1e6);
  }
  out << ",\"pid\":" << event.pid << ",\"tid\":" << event.tid;
  if (event.phase == 'b' || event.phase == 'e') {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%" PRIx64, event.id);
    out << ",\"id\":\"" << buf << '"';
  }
  out << ",\"args\":{\"wall_us\":";
  WriteJsonNumber(out, event.wall_us);
  for (int a = 0; a < event.num_args; ++a) {
    out << ',';
    WriteJsonString(out, event.args[a].key);
    out << ':';
    WriteJsonNumber(out, event.args[a].value);
  }
  out << "}}";
}

void Tracer::WriteChromeJson(std::ostream& out) const {
  out << "{\"traceEvents\":[";
  bool first = true;
  auto separator = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (const auto& [pid, name] : process_names_) {
    separator();
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"tid\":0,\"args\":{\"name\":";
    WriteJsonString(out, name.c_str());
    out << "}}";
  }
  for (const auto& [track, name] : thread_names_) {
    separator();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << track.first
        << ",\"tid\":" << track.second << ",\"args\":{\"name\":";
    WriteJsonString(out, name.c_str());
    out << "}}";
  }
  for (std::size_t i = 0; i < size(); ++i) {
    separator();
    WriteEventJson(out, event(i));
  }
  out << "],\n\"displayTimeUnit\":\"ms\",\"otherData\":{"
      << "\"clock\":\"simulated\",\"dropped_events\":" << dropped()
      << "}}\n";
}

}  // namespace spiffi::obs
