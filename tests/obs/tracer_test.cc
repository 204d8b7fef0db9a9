// Tracer unit tests: ring-buffer semantics, span recording, and a
// schema check of the Chrome trace_event JSON export (parsed with a
// minimal JSON reader below, no external dependency).

#include "obs/tracer.h"

#include <cctype>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "vod/simulation.h"

namespace spiffi::obs {
namespace {

using Cat = TraceCategory;

// ---------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser, just enough to
// validate the exported trace. Numbers become double, everything else
// is structural.

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool Has(const std::string& key) const {
    return kind == kObject && object.count(key) > 0;
  }
  const JsonValue& At(const std::string& key) const {
    static const JsonValue kMissing;
    auto it = object.find(key);
    return it == object.end() ? kMissing : it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  bool Parse(JsonValue* out) {
    SkipSpace();
    if (!ParseValue(out)) return false;
    SkipSpace();
    return p_ == end_;  // no trailing garbage
  }

 private:
  void SkipSpace() {
    while (p_ != end_ &&
           std::isspace(static_cast<unsigned char>(*p_)) != 0) {
      ++p_;
    }
  }
  bool Consume(char c) {
    SkipSpace();
    if (p_ == end_ || *p_ != c) return false;
    ++p_;
    return true;
  }
  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (p_ == end_) return false;
    switch (*p_) {
      case '{': return ParseObject(out);
      case '[': return ParseArray(out);
      case '"': out->kind = JsonValue::kString; return ParseString(&out->str);
      case 't':
        out->kind = JsonValue::kBool;
        out->boolean = true;
        return ConsumeWord("true");
      case 'f':
        out->kind = JsonValue::kBool;
        out->boolean = false;
        return ConsumeWord("false");
      case 'n': out->kind = JsonValue::kNull; return ConsumeWord("null");
      default: return ParseNumber(out);
    }
  }
  bool ConsumeWord(const char* word) {
    for (; *word != '\0'; ++word, ++p_) {
      if (p_ == end_ || *p_ != *word) return false;
    }
    return true;
  }
  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (p_ != end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) return false;
        switch (*p_) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'u':
            if (end_ - p_ < 5) return false;
            p_ += 4;  // keep structure; the code point itself is dropped
            out->push_back('?');
            break;
          default: return false;
        }
        ++p_;
      } else {
        out->push_back(*p_++);
      }
    }
    return Consume('"');
  }
  bool ParseNumber(JsonValue* out) {
    const char* start = p_;
    while (p_ != end_ &&
           (std::isdigit(static_cast<unsigned char>(*p_)) != 0 ||
            *p_ == '-' || *p_ == '+' || *p_ == '.' || *p_ == 'e' ||
            *p_ == 'E')) {
      ++p_;
    }
    if (p_ == start) return false;
    out->kind = JsonValue::kNumber;
    out->number = std::strtod(std::string(start, p_).c_str(), nullptr);
    return true;
  }
  bool ParseArray(JsonValue* out) {
    if (!Consume('[')) return false;
    out->kind = JsonValue::kArray;
    SkipSpace();
    if (Consume(']')) return true;
    while (true) {
      JsonValue element;
      if (!ParseValue(&element)) return false;
      out->array.push_back(std::move(element));
      if (Consume(']')) return true;
      if (!Consume(',')) return false;
    }
  }
  bool ParseObject(JsonValue* out) {
    if (!Consume('{')) return false;
    out->kind = JsonValue::kObject;
    SkipSpace();
    if (Consume('}')) return true;
    while (true) {
      std::string key;
      SkipSpace();
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return false;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object[std::move(key)] = std::move(value);
      if (Consume('}')) return true;
      if (!Consume(',')) return false;
    }
  }

  const char* p_;
  const char* end_;
};

// ---------------------------------------------------------------------
// Ring-buffer semantics.

TEST(TracerTest, RecordsInstantWithFields) {
  Tracer tracer(16);
  tracer.Instant(Cat::kTerminal, "glitch", 1, 7, 2.5,
                 {{"video", 3.0}, {"position_sec", 42.0}});
  ASSERT_EQ(tracer.size(), 1u);
  const TraceEvent& e = tracer.event(0);
  EXPECT_STREQ(e.name, "glitch");
  EXPECT_EQ(e.category, Cat::kTerminal);
  EXPECT_EQ(e.phase, 'i');
  EXPECT_EQ(e.pid, 1);
  EXPECT_EQ(e.tid, 7);
  EXPECT_DOUBLE_EQ(e.ts, 2.5);
  EXPECT_GE(e.wall_us, 0.0);
  ASSERT_EQ(e.num_args, 2);
  EXPECT_STREQ(e.args[0].key, "video");
  EXPECT_DOUBLE_EQ(e.args[0].value, 3.0);
  EXPECT_STREQ(e.args[1].key, "position_sec");
  EXPECT_DOUBLE_EQ(e.args[1].value, 42.0);
}

TEST(TracerTest, RingKeepsMostRecentAndCountsDropped) {
  Tracer tracer(8);
  for (int i = 0; i < 20; ++i) {
    tracer.Instant(Cat::kKernel, "tick", 0, 0, static_cast<double>(i));
  }
  EXPECT_EQ(tracer.capacity(), 8u);
  EXPECT_EQ(tracer.size(), 8u);
  EXPECT_EQ(tracer.total_recorded(), 20u);
  EXPECT_EQ(tracer.dropped(), 12u);
  // event(0) is the oldest retained event: the 13th recorded (ts = 12),
  // and retained timestamps run contiguously to the newest.
  for (std::size_t i = 0; i < tracer.size(); ++i) {
    EXPECT_DOUBLE_EQ(tracer.event(i).ts, 12.0 + static_cast<double>(i));
  }
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer(8);
  tracer.set_enabled(false);
  tracer.Instant(Cat::kDisk, "read_done", 10, 1, 1.0);
  tracer.Span(Cat::kDisk, "disk_read", 10, 1, 1.0, 2.0);
  tracer.Counter(Cat::kBuffer, "pool_pages", 10, 99, 1.0, 5.0);
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.total_recorded(), 0u);
  tracer.set_enabled(true);
  tracer.Instant(Cat::kDisk, "read_done", 10, 1, 3.0);
  EXPECT_EQ(tracer.size(), 1u);
}

// Spans on one serial track must nest; the recording order is inner
// first (RAII scopes close inside-out). Verify both are retained and
// that the inner interval is contained in the outer one.
TEST(TracerTest, NestedSpansOnOneTrack) {
  Tracer tracer(16);
  // outer [1, 6], inner [2, 3], second inner [4, 5].
  tracer.Span(Cat::kServer, "inner_a", 10, 0, 2.0, 3.0);
  tracer.Span(Cat::kServer, "inner_b", 10, 0, 4.0, 5.0);
  tracer.Span(Cat::kServer, "outer", 10, 0, 1.0, 6.0);
  ASSERT_EQ(tracer.size(), 3u);
  const TraceEvent& outer = tracer.event(2);
  EXPECT_STREQ(outer.name, "outer");
  for (std::size_t i = 0; i < 2; ++i) {
    const TraceEvent& inner = tracer.event(i);
    EXPECT_EQ(inner.phase, 'X');
    EXPECT_GE(inner.ts, outer.ts);
    EXPECT_LE(inner.end_ts, outer.end_ts);
  }
}

TEST(TracerTest, AsyncPairSharesFreshId) {
  Tracer tracer(16);
  std::uint64_t id = tracer.NextAsyncId();
  std::uint64_t other = tracer.NextAsyncId();
  EXPECT_NE(id, other);
  tracer.AsyncBegin(Cat::kNetwork, "wire", 2, id, 1.0);
  tracer.AsyncEnd(Cat::kNetwork, "wire", 2, id, 1.5);
  ASSERT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.event(0).phase, 'b');
  EXPECT_EQ(tracer.event(1).phase, 'e');
  EXPECT_EQ(tracer.event(0).id, tracer.event(1).id);
}

// ---------------------------------------------------------------------
// Chrome JSON schema. ValidateTrace checks every structural rule the
// trace_event format requires for the phases we emit.

void ValidateTrace(const JsonValue& root, std::set<std::string>* cats,
                   std::size_t* num_events) {
  ASSERT_EQ(root.kind, JsonValue::kObject);
  ASSERT_TRUE(root.Has("traceEvents"));
  ASSERT_TRUE(root.Has("otherData"));
  EXPECT_EQ(root.At("displayTimeUnit").str, "ms");
  EXPECT_EQ(root.At("otherData").At("clock").str, "simulated");
  EXPECT_EQ(root.At("otherData").At("dropped_events").kind,
            JsonValue::kNumber);

  const JsonValue& events = root.At("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::kArray);
  *num_events = 0;
  for (const JsonValue& e : events.array) {
    ASSERT_EQ(e.kind, JsonValue::kObject);
    ASSERT_EQ(e.At("ph").kind, JsonValue::kString);
    ASSERT_EQ(e.At("ph").str.size(), 1u);
    char ph = e.At("ph").str[0];
    ASSERT_EQ(e.At("name").kind, JsonValue::kString);
    EXPECT_FALSE(e.At("name").str.empty());
    ASSERT_EQ(e.At("pid").kind, JsonValue::kNumber);
    ASSERT_EQ(e.At("tid").kind, JsonValue::kNumber);
    ASSERT_EQ(e.At("args").kind, JsonValue::kObject);
    if (ph == 'M') {
      // Track-name metadata: no timestamp, args.name is the label.
      EXPECT_TRUE(e.At("name").str == "process_name" ||
                  e.At("name").str == "thread_name");
      EXPECT_EQ(e.At("args").At("name").kind, JsonValue::kString);
      continue;
    }
    ++*num_events;
    EXPECT_TRUE(ph == 'i' || ph == 'X' || ph == 'b' || ph == 'e' ||
                ph == 'C')
        << "unexpected phase " << ph;
    ASSERT_EQ(e.At("ts").kind, JsonValue::kNumber);
    EXPECT_GE(e.At("ts").number, 0.0);
    ASSERT_EQ(e.At("cat").kind, JsonValue::kString);
    static const std::set<std::string> kKnown = {
        "terminal", "server", "disk",  "network",
        "buffer",   "prefetch", "kernel"};
    EXPECT_TRUE(kKnown.count(e.At("cat").str) > 0)
        << "unknown category " << e.At("cat").str;
    cats->insert(e.At("cat").str);
    EXPECT_EQ(e.At("args").At("wall_us").kind, JsonValue::kNumber);
    if (ph == 'X') {
      ASSERT_EQ(e.At("dur").kind, JsonValue::kNumber);
      EXPECT_GE(e.At("dur").number, 0.0);
    }
    if (ph == 'b' || ph == 'e') {
      ASSERT_EQ(e.At("id").kind, JsonValue::kString);
      EXPECT_EQ(e.At("id").str.substr(0, 2), "0x");
    }
  }
}

TEST(TracerTest, ChromeJsonIsWellFormed) {
  Tracer tracer(64);
  tracer.SetProcessName(1, "terminals");
  tracer.SetThreadName(10, 1, "disk 0");
  tracer.Instant(Cat::kTerminal, "video_start", 1, 0, 0.5, {{"video", 2}});
  tracer.Span(Cat::kDisk, "disk_read", 10, 1, 1.0, 1.01);
  std::uint64_t id = tracer.NextAsyncId();
  tracer.AsyncBegin(Cat::kNetwork, "wire", 2, id, 1.0, {{"bytes", 512.0}});
  tracer.AsyncEnd(Cat::kNetwork, "wire", 2, id, 1.002);
  tracer.Counter(Cat::kBuffer, "pool_pages_in_use", 10, 99, 1.0, 17.0);
  // A name needing escapes must still yield valid JSON.
  tracer.Instant(Cat::kKernel, "weird \"name\"\\", 0, 0, 2.0);

  std::ostringstream out;
  tracer.WriteChromeJson(out);
  JsonValue root;
  ASSERT_TRUE(JsonParser(out.str()).Parse(&root)) << out.str();

  std::set<std::string> cats;
  std::size_t num_events = 0;
  ValidateTrace(root, &cats, &num_events);
  EXPECT_EQ(num_events, 6u);
  // The metadata events for the two named tracks came through.
  EXPECT_EQ(root.At("traceEvents").array.size(), 8u);
}

// Full-system check: a small traced simulation exports valid Chrome
// JSON whose events span the block-request lifecycle — at least the six
// categories terminal / server / disk / network / buffer / prefetch.
TEST(TracerTest, SimulationTraceCoversRequestLifecycle) {
  vod::SimConfig config;
  config.num_nodes = 2;
  config.disks_per_node = 2;
  config.video_seconds = 120.0;
  config.server_memory_bytes = 256LL * 1024 * 1024;
  config.terminals = 20;
  config.start_window_sec = 10.0;
  config.warmup_seconds = 15.0;
  config.measure_seconds = 30.0;

  vod::Simulation simulation(config);
  Tracer& tracer = simulation.EnableTracing(64 * 1024);
  simulation.Run();
  ASSERT_GT(tracer.size(), 0u);

  std::ostringstream out;
  tracer.WriteChromeJson(out);
  JsonValue root;
  ASSERT_TRUE(JsonParser(out.str()).Parse(&root));

  std::set<std::string> cats;
  std::size_t num_events = 0;
  ValidateTrace(root, &cats, &num_events);
  EXPECT_GE(num_events, 1000u);
  EXPECT_GE(cats.size(), 6u) << "categories seen: " << cats.size();
  for (const char* expected :
       {"terminal", "server", "disk", "network", "buffer", "prefetch"}) {
    EXPECT_TRUE(cats.count(expected) > 0)
        << "missing category " << expected;
  }

  // Track naming made it into the metadata: the terminals process and
  // at least one per-node disk track.
  bool saw_terminals = false;
  bool saw_disk_track = false;
  for (const JsonValue& e : root.At("traceEvents").array) {
    if (e.At("ph").str != "M") continue;
    const std::string& label = e.At("args").At("name").str;
    if (label == "terminals") saw_terminals = true;
    if (label.rfind("disk ", 0) == 0) saw_disk_track = true;
  }
  EXPECT_TRUE(saw_terminals);
  EXPECT_TRUE(saw_disk_track);
}

}  // namespace
}  // namespace spiffi::obs
