// Tests for the wall-clock telemetry subsystem: span recording and
// nesting, counter exactness under thread contention, the disabled fast
// path, and the Chrome trace_event JSON exporter (validated against the
// schema with a small self-contained JSON parser — no external deps).
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "scenario/experiment.hpp"
#include "telemetry/telemetry.hpp"
#include "util/ini.hpp"
#include "util/thread_pool.hpp"

namespace roadrunner {
namespace {

// ------------------------------------------------------- mini JSON parser --
// Just enough JSON to validate the exporter's output: objects, arrays,
// strings with escapes, numbers, literals. Throws std::runtime_error on
// malformed input, which is exactly what the tests want to detect.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] bool has(const std::string& key) const {
    return object.count(key) > 0;
  }
  [[nodiscard]] const JsonValue& at(const std::string& key) const {
    return object.at(key);
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_{text} {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error{"trailing data"};
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= text_.size()) throw std::runtime_error{"unexpected end"};
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error{std::string{"expected '"} + c + "'"};
    }
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': return literal("true", bool_value(true));
      case 'f': return literal("false", bool_value(false));
      case 'n': return literal("null", JsonValue{});
      default: return number();
    }
  }

  static JsonValue bool_value(bool b) {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    v.boolean = b;
    return v;
  }

  JsonValue literal(std::string_view word, JsonValue result) {
    if (text_.substr(pos_, word.size()) != word) {
      throw std::runtime_error{"bad literal"};
    }
    pos_ += word.size();
    return result;
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      JsonValue key = string_value();
      skip_ws();
      expect(':');
      v.object[key.str] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    expect('"');
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return v;
      if (c == '\\') {
        const char esc = peek();
        ++pos_;
        switch (esc) {
          case '"': v.str += '"'; break;
          case '\\': v.str += '\\'; break;
          case '/': v.str += '/'; break;
          case 'n': v.str += '\n'; break;
          case 'r': v.str += '\r'; break;
          case 't': v.str += '\t'; break;
          case 'b': v.str += '\b'; break;
          case 'f': v.str += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              throw std::runtime_error{"bad \\u escape"};
            }
            const unsigned code = static_cast<unsigned>(
                std::stoul(std::string{text_.substr(pos_, 4)}, nullptr, 16));
            pos_ += 4;
            if (code > 0x7F) throw std::runtime_error{"non-ASCII \\u"};
            v.str += static_cast<char>(code);
            break;
          }
          default: throw std::runtime_error{"bad escape"};
        }
      } else {
        if (static_cast<unsigned char>(c) < 0x20) {
          throw std::runtime_error{"raw control char in string"};
        }
        v.str += c;
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error{"bad number"};
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::stod(std::string{text_.substr(start, pos_ - start)});
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------- fixture --

/// Every test starts from a disabled, empty sink. The sink is
/// process-global, so this also undoes whatever a previous test enabled.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::set_enabled(false);
    telemetry::Telemetry::instance().clear();
  }
  void TearDown() override {
    telemetry::set_enabled(false);
    telemetry::Telemetry::instance().clear();
  }
};

/// Burns wall time so nested spans get strictly ordered timestamps even on
/// coarse clocks (sleep would work too but is slower and less reliable on
/// loaded CI machines for sub-millisecond targets).
void spin_for(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

// ------------------------------------------------------------------ spans --

TEST_F(TelemetryTest, DisabledRecordsNothing) {
  ASSERT_FALSE(telemetry::enabled());
  {
    telemetry::Span span{"test", "ignored"};
    EXPECT_FALSE(span.active());
    span.set_args("dropped");
    RR_TSPAN("test", "also_ignored");
    static telemetry::Counter counter{"test.disabled_counter"};
    counter.add(5.0);
    telemetry::Gauge gauge{"test.disabled_gauge"};
    gauge.set(1.0);
  }
  auto& sink = telemetry::Telemetry::instance();
  EXPECT_TRUE(sink.snapshot().empty());
  EXPECT_EQ(sink.counters().count("test.disabled_counter"), 0U);
  EXPECT_EQ(sink.gauges().count("test.disabled_gauge"), 0U);
}

TEST_F(TelemetryTest, SpanNestingReconstructsValidTree) {
  telemetry::set_enabled(true);
  {
    telemetry::Span outer{"test", "outer"};
    spin_for(std::chrono::microseconds{300});
    {
      telemetry::Span middle{"test", "middle"};
      spin_for(std::chrono::microseconds{300});
      { RR_TSPAN("test", "leaf_a"); spin_for(std::chrono::microseconds{200}); }
      { RR_TSPAN("test", "leaf_b"); spin_for(std::chrono::microseconds{200}); }
    }
    spin_for(std::chrono::microseconds{200});
  }
  const auto events = telemetry::Telemetry::instance().snapshot();
  ASSERT_EQ(events.size(), 4U);

  std::map<std::string, telemetry::SpanEvent> by_name;
  for (const auto& e : events) by_name[e.name] = e;
  ASSERT_EQ(by_name.size(), 4U);

  auto end_of = [](const telemetry::SpanEvent& e) {
    return e.start_ns + e.dur_ns;
  };
  const auto& outer = by_name.at("outer");
  const auto& middle = by_name.at("middle");
  const auto& leaf_a = by_name.at("leaf_a");
  const auto& leaf_b = by_name.at("leaf_b");

  // All on one thread, so they share a tid.
  for (const auto& e : events) EXPECT_EQ(e.tid, outer.tid);

  // Containment: outer ⊇ middle ⊇ {leaf_a, leaf_b}; leaves disjoint.
  EXPECT_LE(outer.start_ns, middle.start_ns);
  EXPECT_GE(end_of(outer), end_of(middle));
  EXPECT_LE(middle.start_ns, leaf_a.start_ns);
  EXPECT_GE(end_of(middle), end_of(leaf_a));
  EXPECT_LE(middle.start_ns, leaf_b.start_ns);
  EXPECT_GE(end_of(middle), end_of(leaf_b));
  EXPECT_LE(end_of(leaf_a), leaf_b.start_ns);

  // Pairwise: every pair is either nested or disjoint, never partially
  // overlapping — the property a trace viewer needs to draw a flame graph.
  for (const auto& a : events) {
    for (const auto& b : events) {
      const bool disjoint =
          end_of(a) <= b.start_ns || end_of(b) <= a.start_ns;
      const bool a_in_b =
          b.start_ns <= a.start_ns && end_of(a) <= end_of(b);
      const bool b_in_a =
          a.start_ns <= b.start_ns && end_of(b) <= end_of(a);
      EXPECT_TRUE(disjoint || a_in_b || b_in_a)
          << a.name << " and " << b.name << " partially overlap";
    }
  }
}

TEST_F(TelemetryTest, SpansFromDifferentThreadsGetDistinctTids) {
  telemetry::set_enabled(true);
  auto worker = [] {
    RR_TSPAN("test", "thread_span");
    spin_for(std::chrono::microseconds{50});
  };
  std::thread t1{worker};
  std::thread t2{worker};
  t1.join();
  t2.join();
  const auto events = telemetry::Telemetry::instance().snapshot();
  ASSERT_EQ(events.size(), 2U);
  EXPECT_NE(events[0].tid, events[1].tid);
  EXPECT_NE(events[0].tid, 0U);  // tid 0 is the counter track
  EXPECT_NE(events[1].tid, 0U);
}

TEST_F(TelemetryTest, BufferFlushLosesNoSpans) {
  // More spans than the per-thread flush threshold (4096): the snapshot
  // must see every one, whether it sits in the buffer or the store.
  telemetry::set_enabled(true);
  constexpr std::size_t kSpans = 5000;
  for (std::size_t i = 0; i < kSpans; ++i) {
    RR_TSPAN("test", "tiny");
  }
  EXPECT_EQ(telemetry::Telemetry::instance().snapshot().size(), kSpans);
}

TEST_F(TelemetryTest, StartGatedSpanRecordsAcrossDisable) {
  telemetry::set_enabled(true);
  {
    telemetry::Span span{"test", "gated"};
    telemetry::set_enabled(false);
  }  // started while enabled -> records even though disabled now
  {
    telemetry::Span span{"test", "never"};
  }  // started while disabled -> never records
  const auto events = telemetry::Telemetry::instance().snapshot();
  ASSERT_EQ(events.size(), 1U);
  EXPECT_EQ(events[0].name, "gated");
}

// --------------------------------------------------------------- counters --

TEST_F(TelemetryTest, CountersExactUnderThreadPoolContention) {
  telemetry::set_enabled(true);
  constexpr std::size_t kIterations = 10000;
  static telemetry::Counter counter{"test.contended"};
  util::ThreadPool::global().parallel_for(kIterations, [&](std::size_t i) {
    counter.add();
    if (i % 2 == 0) {
      telemetry::Telemetry::instance().counter_add("test.by_name", 2.0);
    }
  });
  const auto counters = telemetry::Telemetry::instance().counters();
  EXPECT_EQ(counters.at("test.contended"),
            static_cast<double>(kIterations));
  EXPECT_EQ(counters.at("test.by_name"),
            static_cast<double>(kIterations / 2) * 2.0);
}

TEST_F(TelemetryTest, ClearPreservesCachedCounterHandles) {
  telemetry::set_enabled(true);
  static telemetry::Counter counter{"test.cleared"};
  counter.add(3.0);
  telemetry::Telemetry::instance().clear();
  counter.add(4.0);  // the cached cell must still be alive and zeroed
  EXPECT_EQ(telemetry::Telemetry::instance().counters().at("test.cleared"),
            4.0);
}

TEST_F(TelemetryTest, GaugeLastWriterWins) {
  telemetry::set_enabled(true);
  telemetry::Gauge gauge{"test.gauge"};
  gauge.set(1.0);
  gauge.set(7.5);
  EXPECT_EQ(telemetry::Telemetry::instance().gauges().at("test.gauge"), 7.5);
}

// -------------------------------------------------------- chrome exporter --

TEST_F(TelemetryTest, ChromeTraceMatchesSchema) {
  telemetry::set_enabled(true);
  {
    telemetry::Span span{"sim", "sim.run"};
    span.set_args("hostile \"quotes\"\nnewline\ttab\x01"
                  "ctrl");
    spin_for(std::chrono::microseconds{100});
    RR_TSPAN("ml", "ml.train_sgd");
  }
  telemetry::Telemetry::instance().counter_add("sim.events_executed", 42.0);
  telemetry::Telemetry::instance().gauge_set("campaign.pool_busy", 3.0);

  std::ostringstream out;
  telemetry::Telemetry::instance().export_chrome_trace(out);

  const JsonValue root = JsonParser{out.str()}.parse();
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  ASSERT_TRUE(root.has("traceEvents"));
  const JsonValue& events = root.at("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::Kind::kArray);
  // 2 spans + 1 counter + 1 gauge. clear() zeroes but never erases counter
  // registrations (cached Counter handles hold raw cell pointers), so when
  // the whole binary runs in one process, counters registered by earlier
  // tests surface here as extra zero-valued "C" events — tolerate those.
  ASSERT_GE(events.array.size(), 4U);

  std::size_t complete = 0;
  std::size_t live_counter_events = 0;
  bool saw_args_round_trip = false;
  for (const JsonValue& e : events.array) {
    ASSERT_EQ(e.kind, JsonValue::Kind::kObject);
    // Chrome trace_event schema: every event carries these.
    for (const char* key : {"name", "cat", "ph", "ts", "pid", "tid"}) {
      EXPECT_TRUE(e.has(key)) << "missing key " << key;
    }
    EXPECT_EQ(e.at("ts").kind, JsonValue::Kind::kNumber);
    EXPECT_GE(e.at("ts").number, 0.0);
    const std::string& ph = e.at("ph").str;
    if (ph == "X") {
      ++complete;
      ASSERT_TRUE(e.has("dur"));
      EXPECT_GE(e.at("dur").number, 0.0);
      if (e.at("name").str == "sim.run") {
        ASSERT_TRUE(e.has("args"));
        EXPECT_EQ(e.at("args").at("detail").str,
                  "hostile \"quotes\"\nnewline\ttab\x01"
                  "ctrl");
        saw_args_round_trip = true;
      }
    } else {
      EXPECT_EQ(ph, "C");
      ASSERT_TRUE(e.has("args"));
      ASSERT_TRUE(e.at("args").has("value"));
      const double value = e.at("args").at("value").number;
      const std::string& name = e.at("name").str;
      if (name == "sim.events_executed") {
        EXPECT_EQ(value, 42.0);
        ++live_counter_events;
      } else if (name == "campaign.pool_busy") {
        EXPECT_EQ(value, 3.0);
        ++live_counter_events;
      } else {
        // Residue from a prior test in this process: must be zeroed.
        EXPECT_EQ(value, 0.0) << "unexpected live counter " << name;
      }
    }
  }
  EXPECT_EQ(complete, 2U);
  EXPECT_EQ(live_counter_events, 2U);
  EXPECT_TRUE(saw_args_round_trip);
}

TEST_F(TelemetryTest, SummaryListsCategoriesAndCounters) {
  telemetry::set_enabled(true);
  {
    RR_TSPAN("sim", "sim.mobility_tick");
    spin_for(std::chrono::microseconds{100});
  }
  { RR_TSPAN("ml", "ml.evaluate"); }
  telemetry::Telemetry::instance().counter_add("sim.events_executed", 7.0);

  std::ostringstream out;
  telemetry::Telemetry::instance().write_summary(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("telemetry summary"), std::string::npos);
  EXPECT_NE(text.find("sim"), std::string::npos);
  EXPECT_NE(text.find("ml.evaluate"), std::string::npos);
  EXPECT_NE(text.find("sim.events_executed"), std::string::npos);
  EXPECT_NE(text.find("2 spans"), std::string::npos);
}

TEST_F(TelemetryTest, TracedRunRecordsTheEncounterStages) {
  const auto ini = util::IniFile::parse(R"([scenario]
vehicles = 30
seed = 3
horizon_s = 120
[city]
duration_s = 120
[data]
dataset = blobs
train_pool = 300
test_size = 50
partition = iid
samples_per_vehicle = 10
[train]
model = logreg
[strategy]
name = gossip
)");
  telemetry::set_enabled(true);
  (void)scenario::run_experiment(ini);
  std::set<std::string> names;
  for (const auto& e : telemetry::Telemetry::instance().snapshot()) {
    names.insert(e.name);
  }
  for (const char* stage : {"mobility.compact", "mobility.index_build",
                            "mobility.pair_scan", "sim.encounter_diff"}) {
    EXPECT_EQ(names.count(stage), 1U) << stage;
  }
}

TEST_F(TelemetryTest, TraceSessionEnablesAndWritesFile) {
  const std::string path = ::testing::TempDir() + "/rr_trace_session.json";
  {
    telemetry::TraceSession session{path, /*profile=*/false};
    EXPECT_TRUE(telemetry::enabled());
    RR_TSPAN("test", "session_span");
  }  // destructor writes the trace
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  const JsonValue root = JsonParser{content.str()}.parse();
  ASSERT_TRUE(root.has("traceEvents"));
  bool found = false;
  for (const JsonValue& e : root.at("traceEvents").array) {
    if (e.at("name").str == "session_span") found = true;
  }
  EXPECT_TRUE(found);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace roadrunner
