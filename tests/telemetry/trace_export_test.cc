// Chrome-tracing export: run a small hierarchical experiment with a
// SpanTracer attached, export the trace, parse the JSON back with a
// minimal parser, and validate the per-cycle span structure.
#include "telemetry/trace_export.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/experiment.h"
#include "telemetry/span_tracer.h"

namespace sds::telemetry {
namespace {

// ---------------------------------------------------------------------
// Minimal JSON parser — just enough to read a Trace Event Format file
// back. Objects keep insertion order; numbers are doubles.
// ---------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* get(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  /// Parses the whole input; `ok()` reports success.
  JsonValue parse() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing data");
    return value;
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  void fail(std::string_view what) {
    if (ok_) {
      ok_ = false;
      error_ = std::string(what) + " at offset " + std::to_string(pos_);
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    if (!ok_ || pos_ >= text_.size()) {
      fail("unexpected end");
      return {};
    }
    switch (text_[pos_]) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string_value();
      case 't':
      case 'f': return parse_bool();
      case 'n': return parse_null();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    consume('{');
    if (consume('}')) return value;
    while (ok_) {
      skip_ws();
      std::string key = parse_string();
      if (!consume(':')) fail("expected ':'");
      value.object.emplace_back(std::move(key), parse_value());
      if (consume('}')) break;
      if (!consume(',')) {
        fail("expected ',' or '}'");
        break;
      }
    }
    return value;
  }

  JsonValue parse_array() {
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    consume('[');
    if (consume(']')) return value;
    while (ok_) {
      value.array.push_back(parse_value());
      if (consume(']')) break;
      if (!consume(',')) {
        fail("expected ',' or ']'");
        break;
      }
    }
    return value;
  }

  JsonValue parse_string_value() {
    JsonValue value;
    value.kind = JsonValue::Kind::kString;
    value.string = parse_string();
    return value;
  }

  std::string parse_string() {
    std::string out;
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      fail("expected string");
      return out;
    }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u':
            pos_ += 4;  // \u00XX only appears for control chars here
            c = '?';
            break;
          default: c = esc;
        }
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) {
      fail("unterminated string");
    } else {
      ++pos_;  // closing quote
    }
    return out;
  }

  JsonValue parse_bool() {
    JsonValue value;
    value.kind = JsonValue::Kind::kBool;
    if (text_.substr(pos_, 4) == "true") {
      value.boolean = true;
      pos_ += 4;
    } else if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return value;
  }

  JsonValue parse_null() {
    if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
    } else {
      fail("bad literal");
    }
    return {};
  }

  JsonValue parse_number() {
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected number");
      return value;
    }
    value.number = std::stod(std::string(text_.substr(start, pos_ - start)));
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

TEST(JsonParserTest, ParsesEscapesAndNesting) {
  JsonParser parser(R"({"a":[1,2.5,-3],"b":"x\"y\\z","c":{"d":true}})");
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error();
  ASSERT_NE(root.get("a"), nullptr);
  ASSERT_EQ(root.get("a")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(root.get("a")->array[1].number, 2.5);
  EXPECT_EQ(root.get("b")->string, "x\"y\\z");
  EXPECT_TRUE(root.get("c")->get("d")->boolean);
}

TEST(TraceExportTest, EmptyTracerStillEmitsValidDocument) {
  SpanTracer tracer;
  const std::string json = to_chrome_trace_json(tracer, "empty");
  JsonParser parser(json);
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error();
  EXPECT_EQ(root.get("displayTimeUnit")->string, "ms");
  // Only the process_name metadata event.
  ASSERT_EQ(root.get("traceEvents")->array.size(), 1u);
  const JsonValue& meta = root.get("traceEvents")->array[0];
  EXPECT_EQ(meta.get("ph")->string, "M");
  EXPECT_EQ(meta.get("name")->string, "process_name");
  EXPECT_EQ(meta.get("args")->get("name")->string, "empty");
}

TEST(TraceExportTest, EscapesSpanNames) {
  SpanTracer tracer;
  Span span;
  span.name = "weird\"name\\";
  span.category = "cycle";
  span.start = micros(10);
  span.duration = micros(5);
  tracer.record(span);

  const std::string json = to_chrome_trace_json(tracer, "esc");
  JsonParser parser(json);
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error();
  const auto& events = root.get("traceEvents")->array;
  ASSERT_EQ(events.size(), 2u);  // process metadata + the span
  EXPECT_EQ(events[1].get("name")->string, "weird\"name\\");
  EXPECT_DOUBLE_EQ(events[1].get("ts")->number, 10.0);
  EXPECT_DOUBLE_EQ(events[1].get("dur")->number, 5.0);
}

TEST(TraceExportTest, SimRunYieldsOneSpanPerCyclePhase) {
  SpanTracer tracer;
  sim::ExperimentConfig config;
  config.num_stages = 100;
  config.num_aggregators = 2;
  config.stages_per_job = 50;
  config.max_cycles = 5;
  config.duration = seconds(120);
  config.tracer = &tracer;

  const auto result = sim::run_experiment(config);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const std::uint64_t cycles = result.value().cycles;
  ASSERT_EQ(cycles, 5u);

  const std::string json = to_chrome_trace_json(tracer, "sds simulation");
  JsonParser parser(json);
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error();

  EXPECT_EQ(root.get("displayTimeUnit")->string, "ms");
  const JsonValue* events = root.get("traceEvents");
  ASSERT_NE(events, nullptr);

  bool saw_process_name = false;
  bool saw_track_name = false;
  // cycle id -> phase name -> occurrence count
  std::map<std::uint64_t, std::map<std::string, int>> phases;
  for (const JsonValue& event : events->array) {
    const std::string& ph = event.get("ph")->string;
    if (ph == "M") {
      if (event.get("name")->string == "process_name") {
        saw_process_name = true;
        EXPECT_EQ(event.get("args")->get("name")->string, "sds simulation");
      }
      if (event.get("name")->string == "thread_name" &&
          event.get("args")->get("name")->string == "global controller") {
        saw_track_name = true;
      }
      continue;
    }
    ASSERT_EQ(ph, "X");
    if (event.get("cat")->string == "component") {
      // Component hop spans (aggregator/stage collect) live on their own
      // tracks; the per-cycle phase accounting below covers track 0.
      continue;
    }
    EXPECT_EQ(event.get("cat")->string, "cycle");
    EXPECT_GE(event.get("ts")->number, 0.0);
    // aggregate/disseminate sub-segments may be empty in small runs.
    EXPECT_GE(event.get("dur")->number, 0.0);
    ASSERT_NE(event.get("args"), nullptr);
    ASSERT_NE(event.get("args")->get("cycle"), nullptr);
    const auto cycle =
        static_cast<std::uint64_t>(event.get("args")->get("cycle")->number);
    ++phases[cycle][event.get("name")->string];
  }
  EXPECT_TRUE(saw_process_name);
  EXPECT_TRUE(saw_track_name);

  // Exactly one span per phase per cycle — the three wall phases, the
  // aggregate/disseminate sub-segments — plus the enclosing cycle span.
  ASSERT_EQ(phases.size(), cycles);
  for (const auto& [cycle, counts] : phases) {
    ASSERT_EQ(counts.size(), 6u) << "cycle " << cycle;
    for (const char* name : {"cycle", "collect", "aggregate", "compute",
                             "disseminate", "enforce"}) {
      auto it = counts.find(name);
      ASSERT_NE(it, counts.end()) << "cycle " << cycle << " missing " << name;
      EXPECT_EQ(it->second, 1) << "cycle " << cycle << " phase " << name;
    }
  }

  // Phase spans tile the enclosing cycle span: the simulator emits them
  // back-to-back in virtual time.
  std::map<std::uint64_t, std::map<std::string, std::pair<double, double>>>
      extents;  // cycle -> name -> (ts, dur)
  for (const JsonValue& event : events->array) {
    if (event.get("ph")->string != "X") continue;
    if (event.get("cat")->string != "cycle") continue;  // component hops
    const auto cycle =
        static_cast<std::uint64_t>(event.get("args")->get("cycle")->number);
    extents[cycle][event.get("name")->string] = {event.get("ts")->number,
                                                 event.get("dur")->number};
  }
  for (const auto& [cycle, spans] : extents) {
    const auto& [cycle_ts, cycle_dur] = spans.at("cycle");
    const auto& [collect_ts, collect_dur] = spans.at("collect");
    const auto& [compute_ts, compute_dur] = spans.at("compute");
    const auto& [enforce_ts, enforce_dur] = spans.at("enforce");
    EXPECT_NEAR(collect_ts, cycle_ts, 1e-3) << "cycle " << cycle;
    EXPECT_NEAR(compute_ts, collect_ts + collect_dur, 1e-3);
    EXPECT_NEAR(enforce_ts, compute_ts + compute_dur, 1e-3);
    EXPECT_NEAR(enforce_ts + enforce_dur, cycle_ts + cycle_dur, 1e-3);
    // Sub-segments nest inside their parent phases: aggregate is the
    // collect tail, disseminate the enforce head.
    const auto& [agg_ts, agg_dur] = spans.at("aggregate");
    EXPECT_NEAR(agg_ts + agg_dur, collect_ts + collect_dur, 1e-3);
    EXPECT_GE(agg_ts + 1e-3, collect_ts);
    const auto& [diss_ts, diss_dur] = spans.at("disseminate");
    EXPECT_NEAR(diss_ts, enforce_ts, 1e-3);
    EXPECT_LE(diss_ts + diss_dur, enforce_ts + enforce_dur + 1e-3);
  }
}

TEST(TraceExportTest, RingDropsOldestWhenFull) {
  SpanTracer tracer(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    Span span;
    span.name = "s" + std::to_string(i);
    span.category = "cycle";
    span.cycle = static_cast<std::uint64_t>(i);
    span.start = micros(i);
    span.duration = micros(1);
    tracer.record(span);
  }
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest first, and only the newest four survive.
  EXPECT_EQ(spans.front().name, "s6");
  EXPECT_EQ(spans.back().name, "s9");
}

}  // namespace
}  // namespace sds::telemetry
