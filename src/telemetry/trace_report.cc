#include "telemetry/trace_report.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

namespace sds::telemetry {

namespace {

/// Scan helpers over a single JSON object's text. Values we extract are
/// either numbers or strings with standard escapes; keys are unescaped
/// ASCII (which is all our emitters produce).
std::string_view find_value(std::string_view object, std::string_view key) {
  // Built in two steps: GCC 12's -Wrestrict misfires on the operator+
  // temporary here under -O3 (PR 105329).
  std::string needle = "\"";
  needle.append(key).append("\":");
  // Keys never appear inside our string values except "name" inside
  // args — search from the front; first hit wins, which matches the
  // emitters' field order.
  const auto pos = object.find(needle);
  if (pos == std::string_view::npos) return {};
  return object.substr(pos + needle.size());
}

bool parse_number(std::string_view text, double& out) {
  if (text.empty()) return false;
  char buf[64];
  const std::size_t len = std::min(text.size(), sizeof(buf) - 1);
  std::memcpy(buf, text.data(), len);
  buf[len] = '\0';
  char* end = nullptr;
  out = std::strtod(buf, &end);
  return end != buf;
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  char buf[32];
  const std::size_t len = std::min(text.size(), sizeof(buf) - 1);
  std::memcpy(buf, text.data(), len);
  buf[len] = '\0';
  char* end = nullptr;
  out = std::strtoull(buf, &end, 10);
  return end != buf;
}

bool parse_string(std::string_view text, std::string& out) {
  if (text.empty() || text.front() != '"') return false;
  out.clear();
  for (std::size_t i = 1; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '"') return true;
    if (c == '\\' && i + 1 < text.size()) {
      ++i;
      switch (text[i]) {
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u':
          // \u00XX control escapes — decode the low byte.
          if (i + 4 < text.size()) {
            const std::string hex(text.substr(i + 1, 4));
            out.push_back(static_cast<char>(
                std::strtol(hex.c_str(), nullptr, 16) & 0xff));
            i += 4;
          }
          break;
        default: out.push_back(text[i]);
      }
      continue;
    }
    out.push_back(c);
  }
  return false;  // unterminated
}

/// Split the top-level "traceEvents" array into per-event object slices
/// (balanced braces, string-aware).
std::vector<std::string_view> split_events(std::string_view json) {
  std::vector<std::string_view> events;
  const auto array_pos = json.find("\"traceEvents\"");
  if (array_pos == std::string_view::npos) return events;
  std::size_t i = json.find('[', array_pos);
  if (i == std::string_view::npos) return events;
  int depth = 0;
  bool in_string = false;
  std::size_t start = 0;
  for (++i; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth == 0) start = i;
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0) events.push_back(json.substr(start, i - start + 1));
    } else if (c == ']' && depth == 0) {
      break;
    }
  }
  return events;
}

std::string component_name(const ParsedTrace& trace, std::uint32_t track) {
  const auto it = trace.track_names.find(track);
  if (it != trace.track_names.end()) return it->second;
  return "track " + std::to_string(track);
}

}  // namespace

Result<ParsedTrace> parse_chrome_trace(const std::string& json) {
  const auto events = split_events(json);
  if (events.empty()) {
    return Status::invalid_argument("no traceEvents array found");
  }
  ParsedTrace out;
  for (const auto event : events) {
    std::string ph;
    if (!parse_string(find_value(event, "ph"), ph)) continue;
    if (ph == "M") {
      std::string meta_name;
      std::string value;
      if (!parse_string(find_value(event, "name"), meta_name)) continue;
      // The args object is last, so its "name" is the second occurrence.
      const auto args = find_value(event, "args");
      if (args.empty()) continue;
      if (!parse_string(find_value(args, "name"), value)) continue;
      if (meta_name == "process_name") {
        out.process_name = value;
      } else if (meta_name == "thread_name") {
        double tid = 0;
        if (parse_number(find_value(event, "tid"), tid)) {
          out.track_names[static_cast<std::uint32_t>(tid)] = value;
        }
      }
      continue;
    }
    if (ph != "X") continue;
    TraceSpan span;
    if (!parse_string(find_value(event, "name"), span.name)) continue;
    parse_string(find_value(event, "cat"), span.category);
    parse_string(find_value(event, "phase"), span.phase);
    double tid = 0;
    if (parse_number(find_value(event, "tid"), tid)) {
      span.track = static_cast<std::uint32_t>(tid);
    }
    parse_number(find_value(event, "ts"), span.ts_us);
    parse_number(find_value(event, "dur"), span.dur_us);
    parse_u64(find_value(event, "cycle"), span.cycle);
    parse_u64(find_value(event, "trace"), span.trace_id);
    parse_u64(find_value(event, "span"), span.span_id);
    parse_u64(find_value(event, "parent"), span.parent_span);
    out.spans.push_back(std::move(span));
  }
  return out;
}

TraceReport build_report(const ParsedTrace& trace) {
  TraceReport report;
  report.total_spans = trace.spans.size();

  // Duplicate detection: identical (trace, span) pairs mean the same
  // logical span was recorded more than once (duplicated delivery).
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(trace.spans.size() * 2);
  std::vector<const TraceSpan*> unique;
  unique.reserve(trace.spans.size());
  for (const auto& span : trace.spans) {
    if (span.span_id != 0) {
      // Mix trace and span ids; ids are FNV outputs so xor-mix is fine.
      const std::uint64_t key =
          span.trace_id * 0x9e3779b97f4a7c15ull ^ span.span_id;
      if (!seen.insert(key).second) {
        ++report.duplicate_spans;
        continue;
      }
    }
    unique.push_back(&span);
  }

  // Phase rows + cycle roots.
  std::map<std::string, PhaseRow> phases;
  const TraceSpan* slowest_root = nullptr;
  for (const auto* span : unique) {
    if (!span->phase.empty()) {
      auto& row = phases[span->phase];
      row.phase = span->phase;
      ++row.count;
      row.total_us += span->dur_us;
      row.max_us = std::max(row.max_us, span->dur_us);
    }
    if (span->category == "cycle" && span->name == "cycle") {
      ++report.cycles;
      report.total_cycle_us += span->dur_us;
      report.max_cycle_us = std::max(report.max_cycle_us, span->dur_us);
      if (slowest_root == nullptr || span->dur_us > slowest_root->dur_us) {
        slowest_root = span;
      }
    }
  }
  if (report.cycles > 0) {
    report.mean_cycle_us =
        report.total_cycle_us / static_cast<double>(report.cycles);
  }
  for (auto& [name, row] : phases) {
    row.mean_us = row.count > 0
                      ? row.total_us / static_cast<double>(row.count)
                      : 0;
    row.share_pct = report.total_cycle_us > 0
                        ? 100.0 * row.total_us / report.total_cycle_us
                        : 0;
    report.phases.push_back(row);
  }
  // Canonical phase order rather than alphabetical.
  const auto rank = [](const std::string& p) {
    if (p == "collect") return 0;
    if (p == "aggregate") return 1;
    if (p == "compute") return 2;
    if (p == "disseminate") return 3;
    if (p == "enforce") return 4;
    return 5;
  };
  std::sort(report.phases.begin(), report.phases.end(),
            [&](const PhaseRow& a, const PhaseRow& b) {
              return rank(a.phase) < rank(b.phase);
            });

  // Critical path of the slowest cycle: from the root, repeatedly descend
  // into the child whose end time is latest — the chain that gated cycle
  // completion.
  if (slowest_root != nullptr) {
    report.slowest_cycle = slowest_root->cycle;
    std::unordered_map<std::uint64_t, std::vector<const TraceSpan*>> children;
    for (const auto* span : unique) {
      if (span->trace_id == slowest_root->trace_id &&
          span->parent_span != 0) {
        children[span->parent_span].push_back(span);
      }
    }
    const TraceSpan* node = slowest_root;
    std::size_t guard = 0;
    while (node != nullptr && guard++ < 64) {
      report.critical_path.push_back(
          {node->name, component_name(trace, node->track), node->dur_us});
      const auto it = children.find(node->span_id);
      if (it == children.end()) break;
      const TraceSpan* next = nullptr;
      for (const auto* child : it->second) {
        if (next == nullptr ||
            child->ts_us + child->dur_us > next->ts_us + next->dur_us) {
          next = child;
        }
      }
      node = next;
    }
  }
  return report;
}

std::string format_report(const TraceReport& report) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "cycles: %zu   spans: %zu   duplicates flagged: %zu\n"
                "cycle latency: total %.3f ms   mean %.3f ms   max %.3f ms "
                "(cycle %llu)\n\n",
                report.cycles, report.total_spans, report.duplicate_spans,
                report.total_cycle_us / 1e3, report.mean_cycle_us / 1e3,
                report.max_cycle_us / 1e3,
                static_cast<unsigned long long>(report.slowest_cycle));
  out += buf;

  out += "per-phase breakdown\n";
  out +=
      "  phase        count      total_ms       mean_us        max_us  "
      "share\n";
  for (const auto& row : report.phases) {
    std::snprintf(buf, sizeof(buf),
                  "  %-11s %6zu %13.3f %13.3f %13.3f %5.1f%%\n",
                  row.phase.c_str(), row.count, row.total_us / 1e3,
                  row.mean_us, row.max_us, row.share_pct);
    out += buf;
  }

  if (!report.critical_path.empty()) {
    std::snprintf(buf, sizeof(buf), "\ncritical path (cycle %llu)\n",
                  static_cast<unsigned long long>(report.slowest_cycle));
    out += buf;
    for (const auto& hop : report.critical_path) {
      std::snprintf(buf, sizeof(buf), "  %-24s %-24s %13.3f us\n",
                    hop.name.c_str(), hop.component.c_str(), hop.dur_us);
      out += buf;
    }
  }
  return out;
}

std::string summarize_metrics_jsonl(const std::string& jsonl) {
  std::string out;
  out += "cycle metrics (latest snapshot per series)\n";
  out +=
      "  name                               phase            count       "
      "mean_ms        p99_ms\n";
  // Later lines overwrite earlier ones (the file appends snapshots).
  std::map<std::string, std::string> rows;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    auto end = jsonl.find('\n', start);
    if (end == std::string::npos) end = jsonl.size();
    const std::string_view line(jsonl.data() + start, end - start);
    start = end + 1;
    std::string name;
    if (!parse_string(find_value(line, "name"), name)) continue;
    if (name.rfind("sds_cycle_", 0) != 0) continue;
    std::string kind;
    parse_string(find_value(line, "kind"), kind);
    if (kind != "histogram") continue;
    const auto labels = find_value(line, "labels");
    std::string phase;
    parse_string(find_value(labels, "phase"), phase);
    double count = 0;
    double mean = 0;
    double p99 = 0;
    parse_number(find_value(line, "count"), count);
    parse_number(find_value(line, "mean"), mean);
    parse_number(find_value(line, "p99"), p99);
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "  %-34s %-11s %10.0f %13.3f %13.3f\n", name.c_str(),
                  phase.empty() ? "-" : phase.c_str(), count, mean / 1e6,
                  p99 / 1e6);
    rows[name + "|" + phase] = buf;
  }
  for (const auto& [key, row] : rows) out += row;
  return out;
}

}  // namespace sds::telemetry
