// Regression gates of the perf benches (perf_cycle, perf_million). A gate
// either ran, and passed or failed, or was skipped for a stated reason;
// it says which, never silently. The bench prints every gate, records
// them in its BENCH_*.json and exits 1 when one failed.
#pragma once

#include <cstdio>
#include <string>

namespace sds::bench {

struct Gate {
  explicit Gate(const char* gate_name) : name(gate_name) {}

  const char* name;
  bool ran = false;
  bool pass = true;
  std::string detail;  // "<value> vs <bar>" when ran, the reason if not

  void report() const {
    if (ran) {
      std::printf("gate %s: ran (%s)\n", name, detail.c_str());
      if (!pass) std::printf("FAIL: gate %s\n", name);
    } else {
      std::printf("gate %s: skipped(%s)\n", name, detail.c_str());
    }
  }

  [[nodiscard]] std::string json() const {
    std::string out = "{\"status\": \"";
    out += ran ? "ran" : "skipped";
    out += "\", ";
    out += ran ? "\"measured\": \"" : "\"reason\": \"";
    out += detail;
    out += "\"";
    if (ran) out += pass ? ", \"pass\": true" : ", \"pass\": false";
    return out + "}";
  }
};

/// A gate detail from a printf format with two values, typically
/// "<value> vs <bar>".
inline std::string format(const char* fmt, double a, double b) {
  char buf[96];
  std::snprintf(buf, sizeof buf, fmt, a, b);
  return buf;
}

}  // namespace sds::bench
