// Shared plumbing for the sdscale daemons: flag parsing help, signal-based
// shutdown, and periodic resource reporting.
#pragma once

#include <atomic>
#include <csignal>
#include <cstdio>
#include <string>
#include <utility>

#include "common/config.h"
#include "monitor/resource_monitor.h"
#include "telemetry/reporter.h"

namespace sds::apps {

inline std::atomic<bool> g_stop{false};

inline void handle_signal(int) { g_stop.store(true); }

inline void install_signal_handlers() {
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
}

/// Parse --key=value flags; prints `usage` and exits on --help.
inline Config parse_flags(int argc, char** argv, const char* usage) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr, "%s", usage);
      std::exit(0);
    }
  }
  Config config;
  const auto rest = config.apply_args(argc - 1, argv + 1);
  if (!rest.empty()) {
    std::fprintf(stderr, "unknown argument: %s\n%s", rest.front().c_str(),
                 usage);
    std::exit(2);
  }
  return config;
}

/// Map the shared observability flags onto TelemetryOptions:
///   --telemetry-out=DIR        enable export; JSONL/Prometheus snapshots
///                              (and a Chrome trace on shutdown) land in DIR
///                              as <component>.metrics.jsonl etc.
///   --telemetry-period-ms=N    snapshot period (default 1000)
/// `component` names the daemon's role plus what tells two of them on
/// one machine apart (`aggregator-7100`), so they can share one DIR.
inline telemetry::TelemetryOptions telemetry_flags(const Config& flags,
                                                   std::string component) {
  telemetry::TelemetryOptions options;
  options.component = std::move(component);
  if (const auto dir = flags.get("telemetry-out")) {
    options.enabled = true;
    options.out_dir = *dir;
    options.trace = true;
  }
  if (flags.get("introspect-port")) {
    options.enabled = true;
    options.introspect = true;
    options.introspect_port =
        static_cast<std::uint16_t>(flags.get_int_or("introspect-port", 0));
  }
  options.report_period = millis(flags.get_int_or("telemetry-period-ms", 1000));
  return options;
}

/// Print one REMORA-style usage line for the interval since `previous`
/// and return the fresh sample.
inline monitor::ResourceSample report_usage(const monitor::ResourceMonitor& mon,
                                            const monitor::ResourceSample& previous,
                                            const char* who) {
  const auto now = mon.sample();
  const auto usage = monitor::ResourceMonitor::usage_between(previous, now);
  std::fprintf(stderr,
               "[%s] cpu=%.2f%% rss=%.3fGB tx=%.2fMB/s rx=%.2fMB/s\n", who,
               usage.cpu_percent, usage.rss_gb, usage.transmitted_mbps,
               usage.received_mbps);
  return now;
}

}  // namespace sds::apps
