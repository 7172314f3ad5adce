// sds_globald — the global SDS controller daemon.
//
// Runs the root runtime::ControllerNode: binds a TCP endpoint, accepts
// stage and aggregator registrations, and runs the collect → PSFA →
// enforce control loop until SIGINT/SIGTERM.
//
//   sds_globald --listen=0.0.0.0:7000 --policy=/etc/sdscale/policy.conf
//               --period-ms=1000 --max-connections=2500
//
// Flags:
//   --listen=HOST:PORT     bind address               (default 0.0.0.0:7000)
//   --policy=PATH          PolicySpec file            (optional)
//   --period-ms=N          control period; 0 = stress (default 1000)
//   --cycles=N             stop after N cycles; 0 = run forever
//   --max-connections=N    per-endpoint cap; 0 = unlimited (default 2500)
//   --probe-ms=N           liveness probe interval; 0 = off (default 10000)
//   --report-ms=N          resource report interval   (default 10000)
//   --telemetry-out=DIR    export JSONL/Prometheus snapshots + trace to DIR
//   --telemetry-period-ms=N  telemetry snapshot period (default 1000)
//   --introspect-port=N    serve live /metrics, /cycles and /flight over
//                          HTTP on 127.0.0.1:N (0 = ephemeral port)
#include <memory>
#include <thread>

#include "apps/daemon_common.h"
#include "policy/spec.h"
#include "runtime/controller_node.h"
#include "transport/tcp.h"

using namespace sds;

namespace {

constexpr const char* kUsage =
    "usage: sds_globald [--listen=HOST:PORT] [--policy=PATH] [--period-ms=N]\n"
    "                   [--cycles=N] [--max-connections=N] [--probe-ms=N]\n"
    "                   [--report-ms=N] [--telemetry-out=DIR]\n"
    "                   [--telemetry-period-ms=N] [--introspect-port=N]\n";

}  // namespace

int main(int argc, char** argv) {
  apps::install_signal_handlers();
  const Config flags = apps::parse_flags(argc, argv, kUsage);

  policy::PolicySpec spec;
  if (const auto path = flags.get("policy")) {
    auto parsed = policy::PolicySpec::from_file(*path);
    if (!parsed.is_ok()) {
      std::fprintf(stderr, "policy: %s\n", parsed.status().to_string().c_str());
      return 1;
    }
    spec = *parsed;
  }

  transport::TcpNetwork network;
  runtime::ControllerNodeOptions options;
  options.core.budgets = {spec.data_budget, spec.meta_budget};
  options.phase_timeout = seconds(5);
  options.telemetry = apps::telemetry_flags(flags, "global");
  runtime::ControllerNode server(
      network, flags.get_or("listen", "0.0.0.0:7000"), options,
      std::make_unique<policy::Psfa>(spec.psfa));

  transport::EndpointOptions endpoint_options;
  endpoint_options.max_connections =
      static_cast<std::size_t>(flags.get_int_or("max-connections", 2500));
  if (const Status started = server.start(endpoint_options); !started.is_ok()) {
    std::fprintf(stderr, "start: %s\n", started.to_string().c_str());
    return 1;
  }
  for (const auto& [job, weight] : spec.job_weights) {
    server.set_job_weight(JobId{job}, weight);
  }
  std::fprintf(stderr, "sds_globald listening on %s (budgets: data=%.0f "
               "meta=%.0f ops/s)\n",
               server.address().c_str(), spec.data_budget, spec.meta_budget);

  const auto period = millis(flags.get_int_or("period-ms", 1000));
  const auto probe_interval = millis(flags.get_int_or("probe-ms", 10'000));
  const auto report_interval = millis(flags.get_int_or("report-ms", 10'000));
  const auto max_cycles =
      static_cast<std::uint64_t>(flags.get_int_or("cycles", 0));

  monitor::ResourceMonitor mon({server.endpoint()});
  auto last_report = mon.sample();
  Nanos next_probe = SystemClock::instance().now() + probe_interval;
  Nanos next_report = SystemClock::instance().now() + report_interval;

  std::uint64_t cycles = 0;
  while (!apps::g_stop.load()) {
    const Nanos cycle_start = SystemClock::instance().now();
    if (server.registered_stages() > 0 || server.known_aggregators() > 0) {
      const auto breakdown = server.run_cycle();
      if (breakdown.is_ok()) {
        ++cycles;
      } else {
        std::fprintf(stderr, "cycle error: %s\n",
                     breakdown.status().to_string().c_str());
      }
      if (max_cycles != 0 && cycles >= max_cycles) break;
    }

    const Nanos now = SystemClock::instance().now();
    if (probe_interval > Nanos{0} && now >= next_probe) {
      next_probe = now + probe_interval;
      auto dead = server.probe_liveness(seconds(2));
      if (dead.is_ok()) {
        for (const auto& peer : *dead) {
          std::fprintf(stderr, "liveness: evicting silent peer (agg=%u)\n",
                       peer.aggregator.valid() ? peer.aggregator.value()
                                               : ~0u);
          server.evict(peer);
        }
      }
    }
    if (now >= next_report) {
      next_report = now + report_interval;
      last_report = apps::report_usage(mon, last_report, "sds_globald");
      std::fprintf(stderr,
                   "[sds_globald] cycles=%llu stages=%zu aggregators=%zu "
                   "mean=%.2fms\n",
                   static_cast<unsigned long long>(cycles),
                   server.registered_stages(), server.known_aggregators(),
                   server.stats().mean_total_ms());
    }

    // Hold the configured control period (stress mode when 0).
    const Nanos elapsed = SystemClock::instance().now() - cycle_start;
    if (period > elapsed) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds((period - elapsed).count()));
    }
  }

  std::fprintf(stderr, "sds_globald: %llu cycles, shutting down\n",
               static_cast<unsigned long long>(cycles));
  server.shutdown();
  return 0;
}
