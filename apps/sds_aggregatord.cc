// sds_aggregatord — middle-tier aggregator daemon of the hierarchical
// design: an interior runtime::ControllerNode. Accepts stage (and other
// aggregators') registrations, serves its parent's collect/enforce
// cycles, pre-aggregates metrics upward. An aggregator whose upstream is
// another aggregator makes a 3-level tree.
//
//   sds_aggregatord --listen=0.0.0.0:7100 --upstream=ctrl:7000 --id=0
//   sds_aggregatord --listen=0.0.0.0:7200 --upstream=agg:7100 --id=0
//
// Flags:
//   --listen=HOST:PORT   bind address              (default 0.0.0.0:7100)
//   --upstream=HOST:PORT parent: the global controller or an aggregator
//                        (required)
//   --id=N               ControllerId among its parent's children
//                        (default 0)
//   --max-connections=N  per-endpoint cap          (default 2500)
//   --report-ms=N        resource report interval  (default 10000)
//   --telemetry-out=DIR  export JSONL/Prometheus snapshots + trace to DIR
//                        as aggregator-<listen port>.*
//   --telemetry-period-ms=N  telemetry snapshot period (default 1000)
//   --introspect-port=N    serve live /metrics, /cycles and /flight over
//                          HTTP on 127.0.0.1:N (0 = ephemeral port)
#include <thread>

#include "apps/daemon_common.h"
#include "runtime/controller_node.h"
#include "transport/tcp.h"

using namespace sds;

namespace {

constexpr const char* kUsage =
    "usage: sds_aggregatord --upstream=HOST:PORT [--listen=HOST:PORT]\n"
    "                       [--id=N] [--max-connections=N] [--report-ms=N]\n"
    "                       [--telemetry-out=DIR] [--telemetry-period-ms=N]\n"
    "                       [--introspect-port=N]\n";

}  // namespace

int main(int argc, char** argv) {
  apps::install_signal_handlers();
  const Config flags = apps::parse_flags(argc, argv, kUsage);

  const auto upstream = flags.get("upstream");
  if (!upstream) {
    std::fprintf(stderr, "--upstream is required\n%s", kUsage);
    return 2;
  }

  const std::string listen = flags.get_or("listen", "0.0.0.0:7100");
  transport::TcpNetwork network;
  runtime::ControllerNodeOptions options;
  options.id =
      ControllerId{static_cast<std::uint32_t>(flags.get_int_or("id", 0))};
  options.upstream_address = *upstream;
  // Ids repeat under different parents; listen ports do not on one host.
  options.telemetry = apps::telemetry_flags(
      flags, "aggregator-" + listen.substr(listen.rfind(':') + 1));
  runtime::ControllerNode server(network, listen, options);

  transport::EndpointOptions endpoint_options;
  endpoint_options.max_connections =
      static_cast<std::size_t>(flags.get_int_or("max-connections", 2500));
  if (const Status started = server.start(endpoint_options); !started.is_ok()) {
    std::fprintf(stderr, "start: %s\n", started.to_string().c_str());
    return 1;
  }
  std::fprintf(stderr, "sds_aggregatord %u listening on %s, upstream %s\n",
               options.id.value(), server.address().c_str(), upstream->c_str());

  const auto report_interval = millis(flags.get_int_or("report-ms", 10'000));
  monitor::ResourceMonitor mon({server.endpoint()});
  auto last_report = mon.sample();

  while (!apps::g_stop.load()) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(report_interval.count()));
    if (apps::g_stop.load()) break;
    last_report = apps::report_usage(mon, last_report, "sds_aggregatord");
    std::fprintf(stderr, "[sds_aggregatord] stages=%zu cycles_served=%llu\n",
                 server.registered_stages(),
                 static_cast<unsigned long long>(server.cycles_served()));
  }

  std::fprintf(stderr, "sds_aggregatord: shutting down\n");
  server.shutdown();
  return 0;
}
