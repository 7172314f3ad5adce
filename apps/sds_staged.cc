// sds_staged — data-plane stage host daemon. Hosts N virtual stages (the
// paper runs 50 per compute node), registers each over its own
// connection with the configured controller(s), and answers collect /
// enforce traffic. Demand is synthetic (constant or bursty) or replayed
// from a recorded trace CSV.
//
//   sds_staged --controllers=ctrl:7000 --stages=50 --first-stage=0
//              --job-size=50 --data-demand=1000 --meta-demand=100
//   sds_staged --controllers=agg0:7100,agg1:7100 --trace=run.csv
//
// Flags:
//   --listen=HOST:PORT     bind address               (default 0.0.0.0:0)
//   --controllers=A[,B..]  controller addresses in failover order (required)
//   --stages=N             virtual stages to host     (default 50)
//   --first-stage=N        id of the first stage      (default 0)
//   --job-size=N           stages per job             (default 50)
//   --data-demand=R        constant data ops/s        (default 1000)
//   --meta-demand=R        constant metadata ops/s    (default 100)
//   --burst-ms=N           if > 0: on/off bursts of this length
//   --trace=PATH           replay demand from a trace CSV instead
//   --report-ms=N          resource report interval   (default 10000)
//   --telemetry-out=DIR    export JSONL/Prometheus snapshots + trace to DIR
//                          as stage_host-<first stage>.*
//   --telemetry-period-ms=N  telemetry snapshot period (default 1000)
//   --introspect-port=N    serve live /metrics, /cycles and /flight over
//                          HTTP on 127.0.0.1:N (0 = ephemeral port)
#include <thread>

#include "apps/daemon_common.h"
#include "runtime/stage_host.h"
#include "transport/tcp.h"
#include "workload/generators.h"
#include "workload/trace.h"

using namespace sds;

namespace {

constexpr const char* kUsage =
    "usage: sds_staged --controllers=HOST:PORT[,HOST:PORT...]\n"
    "                  [--listen=HOST:PORT] [--stages=N] [--first-stage=N]\n"
    "                  [--job-size=N] [--data-demand=R] [--meta-demand=R]\n"
    "                  [--burst-ms=N] [--trace=PATH] [--report-ms=N]\n"
    "                  [--telemetry-out=DIR] [--telemetry-period-ms=N]\n"
    "                  [--introspect-port=N]\n";

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto comma = std::min(text.find(',', pos), text.size());
    if (comma > pos) out.push_back(text.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  apps::install_signal_handlers();
  const Config flags = apps::parse_flags(argc, argv, kUsage);

  runtime::StageHostOptions options;
  options.controller_addresses = split_csv(flags.get_or("controllers", ""));
  if (options.controller_addresses.empty()) {
    std::fprintf(stderr, "--controllers is required\n%s", kUsage);
    return 2;
  }
  const auto first_stage =
      static_cast<std::uint32_t>(flags.get_int_or("first-stage", 0));
  // The default port is ephemeral; the first stage id tells hosts apart.
  options.telemetry = apps::telemetry_flags(
      flags, "stage_host-" + std::to_string(first_stage));

  workload::DemandTrace trace;
  bool use_trace = false;
  if (const auto path = flags.get("trace")) {
    auto loaded = workload::DemandTrace::load(*path);
    if (!loaded.is_ok()) {
      std::fprintf(stderr, "trace: %s\n", loaded.status().to_string().c_str());
      return 1;
    }
    trace = std::move(loaded).value();
    use_trace = true;
  }

  transport::TcpNetwork network;
  runtime::StageHost host(network, flags.get_or("listen", "0.0.0.0:0"),
                          options);
  if (const Status started = host.start(); !started.is_ok()) {
    std::fprintf(stderr, "start: %s\n", started.to_string().c_str());
    return 1;
  }

  const auto num_stages =
      static_cast<std::uint32_t>(flags.get_int_or("stages", 50));
  const auto job_size =
      static_cast<std::uint32_t>(std::max<std::int64_t>(1, flags.get_int_or("job-size", 50)));
  const double data_rate = flags.get_double_or("data-demand", 1000.0);
  const double meta_rate = flags.get_double_or("meta-demand", 100.0);
  const auto burst = millis(flags.get_int_or("burst-ms", 0));

  for (std::uint32_t i = 0; i < num_stages; ++i) {
    const StageId stage_id{first_stage + i};
    proto::StageInfo info;
    info.stage_id = stage_id;
    info.node_id = NodeId{first_stage + i};
    info.job_id = JobId{(first_stage + i) / job_size};
    info.hostname = flags.get_or("listen", "0.0.0.0:0");

    stage::DemandFn data;
    stage::DemandFn meta;
    if (use_trace) {
      data = trace.demand_for(stage_id, stage::Dimension::kData);
      meta = trace.demand_for(stage_id, stage::Dimension::kMeta);
    } else if (burst > Nanos{0}) {
      const auto burst_ms = static_cast<std::int64_t>(to_millis(burst));
      const Nanos phase =
          millis((stage_id.value() * 137) % (2 * burst_ms));
      data = workload::bursty(data_rate, 0.0, burst, burst, phase);
      meta = workload::bursty(meta_rate, 0.0, burst, burst, phase);
    } else {
      data = workload::constant(data_rate);
      meta = workload::constant(meta_rate);
    }
    if (const Status added =
            host.add_stage(std::move(info), std::move(data), std::move(meta));
        !added.is_ok()) {
      std::fprintf(stderr, "add_stage: %s\n", added.to_string().c_str());
      return 1;
    }
  }

  if (const Status registered = host.register_all(); !registered.is_ok()) {
    std::fprintf(stderr, "register: %s\n", registered.to_string().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "sds_staged: %u stages [%u, %u) registered with %s%s\n",
               num_stages, first_stage, first_stage + num_stages,
               options.controller_addresses.front().c_str(),
               use_trace ? " (trace replay)" : "");

  const auto report_interval = millis(flags.get_int_or("report-ms", 10'000));
  monitor::ResourceMonitor mon({host.endpoint()});
  auto last_report = mon.sample();
  while (!apps::g_stop.load()) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(report_interval.count()));
    if (apps::g_stop.load()) break;
    last_report = apps::report_usage(mon, last_report, "sds_staged");
    std::fprintf(stderr, "[sds_staged] collects_answered=%llu\n",
                 static_cast<unsigned long long>(host.collects_answered()));
  }

  std::fprintf(stderr, "sds_staged: shutting down\n");
  host.shutdown();
  return 0;
}
