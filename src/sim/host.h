// SimHost — time model of one controller node: a serial CPU queue and a
// serializing NIC transmit link, with byte/busy-time accounting.
//
// The model is deliberately simple (it is the paper's own observation
// that per-message controller work and the connection fan-out dominate):
//   * CPU work items execute FIFO on one core; `busy_ns` accumulates.
//   * Outbound messages first cost CPU (build/serialize), then occupy the
//     NIC for size/bandwidth, then arrive after the wire latency.
//   * Inbound messages cost CPU on receive before their handler runs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "sim/profile.h"

namespace sds::sim {

class SimHost {
 public:
  SimHost(Engine& engine, const FronteraProfile& profile, std::string name)
      : engine_(&engine), profile_(&profile), name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Execute `fn` after `cpu_cost` of serial CPU work on this host.
  void run(Nanos cpu_cost, Engine::EventFn fn) {
    const Nanos start = std::max(engine_->now(), cpu_free_);
    cpu_free_ = start + cpu_cost;
    busy_ns_ += cpu_cost.count();
    engine_->schedule_at(cpu_free_, std::move(fn));
  }

  /// Send a message of `payload_bytes`: charges send CPU (plus
  /// `extra_cpu`, e.g. per-rule routing work), serializes on the NIC,
  /// then invokes `on_arrival` at the destination time. The receiver is
  /// responsible for charging its own receive cost (use `receive` in the
  /// continuation).
  ///
  /// Templated on the arrival callable so the NIC continuation captures
  /// the raw closure (not a type-erased EventFn) — the common small
  /// captures then stay within SmallFn's inline buffer end to end.
  template <typename F>
  void send(std::size_t payload_bytes, F&& on_arrival,
            Nanos extra_cpu = Nanos{0}) {
    run(charge_send(payload_bytes, extra_cpu),
        make_nic_event(payload_bytes, std::forward<F>(on_arrival)));
  }

  /// Fan out `count` messages of identical `payload_bytes` in one batched
  /// engine insert. Exactly equivalent to calling send() `count` times in
  /// index order — same accounting, same event times, same FIFO ordering —
  /// but the per-message CPU-completion events enter the engine through
  /// one schedule_batch call instead of `count` heap pushes.
  /// `make_on_arrival(i)` is invoked synchronously for i in [0, count).
  template <typename MakeArrival>
  void broadcast(std::size_t count, std::size_t payload_bytes,
                 MakeArrival&& make_on_arrival, Nanos extra_cpu = Nanos{0}) {
    batch_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const Nanos cpu_cost = charge_send(payload_bytes, extra_cpu);
      const Nanos start = std::max(engine_->now(), cpu_free_);
      cpu_free_ = start + cpu_cost;
      busy_ns_ += cpu_cost.count();
      batch_.push_back(Engine::TimedEvent{
          cpu_free_, make_nic_event(payload_bytes, make_on_arrival(i))});
    }
    engine_->schedule_batch(batch_);
  }

  /// Account an inbound message and run `fn` after the receive CPU cost.
  template <typename F>
  void receive(std::size_t payload_bytes, F&& fn) {
    bytes_rx_ += payload_bytes + profile_->msg_overhead_bytes;
    ++messages_rx_;
    const Nanos cpu_cost =
        profile_->cpu_recv_fixed +
        Nanos{static_cast<std::int64_t>(
            static_cast<double>(payload_bytes) * profile_->cpu_recv_per_byte_ns)};
    run(cpu_cost, std::forward<F>(fn));
  }

  // -- Accounting ------------------------------------------------------
  [[nodiscard]] Nanos busy() const { return Nanos{busy_ns_} ; }
  [[nodiscard]] std::uint64_t bytes_tx() const { return bytes_tx_; }
  [[nodiscard]] std::uint64_t bytes_rx() const { return bytes_rx_; }
  [[nodiscard]] std::uint64_t messages_tx() const { return messages_tx_; }
  [[nodiscard]] std::uint64_t messages_rx() const { return messages_rx_; }

  void reset_accounting() {
    busy_ns_ = Nanos{0}.count();
    bytes_tx_ = bytes_rx_ = 0;
    messages_tx_ = messages_rx_ = 0;
  }

 private:
  /// Account one outbound message and return its send-side CPU cost.
  Nanos charge_send(std::size_t payload_bytes, Nanos extra_cpu) {
    bytes_tx_ += payload_bytes + profile_->msg_overhead_bytes;
    ++messages_tx_;
    return extra_cpu + profile_->cpu_send_fixed +
           Nanos{static_cast<std::int64_t>(
               static_cast<double>(payload_bytes) *
               profile_->cpu_send_per_byte_ns)};
  }

  /// The NIC-serialization continuation shared by send() and broadcast():
  /// occupies the transmit link for size/bandwidth, then schedules
  /// `on_arrival` after the wire latency.
  template <typename F>
  auto make_nic_event(std::size_t payload_bytes, F&& on_arrival) {
    const std::size_t wire_bytes = payload_bytes + profile_->msg_overhead_bytes;
    return [this, wire_bytes,
            on_arrival = std::forward<F>(on_arrival)]() mutable {
      const Nanos serialize{static_cast<std::int64_t>(
          static_cast<double>(wire_bytes) / profile_->nic_bytes_per_ns)};
      const Nanos start = std::max(engine_->now(), tx_free_);
      tx_free_ = start + serialize;
      engine_->schedule_at(tx_free_ + profile_->wire_latency,
                           std::move(on_arrival));
    };
  }

  Engine* engine_;
  const FronteraProfile* profile_;
  std::string name_;

  Nanos cpu_free_{0};
  Nanos tx_free_{0};
  std::vector<Engine::TimedEvent> batch_;  // broadcast scratch, reused
  std::int64_t busy_ns_ = 0;
  std::uint64_t bytes_tx_ = 0;
  std::uint64_t bytes_rx_ = 0;
  std::uint64_t messages_tx_ = 0;
  std::uint64_t messages_rx_ = 0;
};

}  // namespace sds::sim
