// Scatter/gather RPC primitives used by the live control plane.
//
// A control cycle's collect phase is a scatter (CollectRequest to every
// stage) followed by a gather (one StageMetrics from each). The enforce
// phase is the same with EnforceBatch / EnforceAck. Replies are matched by
// (message type, cycle id, sender connection).
//
// The Dispatcher sits in the endpoint's frame handler and routes a run
// of frames at a time: under one registry lock it offers the run to each
// registered Gather, which takes its own replies under one gather lock
// and wakes its waiter at most once per run (and once per wave); the
// frames no gather took reach the fallback handler (registrations,
// heartbeats, ...) as one run, in arrival order.
//
// All gatherable message bodies start with a varint cycle id, so the
// dispatcher can route without fully decoding payloads.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "common/types.h"
#include "proto/messages.h"
#include "telemetry/metrics.h"
#include "transport/transport.h"

namespace sds::rpc {

/// Shared gather-layer instruments (created by Dispatcher::bind_telemetry
/// and referenced by every Gather the dispatcher starts).
struct GatherTelemetry {
  telemetry::Counter* gathers_started = nullptr;
  telemetry::Counter* replies = nullptr;
  telemetry::Counter* timeouts = nullptr;
  telemetry::Counter* peer_failures = nullptr;
  /// Expected replies per gather (the paper's fan-out size).
  telemetry::HistogramMetric* fanout = nullptr;
  /// wait_for() latency per gather wave.
  telemetry::HistogramMetric* wave_latency_ns = nullptr;
  /// Waiter wake-ups that offer_run() and fail() issued: at most one per
  /// wait, so a full or quorum wave that ends in time counts one.
  telemetry::Counter* wakeups = nullptr;
};

/// Reads the leading varint (cycle id) of a frame payload.
[[nodiscard]] std::optional<std::uint64_t> peek_cycle_id(const wire::Frame& frame);

/// One in-flight gather: waits for a reply of `type` from each expected
/// connection, optionally filtered by cycle id.
///
/// The expected peers form a slot table: a sorted (ConnId, slot) index,
/// the Roster, and one state byte per expected entry, so matching a reply
/// is a binary search and allocates nothing. A ConnId listed more than
/// once is one peer: it is waited for once, and its reply marks every
/// entry that names it.
class Gather {
 public:
  using Reply = transport::Delivery;

  /// The expected peers of a wave and their index sorted by ConnId. The
  /// Dispatcher hands the last roster of each reply type to the next wave
  /// that expects the same peers in the same order, so a steady roster is
  /// sorted once rather than once per wave.
  struct Roster {
    struct Slot {
      ConnId conn;
      std::uint32_t entry;  // position in `expected`
    };

    explicit Roster(std::vector<ConnId> expected_peers);

    const std::vector<ConnId> expected;
    /// `expected` sorted by ConnId (entries of one ConnId adjacent).
    std::vector<Slot> index;
    /// Distinct ConnIds.
    std::size_t peers = 0;
  };

  Gather(proto::MessageType type, std::optional<std::uint64_t> cycle,
         std::vector<ConnId> expected,
         std::shared_ptr<const GatherTelemetry> telemetry = nullptr,
         std::optional<proto::MessageType> alt_type = std::nullopt);
  /// A gather over a roster shared with earlier waves.
  Gather(std::shared_ptr<const Roster> roster, proto::MessageType type,
         std::optional<std::uint64_t> cycle,
         std::shared_ptr<const GatherTelemetry> telemetry = nullptr,
         std::optional<proto::MessageType> alt_type = std::nullopt);

  /// Offer a frame as a one-frame run; returns true if this gather
  /// consumed it, in which case `frame` was moved into the reply set. A
  /// refused frame (wrong type or cycle, unknown peer, duplicate reply)
  /// is left whole.
  bool offer(ConnId conn, wire::Frame& frame) SDS_EXCLUDES(mu_);

  /// Offer a run under one lock: takes each frame of `run` whose
  /// `taken` flag is clear and that this gather accepts, moving it into
  /// the reply set and setting its flag. Refused frames are left
  /// untouched. Wakes the waiter at most once, after the whole run.
  /// Returns how many frames it took.
  std::size_t offer_run(std::span<transport::Delivery> run,
                        std::span<bool> taken) SDS_EXCLUDES(mu_);

  /// Mark a connection as failed (e.g. it closed); the gather no longer
  /// waits for it.
  void fail(ConnId conn) SDS_EXCLUDES(mu_);

  /// Block until every expected reply arrived or `timeout` elapsed.
  /// Returns OK when complete, kDeadlineExceeded with the number of
  /// missing replies otherwise. Either way the replies that did arrive
  /// stay available — reply_count()/reply_bitmap() say which peers
  /// answered and take_replies() hands over the partial set.
  ///
  /// One waiter at a time: offer_run() and fail() signal the single
  /// thread blocked here, and only once its wait can end.
  [[nodiscard]] Status wait_for(Nanos timeout) SDS_EXCLUDES(mu_);

  /// Quorum variant: additionally returns OK (without waiting further)
  /// once at least `quorum` replies arrived, even though some peers are
  /// still outstanding. Callers distinguish a full wave from a quorum
  /// wave via missing(). kDeadlineExceeded only when the timeout passes
  /// below quorum. Same one-waiter contract as above.
  [[nodiscard]] Status wait_for(Nanos timeout, std::size_t quorum)
      SDS_EXCLUDES(mu_);

  /// Collected replies (call after wait_for).
  [[nodiscard]] std::vector<Reply> take_replies() SDS_EXCLUDES(mu_);

  [[nodiscard]] std::size_t pending() const SDS_EXCLUDES(mu_);

  /// The expected peers, in construction order — the index space of
  /// reply_bitmap().
  [[nodiscard]] const std::vector<ConnId>& expected() const {
    return roster_->expected;
  }
  /// Replies received so far (valid before and after take_replies()).
  [[nodiscard]] std::size_t reply_count() const SDS_EXCLUDES(mu_);
  /// Peers that neither replied nor failed.
  [[nodiscard]] std::size_t missing() const SDS_EXCLUDES(mu_);
  /// bit i == true iff expected()[i] replied.
  [[nodiscard]] std::vector<bool> reply_bitmap() const SDS_EXCLUDES(mu_);

 private:
  enum class PeerState : std::uint8_t { kWaiting, kReplied, kFailed };

  /// Right reply type and cycle (the checks that need no lock).
  [[nodiscard]] bool accepts(const wire::Frame& frame) const;
  /// Moves every entry of waiting peer `conn` to `state`; false when
  /// `conn` is not expected or no longer waiting.
  bool settle(ConnId conn, PeerState state) SDS_REQUIRES(mu_);
  /// Signals the waiter if its wait can now end.
  void wake_if_done() SDS_REQUIRES(mu_);
  [[nodiscard]] bool done(std::size_t quorum) const SDS_REQUIRES(mu_) {
    return pending_ == 0 || reply_count_ >= quorum;
  }

  const proto::MessageType type_;
  /// Second accepted reply type, matched like `type_` (a peer answers
  /// with exactly one of the two). Lets one collect gather accept both
  /// full StageMetrics frames and StageMetricsDelta frames — both start
  /// with the varint cycle id peek_cycle_id() routes on.
  const std::optional<proto::MessageType> alt_type_;
  const std::optional<std::uint64_t> cycle_;
  const std::shared_ptr<const Roster> roster_;
  const std::shared_ptr<const GatherTelemetry> telemetry_;

  mutable Mutex mu_{LockRank::kRpcGather};
  CondVar cv_;
  /// One per expected entry.
  std::vector<PeerState> state_ SDS_GUARDED_BY(mu_);
  /// Distinct peers that neither replied nor failed.
  std::size_t pending_ SDS_GUARDED_BY(mu_) = 0;
  std::size_t reply_count_ SDS_GUARDED_BY(mu_) = 0;
  std::size_t failed_ SDS_GUARDED_BY(mu_) = 0;
  /// Reserved for every expected peer up front.
  std::vector<Reply> replies_ SDS_GUARDED_BY(mu_);
  /// A thread is blocked in wait_for() and not yet signalled.
  bool waiter_ SDS_GUARDED_BY(mu_) = false;
  /// The quorum that blocked wait_for() recorded.
  std::size_t quorum_ SDS_GUARDED_BY(mu_) = 0;
};

/// Routes inbound frames to active gathers; thread-safe.
class Dispatcher {
 public:
  /// Receives, as one run in arrival order, the frames of a run that no
  /// gather took: at most kSendChunk frames per call.
  using FallbackHandler = transport::FrameHandler;

  void set_fallback(FallbackHandler handler) SDS_EXCLUDES(mu_);

  /// Register the gather layer's instruments (`sds_rpc_*{...labels}`)
  /// with `registry`; every subsequently started gather reports fan-out
  /// size, wave latency, replies and timeouts into them.
  void bind_telemetry(telemetry::MetricsRegistry& registry,
                      telemetry::Labels labels = {}) SDS_EXCLUDES(mu_);

  /// Create and register a gather. It stays registered, and keeps
  /// receiving frames, until the caller removes it with finish(); every
  /// start_gather() needs a matching finish(). `alt_type` optionally
  /// names a second accepted reply type (e.g. a collect gather taking
  /// kStageMetrics OR kStageMetricsDelta).
  std::shared_ptr<Gather> start_gather(
      proto::MessageType type, std::optional<std::uint64_t> cycle,
      std::vector<ConnId> expected,
      std::optional<proto::MessageType> alt_type = std::nullopt)
      SDS_EXCLUDES(mu_);

  /// Remove a finished gather.
  void finish(const std::shared_ptr<Gather>& gather) SDS_EXCLUDES(mu_);

  /// Endpoint frame handler: route a run to the gathers and the
  /// fallback, kSendChunk frames at a time. The run is offered to each
  /// gather under one registry lock (kRpcDispatcher ranks below
  /// kRpcGather); the frames no gather takes are moved, in arrival order,
  /// to the front of `run` and reach the fallback whole, as one run,
  /// after the lock is released.
  void on_frames(std::span<transport::Delivery> run) SDS_EXCLUDES(mu_);

  /// Endpoint connection handler: fail pending gathers on closed conns.
  void on_conn_event(ConnId conn, transport::ConnEvent event)
      SDS_EXCLUDES(mu_);

 private:
  /// The last roster started per primary reply type.
  struct KeptRoster {
    proto::MessageType type;
    std::shared_ptr<const Gather::Roster> roster;
  };

  /// The kept roster for `type` when it expects exactly `expected`,
  /// else a new one, kept in its place.
  std::shared_ptr<const Gather::Roster> roster_for(
      proto::MessageType type, std::vector<ConnId>&& expected)
      SDS_EXCLUDES(mu_);

  Mutex mu_{LockRank::kRpcDispatcher};
  std::vector<std::shared_ptr<Gather>> gathers_ SDS_GUARDED_BY(mu_);
  FallbackHandler fallback_ SDS_GUARDED_BY(mu_);
  std::shared_ptr<const GatherTelemetry> telemetry_ SDS_GUARDED_BY(mu_);
  std::vector<KeptRoster> rosters_ SDS_GUARDED_BY(mu_);
};

/// Convenience: send `request` on `conn` and wait for a single reply of
/// type `Reply::kType` (no cycle filter). Used for registration.
template <typename ReplyT, typename RequestT>
Result<ReplyT> call(transport::Endpoint& endpoint, Dispatcher& dispatcher,
                    ConnId conn, const RequestT& request, Nanos timeout) {
  auto gather = dispatcher.start_gather(ReplyT::kType, std::nullopt, {conn});
  const Status sent = endpoint.send(conn, proto::to_frame(request));
  if (!sent.is_ok()) {
    dispatcher.finish(gather);
    return sent;
  }
  const Status status = gather->wait_for(timeout);
  dispatcher.finish(gather);
  if (!status.is_ok()) return status;
  auto replies = gather->take_replies();
  if (replies.empty()) return Status::unavailable("no reply");
  return proto::from_frame<ReplyT>(replies.front().frame);
}

}  // namespace sds::rpc
