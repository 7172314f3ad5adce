#include "proto/messages.h"

#include <bit>
#include <cmath>

namespace sds::proto {

namespace {

using wire::Decoder;
using wire::Encoder;

void put_id32(Encoder& enc, std::uint32_t v) { enc.put_u32(v); }

template <typename Id>
Id get_id32(Decoder& dec) {
  return Id{dec.get_u32()};
}

/// Reads an element count and checks it against the bytes left: each
/// element takes at least `min_size` bytes, so a larger count is corrupt
/// and is refused before anything is reserved for it.
bool get_count(Decoder& dec, std::size_t min_size, std::uint64_t& n) {
  n = dec.get_varint();
  return dec.ok() && n <= dec.remaining() / min_size;
}

/// Rates, limits and budgets from the wire must be finite: one NaN or
/// infinity poisons every allocation it is summed into. The codec itself
/// carries any bit pattern; the messages refuse these.
template <typename... T>
bool finite(T... values) {
  return (std::isfinite(values) && ...);
}

}  // namespace

std::string_view to_string(MessageType t) {
  switch (t) {
    case MessageType::kInvalid: return "Invalid";
    case MessageType::kRegisterRequest: return "RegisterRequest";
    case MessageType::kRegisterAck: return "RegisterAck";
    case MessageType::kCollectRequest: return "CollectRequest";
    case MessageType::kStageMetrics: return "StageMetrics";
    case MessageType::kMetricsBatch: return "MetricsBatch";
    case MessageType::kAggregatedMetrics: return "AggregatedMetrics";
    case MessageType::kEnforceBatch: return "EnforceBatch";
    case MessageType::kEnforceAck: return "EnforceAck";
    case MessageType::kHeartbeat: return "Heartbeat";
    case MessageType::kHeartbeatAck: return "HeartbeatAck";
    case MessageType::kBudgetLease: return "BudgetLease";
    case MessageType::kError: return "Error";
    case MessageType::kStageMetricsDelta: return "StageMetricsDelta";
  }
  return "Unknown";
}

// --------------------------------------------------------------------------
// StageInfo

void StageInfo::encode(Encoder& enc) const {
  put_id32(enc, stage_id.value());
  put_id32(enc, node_id.value());
  put_id32(enc, job_id.value());
  enc.put_string(hostname);
}

Result<StageInfo> StageInfo::decode(Decoder& dec) {
  StageInfo info;
  info.stage_id = get_id32<StageId>(dec);
  info.node_id = get_id32<NodeId>(dec);
  info.job_id = get_id32<JobId>(dec);
  info.hostname = dec.get_string();
  if (!dec.ok()) return Status::invalid_argument("StageInfo: truncated");
  return info;
}

std::size_t StageInfo::wire_size() const {
  return 4 + 4 + 4 + Encoder::varint_size(hostname.size()) + hostname.size();
}

Result<RegisterRequest> RegisterRequest::decode(Decoder& dec) {
  auto info = StageInfo::decode(dec);
  if (!info.is_ok()) return info.status();
  return RegisterRequest{std::move(info).value()};
}

void RegisterAck::encode(Encoder& enc) const {
  enc.put_bool(accepted);
  enc.put_u32(epoch);
}

Result<RegisterAck> RegisterAck::decode(Decoder& dec) {
  RegisterAck ack;
  ack.accepted = dec.get_bool();
  ack.epoch = dec.get_u32();
  if (!dec.ok()) return Status::invalid_argument("RegisterAck: truncated");
  return ack;
}

// --------------------------------------------------------------------------
// Collect

void CollectRequest::encode(Encoder& enc) const {
  enc.put_varint(cycle_id);
  enc.put_bool(detailed);
}

Result<CollectRequest> CollectRequest::decode(Decoder& dec) {
  CollectRequest req;
  req.cycle_id = dec.get_varint();
  req.detailed = dec.get_bool();
  if (!dec.ok()) return Status::invalid_argument("CollectRequest: truncated");
  return req;
}

std::size_t CollectRequest::wire_size() const {
  return Encoder::varint_size(cycle_id) + 1;
}

void StageMetrics::encode(Encoder& enc) const {
  enc.put_varint(cycle_id);
  put_id32(enc, stage_id.value());
  put_id32(enc, job_id.value());
  enc.put_double(data_iops);
  enc.put_double(meta_iops);
  enc.put_double(data_limit);
  enc.put_double(meta_limit);
}

Result<StageMetrics> StageMetrics::decode(Decoder& dec) {
  StageMetrics m;
  m.cycle_id = dec.get_varint();
  m.stage_id = get_id32<StageId>(dec);
  m.job_id = get_id32<JobId>(dec);
  m.data_iops = dec.get_double();
  m.meta_iops = dec.get_double();
  m.data_limit = dec.get_double();
  m.meta_limit = dec.get_double();
  if (!dec.ok()) return Status::invalid_argument("StageMetrics: truncated");
  if (!finite(m.data_iops, m.meta_iops, m.data_limit, m.meta_limit)) {
    return Status::invalid_argument("StageMetrics: non-finite value");
  }
  return m;
}

std::size_t StageMetrics::wire_size() const {
  return Encoder::varint_size(cycle_id) + 4 + 4 + 8 * 4;
}

namespace {

/// The four delta-carried metric fields of a StageMetrics, in field-bit
/// order, as raw IEEE-754 bit patterns.
std::array<std::uint64_t, StageMetricsDelta::kFieldCount> metric_bits(
    const StageMetrics& m) {
  return {std::bit_cast<std::uint64_t>(m.data_iops),
          std::bit_cast<std::uint64_t>(m.meta_iops),
          std::bit_cast<std::uint64_t>(m.data_limit),
          std::bit_cast<std::uint64_t>(m.meta_limit)};
}

}  // namespace

StageMetricsDelta StageMetricsDelta::make(const StageMetrics& prev,
                                          const StageMetrics& curr,
                                          bool include_stage_id) {
  StageMetricsDelta d;
  d.cycle_id = curr.cycle_id;
  d.base_cycle_id = prev.cycle_id;
  if (include_stage_id) d.stage_id = curr.stage_id;
  const auto before = metric_bits(prev);
  const auto after = metric_bits(curr);
  for (std::size_t i = 0; i < kFieldCount; ++i) {
    if (before[i] == after[i]) continue;
    d.fields |= static_cast<std::uint8_t>(1u << i);
    d.deltas[i] = after[i] - before[i];  // mod 2^64, exact by construction
  }
  return d;
}

StageMetrics StageMetricsDelta::apply(const StageMetrics& prev) const {
  StageMetrics m = prev;
  m.cycle_id = cycle_id;
  if (stage_id.has_value()) m.stage_id = *stage_id;
  auto bits = metric_bits(prev);
  for (std::size_t i = 0; i < kFieldCount; ++i) {
    if ((fields & (1u << i)) != 0) bits[i] += deltas[i];
  }
  m.data_iops = std::bit_cast<double>(bits[0]);
  m.meta_iops = std::bit_cast<double>(bits[1]);
  m.data_limit = std::bit_cast<double>(bits[2]);
  m.meta_limit = std::bit_cast<double>(bits[3]);
  return m;
}

void StageMetricsDelta::encode(Encoder& enc) const {
  const std::uint64_t base_age = cycle_id - base_cycle_id;
  std::uint8_t flags = fields;
  if (stage_id.has_value()) flags |= kHasStageId;
  if (base_age != 1) flags |= kHasBaseAge;
  enc.put_varint(cycle_id);
  enc.put_u8(flags);
  if (stage_id.has_value()) enc.put_varint(stage_id->value());
  if (base_age != 1) enc.put_varint(base_age);
  for (std::size_t i = 0; i < kFieldCount; ++i) {
    if ((fields & (1u << i)) != 0) {
      enc.put_svarint(static_cast<std::int64_t>(deltas[i]));
    }
  }
}

Result<StageMetricsDelta> StageMetricsDelta::decode(Decoder& dec) {
  StageMetricsDelta d;
  d.cycle_id = dec.get_varint();
  const std::uint8_t flags = dec.get_u8();
  if (!dec.ok()) return Status::invalid_argument("StageMetricsDelta: truncated");
  if ((flags & ~(kDataIops | kMetaIops | kDataLimit | kMetaLimit |
                 kHasStageId | kHasBaseAge)) != 0) {
    return Status::invalid_argument("StageMetricsDelta: reserved flag bits");
  }
  d.fields = flags & (kDataIops | kMetaIops | kDataLimit | kMetaLimit);
  if ((flags & kHasStageId) != 0) {
    d.stage_id = StageId{static_cast<std::uint32_t>(dec.get_varint())};
  }
  std::uint64_t base_age = 1;
  if ((flags & kHasBaseAge) != 0) base_age = dec.get_varint();
  if (base_age > d.cycle_id) {
    return Status::invalid_argument("StageMetricsDelta: base age before cycle 0");
  }
  d.base_cycle_id = d.cycle_id - base_age;
  for (std::size_t i = 0; i < kFieldCount; ++i) {
    if ((d.fields & (1u << i)) != 0) {
      d.deltas[i] = static_cast<std::uint64_t>(dec.get_svarint());
    }
  }
  if (!dec.ok()) return Status::invalid_argument("StageMetricsDelta: truncated");
  return d;
}

std::size_t StageMetricsDelta::wire_size() const {
  const std::uint64_t base_age = cycle_id - base_cycle_id;
  std::size_t size = Encoder::varint_size(cycle_id) + 1;
  if (stage_id.has_value()) size += Encoder::varint_size(stage_id->value());
  if (base_age != 1) size += Encoder::varint_size(base_age);
  for (std::size_t i = 0; i < kFieldCount; ++i) {
    if ((fields & (1u << i)) != 0) {
      const auto v = static_cast<std::int64_t>(deltas[i]);
      const std::uint64_t zigzag =
          (static_cast<std::uint64_t>(v) << 1) ^
          static_cast<std::uint64_t>(v >> 63);
      size += Encoder::varint_size(zigzag);
    }
  }
  return size;
}

void MetricsBatch::encode(Encoder& enc) const {
  enc.put_varint(cycle_id);
  put_id32(enc, from.value());
  enc.put_varint(entries.size());
  for (const auto& e : entries) e.encode(enc);
}

Result<MetricsBatch> MetricsBatch::decode(Decoder& dec) {
  MetricsBatch batch;
  batch.cycle_id = dec.get_varint();
  batch.from = get_id32<ControllerId>(dec);
  std::uint64_t n = 0;
  if (!get_count(dec, StageMetrics{}.wire_size(), n)) {
    return Status::invalid_argument("MetricsBatch: bad count");
  }
  batch.entries.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    auto entry = StageMetrics::decode(dec);
    if (!entry.is_ok()) return entry.status();
    batch.entries.push_back(std::move(entry).value());
  }
  return batch;
}

std::size_t MetricsBatch::wire_size() const {
  std::size_t size = Encoder::varint_size(cycle_id) + 4 +
                     Encoder::varint_size(entries.size());
  for (const auto& e : entries) size += e.wire_size();
  return size;
}

void JobMetrics::encode(Encoder& enc) const {
  put_id32(enc, job_id.value());
  enc.put_double(data_iops);
  enc.put_double(meta_iops);
  enc.put_u32(stage_count);
}

Result<JobMetrics> JobMetrics::decode(Decoder& dec) {
  JobMetrics m;
  m.job_id = get_id32<JobId>(dec);
  m.data_iops = dec.get_double();
  m.meta_iops = dec.get_double();
  m.stage_count = dec.get_u32();
  if (!dec.ok()) return Status::invalid_argument("JobMetrics: truncated");
  if (!finite(m.data_iops, m.meta_iops)) {
    return Status::invalid_argument("JobMetrics: non-finite value");
  }
  return m;
}

std::size_t JobMetrics::wire_size() const { return 4 + 8 + 8 + 4; }

void StageDigest::encode(Encoder& enc) const {
  put_id32(enc, stage_id.value());
  enc.put_f32(data_iops);
  enc.put_f32(meta_iops);
}

Result<StageDigest> StageDigest::decode(Decoder& dec) {
  StageDigest d;
  d.stage_id = get_id32<StageId>(dec);
  d.data_iops = dec.get_f32();
  d.meta_iops = dec.get_f32();
  if (!dec.ok()) return Status::invalid_argument("StageDigest: truncated");
  if (!finite(d.data_iops, d.meta_iops)) {
    return Status::invalid_argument("StageDigest: non-finite value");
  }
  return d;
}

void AggregatedMetrics::encode(Encoder& enc) const {
  enc.put_varint(cycle_id);
  put_id32(enc, from.value());
  enc.put_u32(total_stages);
  enc.put_varint(jobs.size());
  for (const auto& j : jobs) j.encode(enc);
  enc.put_varint(digests.size());
  for (const auto& d : digests) d.encode(enc);
}

Result<AggregatedMetrics> AggregatedMetrics::decode(Decoder& dec) {
  AggregatedMetrics agg;
  agg.cycle_id = dec.get_varint();
  agg.from = get_id32<ControllerId>(dec);
  agg.total_stages = dec.get_u32();
  std::uint64_t n = 0;
  if (!get_count(dec, JobMetrics{}.wire_size(), n)) {
    return Status::invalid_argument("AggregatedMetrics: bad count");
  }
  agg.jobs.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    auto job = JobMetrics::decode(dec);
    if (!job.is_ok()) return job.status();
    agg.jobs.push_back(std::move(job).value());
  }
  std::uint64_t d = 0;
  if (!get_count(dec, StageDigest::wire_size(), d)) {
    return Status::invalid_argument("AggregatedMetrics: bad digest count");
  }
  agg.digests.reserve(static_cast<std::size_t>(d));
  for (std::uint64_t i = 0; i < d; ++i) {
    auto digest = StageDigest::decode(dec);
    if (!digest.is_ok()) return digest.status();
    agg.digests.push_back(std::move(digest).value());
  }
  return agg;
}

std::size_t AggregatedMetrics::wire_size() const {
  std::size_t size = Encoder::varint_size(cycle_id) + 4 + 4 +
                     Encoder::varint_size(jobs.size());
  for (const auto& j : jobs) size += j.wire_size();
  size += Encoder::varint_size(digests.size()) +
          digests.size() * StageDigest::wire_size();
  return size;
}

// --------------------------------------------------------------------------
// Enforce

void Rule::encode(Encoder& enc) const {
  put_id32(enc, stage_id.value());
  put_id32(enc, job_id.value());
  enc.put_double(data_iops_limit);
  enc.put_double(meta_iops_limit);
  enc.put_varint(epoch);
}

Result<Rule> Rule::decode(Decoder& dec) {
  Rule r;
  r.stage_id = get_id32<StageId>(dec);
  r.job_id = get_id32<JobId>(dec);
  r.data_iops_limit = dec.get_double();
  r.meta_iops_limit = dec.get_double();
  r.epoch = dec.get_varint();
  if (!dec.ok()) return Status::invalid_argument("Rule: truncated");
  if (!finite(r.data_iops_limit, r.meta_iops_limit)) {
    return Status::invalid_argument("Rule: non-finite limit");
  }
  return r;
}

std::size_t Rule::wire_size() const {
  return 4 + 4 + 8 + 8 + Encoder::varint_size(epoch);
}

void EnforceBatch::encode(Encoder& enc) const {
  enc.put_varint(cycle_id);
  enc.put_varint(rules.size());
  for (const auto& r : rules) r.encode(enc);
}

Result<EnforceBatch> EnforceBatch::decode(Decoder& dec) {
  EnforceBatch batch;
  SDS_RETURN_IF_ERROR(decode(dec, batch));
  return batch;
}

Status EnforceBatch::decode(Decoder& dec, EnforceBatch& out) {
  out.cycle_id = dec.get_varint();
  std::uint64_t n = 0;
  if (!get_count(dec, Rule{}.wire_size(), n)) {
    return Status::invalid_argument("EnforceBatch: bad count");
  }
  out.rules.clear();
  out.rules.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    auto rule = Rule::decode(dec);
    if (!rule.is_ok()) return rule.status();
    out.rules.push_back(std::move(rule).value());
  }
  return Status::ok();
}

std::size_t EnforceBatch::wire_size() const {
  std::size_t size =
      Encoder::varint_size(cycle_id) + Encoder::varint_size(rules.size());
  for (const auto& r : rules) size += r.wire_size();
  return size;
}

void EnforceAck::encode(Encoder& enc) const {
  enc.put_varint(cycle_id);
  enc.put_u32(applied);
}

Result<EnforceAck> EnforceAck::decode(Decoder& dec) {
  EnforceAck ack;
  ack.cycle_id = dec.get_varint();
  ack.applied = dec.get_u32();
  if (!dec.ok()) return Status::invalid_argument("EnforceAck: truncated");
  return ack;
}

std::size_t EnforceAck::wire_size() const {
  return Encoder::varint_size(cycle_id) + 4;
}

// --------------------------------------------------------------------------
// Liveness / delegation

void Heartbeat::encode(Encoder& enc) const {
  put_id32(enc, from.value());
  enc.put_varint(seq);
}

Result<Heartbeat> Heartbeat::decode(Decoder& dec) {
  Heartbeat hb;
  hb.from = get_id32<ControllerId>(dec);
  hb.seq = dec.get_varint();
  if (!dec.ok()) return Status::invalid_argument("Heartbeat: truncated");
  return hb;
}

std::size_t Heartbeat::wire_size() const {
  return 4 + Encoder::varint_size(seq);
}

void HeartbeatAck::encode(Encoder& enc) const { enc.put_varint(seq); }

Result<HeartbeatAck> HeartbeatAck::decode(Decoder& dec) {
  HeartbeatAck ack;
  ack.seq = dec.get_varint();
  if (!dec.ok()) return Status::invalid_argument("HeartbeatAck: truncated");
  return ack;
}

std::size_t HeartbeatAck::wire_size() const {
  return Encoder::varint_size(seq);
}

void BudgetLease::encode(Encoder& enc) const {
  enc.put_varint(cycle_id);
  enc.put_double(data_budget);
  enc.put_double(meta_budget);
  enc.put_u64(valid_until_ns);
}

Result<BudgetLease> BudgetLease::decode(Decoder& dec) {
  BudgetLease lease;
  lease.cycle_id = dec.get_varint();
  lease.data_budget = dec.get_double();
  lease.meta_budget = dec.get_double();
  lease.valid_until_ns = dec.get_u64();
  if (!dec.ok()) return Status::invalid_argument("BudgetLease: truncated");
  if (!finite(lease.data_budget, lease.meta_budget)) {
    return Status::invalid_argument("BudgetLease: non-finite budget");
  }
  return lease;
}

std::size_t BudgetLease::wire_size() const {
  return Encoder::varint_size(cycle_id) + 8 + 8 + 8;
}

void ErrorMessage::encode(Encoder& enc) const {
  enc.put_u32(code);
  enc.put_string(detail);
}

Result<ErrorMessage> ErrorMessage::decode(Decoder& dec) {
  ErrorMessage err;
  err.code = dec.get_u32();
  err.detail = dec.get_string();
  if (!dec.ok()) return Status::invalid_argument("ErrorMessage: truncated");
  return err;
}

std::size_t ErrorMessage::wire_size() const {
  return 4 + Encoder::varint_size(detail.size()) + detail.size();
}

}  // namespace sds::proto
