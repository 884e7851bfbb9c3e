#include "adapt/telemetry.hpp"

#include <algorithm>
#include <istream>
#include <stdexcept>

#include "common/fnv1a.hpp"

namespace verihvac::adapt {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// The seqlock protocol (see the header comment). Readers copy optimistically
// and validate with the slot's sequence; the payload copy itself is a plain
// memcpy of a trivially-copyable record, with fences pinning the compiler's
// ordering — the standard userspace-seqlock construction.

}  // namespace

std::vector<env::Disturbance> TelemetryRecord::forecast_vector() const {
  return {forecast, forecast + forecast_len};
}

TelemetryLog::TelemetryLog(TelemetryConfig config)
    : config_(config), records_(obs::counter("telemetry_records_total")) {
  if (config_.shards == 0) config_.shards = 1;
  config_.shards = round_up_pow2(config_.shards);
  shard_mask_ = config_.shards - 1;
  const std::size_t capacity = round_up_pow2(std::max<std::size_t>(2, config_.capacity_per_shard));
  slot_mask_ = capacity - 1;
  const std::size_t forecast_capacity =
      round_up_pow2(std::max<std::size_t>(2, config_.forecast_capacity_per_shard));
  forecast_mask_ = forecast_capacity - 1;
  dt_sample_mask_ = config_.dt_sample_period > 1
                        ? round_up_pow2(config_.dt_sample_period) - 1
                        : 0;
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->slots = std::vector<Slot>(capacity);
    shard->forecast_slots = std::vector<ForecastSlot>(forecast_capacity);
    shards_.push_back(std::move(shard));
  }
}

std::size_t TelemetryLog::capacity_per_shard() const { return slot_mask_ + 1; }

void TelemetryLog::register_session(serve::SessionId id, std::uint64_t seed,
                                    const std::string& policy_key) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  sessions_[id] = TelemetrySession{id, seed, policy_key};
}

std::size_t TelemetryLog::session_count() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  return sessions_.size();
}

std::vector<TelemetrySession> TelemetryLog::sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  std::vector<TelemetrySession> out;
  out.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) {
    (void)id;
    out.push_back(session);
  }
  return out;
}

void TelemetryLog::on_decision(const serve::DecisionEvent& event) noexcept {
  // Deterministic DT sampling: record runs of two decision indices per
  // period so transition pairing survives; MBRL always records.
  if (dt_sample_mask_ != 0 && event.kind == serve::RequestKind::kDtPolicy &&
      (event.decision_index & dt_sample_mask_) > 1) {
    sampling_skips_.add(1);
    return;
  }

  Shard& shard = *shards_[static_cast<std::size_t>(event.session) & shard_mask_];

  // Forecast first (MBRL only): its publication must be visible before
  // the compact record that references it.
  std::uint64_t forecast_ticket = 0;
  std::uint16_t forecast_len = 0;
  std::uint8_t forecast_truncated = 0;
  bool has_forecast = false;
  if (event.forecast != nullptr && !event.forecast->empty()) {
    const std::vector<env::Disturbance>& forecast = *event.forecast;
    const std::size_t n = std::min(forecast.size(), kTelemetryMaxForecast);
    forecast_len = static_cast<std::uint16_t>(n);
    forecast_truncated = forecast.size() > kTelemetryMaxForecast ? 1 : 0;
    has_forecast = true;
    forecast_ticket = shard.forecast_head.fetch_add(1, std::memory_order_relaxed);
    ForecastSlot& fslot = shard.forecast_slots[forecast_ticket & forecast_mask_];
    fslot.seq.store(2 * forecast_ticket + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    std::copy_n(forecast.begin(), n, fslot.entries);
    fslot.seq.store(2 * forecast_ticket + 2, std::memory_order_release);
  }

  const std::uint64_t ticket = shard.head.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = shard.slots[ticket & slot_mask_];

  // Mark writing (odd) before touching the payload so a lapped reader's
  // re-check can never validate a half-overwritten copy.
  slot.seq.store(2 * ticket + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);

  CompactRecord& r = slot.record;
  r.session = event.session;
  r.decision_index = event.decision_index;
  r.session_seed = event.session_seed;
  r.policy_version = event.policy_version;
  r.kind = static_cast<std::uint8_t>(event.kind);
  r.action_index = static_cast<std::uint32_t>(event.action_index);
  r.latency_seconds = event.latency_seconds;
  // Records carry the deciding artifact's schema layout; trace pairing and
  // replay read zone temperature by the persisted role index, not by
  // trusting column 0. An emitter that passes no schema gets the baseline
  // layout.
  const env::FeatureSchema& schema =
      event.schema != nullptr ? *event.schema : env::baseline_schema();
  r.obs_len = static_cast<std::uint16_t>(schema.dims());
  r.zone_temp_dim = static_cast<std::uint16_t>(schema.zone_temp_index());
  schema.write_observation(*event.observation, r.obs);
  r.heating_c = event.action.heating_c;
  r.cooling_c = event.action.cooling_c;
  r.forecast_len = forecast_len;
  r.forecast_truncated = forecast_truncated;
  r.forecast_ticket = has_forecast ? forecast_ticket + 1 : 0;  // 0 = none

  slot.seq.store(2 * ticket + 2, std::memory_order_release);
  records_.add(1);
}

std::uint64_t TelemetryLog::drain(std::vector<TelemetryRecord>& out) {
  std::uint64_t lost = 0;
  std::uint64_t overwritten = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    const std::uint64_t head = shard.head.load(std::memory_order_acquire);
    std::uint64_t t = shard.tail;
    // Anything more than one lap behind the claim counter is gone already.
    const std::uint64_t capacity = slot_mask_ + 1;
    if (head > capacity && t < head - capacity) {
      overwritten += (head - capacity) - t;
      lost += (head - capacity) - t;
      t = head - capacity;
    }
    for (; t < head; ++t) {
      Slot& slot = shard.slots[t & slot_mask_];
      const std::uint64_t published = 2 * t + 2;
      const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 < published) {
        // The claiming producer has not published yet (claim/publish is a
        // two-step dance): stop here and pick the rest up next drain.
        break;
      }
      if (s1 == published) {
        const CompactRecord copy = slot.record;
        std::atomic_thread_fence(std::memory_order_acquire);
        if (slot.seq.load(std::memory_order_relaxed) == published &&
            copy.forecast_len <= kTelemetryMaxForecast && copy.kind <= 1 &&
            copy.obs_len >= 1 && copy.obs_len <= kTelemetryMaxObsDims &&
            copy.zone_temp_dim < copy.obs_len) {
          // The field sanity checks guard the pathological writer-writer
          // lap race (a producer stalled mid-write for a whole ring lap):
          // a torn record must never drive the forecast memcpy below past
          // its array (nor hand downstream readers an out-of-range obs
          // length/zone column), so implausible values count as lost.
          TelemetryRecord record;
          record.session = copy.session;
          record.decision_index = copy.decision_index;
          record.session_seed = copy.session_seed;
          record.policy_version = copy.policy_version;
          record.kind = copy.kind;
          record.forecast_truncated = copy.forecast_truncated;
          record.forecast_len = copy.forecast_len;
          record.action_index = copy.action_index;
          record.latency_seconds = copy.latency_seconds;
          record.obs_len = copy.obs_len;
          record.zone_temp_dim = copy.zone_temp_dim;
          std::memcpy(record.obs, copy.obs, sizeof(record.obs));
          record.heating_c = copy.heating_c;
          record.cooling_c = copy.cooling_c;
          if (copy.forecast_ticket != 0) {
            // Side ring lookup; a lapped forecast makes the whole record
            // unreplayable, so it counts as lost rather than emitted
            // half-empty.
            const std::uint64_t fticket = copy.forecast_ticket - 1;
            ForecastSlot& fslot = shard.forecast_slots[fticket & forecast_mask_];
            const std::uint64_t fpublished = 2 * fticket + 2;
            const std::uint64_t f1 = fslot.seq.load(std::memory_order_acquire);
            bool forecast_ok = false;
            if (f1 == fpublished) {
              std::memcpy(record.forecast, fslot.entries,
                          sizeof(env::Disturbance) * copy.forecast_len);
              std::atomic_thread_fence(std::memory_order_acquire);
              forecast_ok = fslot.seq.load(std::memory_order_relaxed) == fpublished;
            }
            if (!forecast_ok) {
              ++lost;
              continue;
            }
          }
          out.push_back(record);
          continue;
        }
      }
      ++lost;  // lapped (or torn by a lapping writer) before we got to it
    }
    shard.tail = t;
  }
  if (lost > 0) lost_.add(lost);
  if (overwritten > 0) overwritten_.add(overwritten);
  return lost;
}

TelemetryLog::Stats TelemetryLog::stats() const {
  Stats stats;
  for (const auto& shard : shards_) {
    stats.recorded += shard->head.load(std::memory_order_relaxed);
  }
  stats.lost = lost_.value();
  stats.overwritten = overwritten_.value();
  stats.sampling_skips = sampling_skips_.value();
  return stats;
}

// ---------------------------------------------------------------------------
// Record wire layout (the body of a segment frame). Fields are written in
// declaration order with fixed widths (native little-endian); records
// store only the used observation and forecast prefixes, so DT-heavy
// segments stay compact.

namespace {

template <typename T>
void put_pod(std::string& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("telemetry record: truncated body");
  return value;
}

}  // namespace

namespace detail {

void append_record(std::string& out, const TelemetryRecord& r) {
  put_pod<std::uint64_t>(out, r.session);
  put_pod<std::uint64_t>(out, r.decision_index);
  put_pod<std::uint64_t>(out, r.session_seed);
  put_pod<std::uint64_t>(out, r.policy_version);
  put_pod<std::uint8_t>(out, r.kind);
  put_pod<std::uint8_t>(out, r.forecast_truncated);
  put_pod<std::uint16_t>(out, r.forecast_len);
  put_pod<std::uint32_t>(out, r.action_index);
  put_pod<std::uint16_t>(out, r.obs_len);
  put_pod<std::uint16_t>(out, r.zone_temp_dim);
  put_pod<double>(out, r.latency_seconds);
  for (std::size_t i = 0; i < r.obs_len; ++i) put_pod<double>(out, r.obs[i]);
  put_pod<double>(out, r.heating_c);
  put_pod<double>(out, r.cooling_c);
  for (std::size_t k = 0; k < r.forecast_len; ++k) {
    put_pod<env::Disturbance>(out, r.forecast[k]);
  }
}

void append_session(std::string& out, const TelemetrySession& session) {
  put_pod<std::uint64_t>(out, session.id);
  put_pod<std::uint64_t>(out, session.seed);
  put_pod<std::uint64_t>(out, session.policy_key.size());
  out.append(session.policy_key);
}

TelemetryRecord read_record(std::istream& in) {
  TelemetryRecord r;
  r.session = read_pod<std::uint64_t>(in);
  r.decision_index = read_pod<std::uint64_t>(in);
  r.session_seed = read_pod<std::uint64_t>(in);
  r.policy_version = read_pod<std::uint64_t>(in);
  r.kind = read_pod<std::uint8_t>(in);
  r.forecast_truncated = read_pod<std::uint8_t>(in);
  r.forecast_len = read_pod<std::uint16_t>(in);
  r.action_index = read_pod<std::uint32_t>(in);
  r.obs_len = read_pod<std::uint16_t>(in);
  r.zone_temp_dim = read_pod<std::uint16_t>(in);
  if (r.obs_len < 1 || r.obs_len > kTelemetryMaxObsDims || r.zone_temp_dim >= r.obs_len) {
    throw std::runtime_error("telemetry record: observation length exceeds format cap");
  }
  r.latency_seconds = read_pod<double>(in);
  for (std::size_t d = 0; d < r.obs_len; ++d) r.obs[d] = read_pod<double>(in);
  r.heating_c = read_pod<double>(in);
  r.cooling_c = read_pod<double>(in);
  if (r.forecast_len > kTelemetryMaxForecast) {
    throw std::runtime_error("telemetry record: forecast length exceeds format cap");
  }
  for (std::size_t k = 0; k < r.forecast_len; ++k) {
    r.forecast[k] = read_pod<env::Disturbance>(in);
  }
  return r;
}

TelemetrySession read_session(std::istream& in) {
  TelemetrySession session;
  session.id = read_pod<std::uint64_t>(in);
  session.seed = read_pod<std::uint64_t>(in);
  const auto key_len = read_pod<std::uint64_t>(in);
  if (key_len > (1u << 20)) {
    throw std::runtime_error("telemetry session: implausible key length");
  }
  session.policy_key.resize(key_len);
  in.read(session.policy_key.data(), static_cast<std::streamsize>(key_len));
  if (!in) throw std::runtime_error("telemetry session: truncated body");
  return session;
}

}  // namespace detail

bool consecutive(const TelemetryRecord& prev, const TelemetryRecord& next) {
  return prev.session == next.session && next.decision_index == prev.decision_index + 1;
}

std::optional<dyn::Transition> pair_transition(const TelemetryRecord& prev,
                                               const TelemetryRecord& next) {
  if (!consecutive(prev, next)) return std::nullopt;  // capture gap: no fabricated transition
  dyn::Transition transition;
  transition.input = prev.obs_vector();
  transition.action.heating_c = prev.heating_c;
  transition.action.cooling_c = prev.cooling_c;
  transition.next_zone_temp = next.obs[next.zone_temp_dim];
  if (!dyn::is_finite(transition)) return std::nullopt;
  return transition;
}

dyn::TransitionDataset trace_to_dataset(const TelemetryTrace& trace) {
  std::vector<const TelemetryRecord*> ordered;
  ordered.reserve(trace.records.size());
  for (const TelemetryRecord& r : trace.records) ordered.push_back(&r);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const TelemetryRecord* a, const TelemetryRecord* b) {
                     if (a->session != b->session) return a->session < b->session;
                     return a->decision_index < b->decision_index;
                   });

  dyn::TransitionDataset dataset;
  // A fleet trace can mix schemas (heterogeneous registry keys); a
  // TransitionDataset holds one input width, so pair within the first
  // schema shape seen and leave foreign-shaped records for a separate
  // extraction pass.
  std::uint16_t width = 0;
  for (std::size_t i = 0; i + 1 < ordered.size(); ++i) {
    const TelemetryRecord& cur = *ordered[i];
    const TelemetryRecord& next = *ordered[i + 1];
    std::optional<dyn::Transition> transition = pair_transition(cur, next);
    if (!transition) continue;
    if (width == 0) width = cur.obs_len;
    if (cur.obs_len != width || next.obs_len != width) continue;
    dataset.add(std::move(*transition));
  }
  return dataset;
}

std::uint64_t replay_fingerprint_update(std::uint64_t h, const TelemetryRecord& record,
                                        std::uint64_t action_index) {
  return common::Fnv1a(h).u64(record.session).u64(record.decision_index).u64(action_index).digest();
}

ReplayReport replay_trace(const TelemetryTrace& trace, const ReplayAssets& assets,
                          const ReplayConfig& config) {
  const control::ActionSpace actions(config.action_space);
  control::RandomShooting rs(config.rs, actions, config.reward);
  if (config.engine != nullptr) rs.set_engine(config.engine);

  ReplayReport report;
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    const TelemetryRecord& r = trace.records[i];
    // A skipped record folds what was served, so the fingerprint still
    // covers every record.
    const auto skip = [&](std::size_t& counter) {
      ++counter;
      report.fingerprint = replay_fingerprint_update(report.fingerprint, r, r.action_index);
    };
    std::size_t action = 0;
    if (r.request_kind() == serve::RequestKind::kDtPolicy) {
      const auto it = assets.policies.find(r.policy_version);
      if (it == assets.policies.end() || it->second->schema().dims() != r.obs_len) {
        skip(report.skipped_missing_assets);
        continue;
      }
      action = it->second->decide_index(r.obs_vector());
    } else {
      if (r.forecast_truncated != 0) {
        skip(report.skipped_truncated);
        continue;
      }
      const auto it = assets.models.find(r.policy_version);
      if (it == assets.models.end() || it->second->schema().dims() != r.obs_len) {
        // Missing model, or a model whose schema shape no longer matches
        // the record — either way the decision cannot be reconstructed.
        skip(report.skipped_missing_assets);
        continue;
      }
      // Rebuild the observation through the deciding model's schema — a
      // time-aware record's temporal columns land back in the temporal
      // fields instead of being misread as weather.
      const env::Observation obs = it->second->schema().to_observation(r.obs_vector());
      // The decision's entire stochastic footprint, reconstructed from the
      // record's stream coordinates — the same derivation the scheduler
      // used at admission.
      Rng rng = Rng::stream(r.session_seed, r.decision_index);
      action = rs.optimize(*it->second, obs, r.forecast_vector(), rng);
    }
    ++report.replayed;
    if (action == r.action_index) {
      ++report.matched;
    } else if (report.mismatches.size() < 16) {
      report.mismatches.push_back({i, static_cast<std::size_t>(r.action_index), action});
    }
    report.fingerprint =
        replay_fingerprint_update(report.fingerprint, r, static_cast<std::uint64_t>(action));
  }
  return report;
}

}  // namespace verihvac::adapt
