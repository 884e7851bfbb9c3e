// Decision tap — the serving path's telemetry seam.
//
// A tap observes every decision the scheduler answers, *after* it is
// computed and immediately before it is returned/fulfilled. The serving
// layer stays ignorant of what listens (the adaptation subsystem's
// telemetry ring implements this interface one layer up), and an
// uninstalled tap costs one branch on the fast path.
//
// Contract for implementations:
//   * on_decision runs on the serving thread (front-end caller for DT,
//     scheduler worker for micro-batched MBRL). It must be cheap and
//     non-blocking — the DT fast path budget is nanoseconds.
//   * The event's pointer members borrow storage owned by the scheduler;
//     they are valid only for the duration of the callback. Copy what you
//     keep.
//   * noexcept: a tap must never fail a decision that already succeeded.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "envlib/feature_schema.hpp"
#include "serve/request.hpp"

namespace verihvac::serve {

struct DecisionEvent {
  SessionId session = 0;
  /// The decision's RNG-stream coordinates, fixed at admission
  /// (DecisionTicket): Rng::stream(session_seed, decision_index) replays
  /// an MBRL decision's entire stochastic footprint.
  std::uint64_t decision_index = 0;
  std::uint64_t session_seed = 0;
  RequestKind kind = RequestKind::kDtPolicy;
  /// Borrowed; valid only inside the callback.
  const std::string* policy_key = nullptr;
  /// DT: the bundle's registry version. MBRL: the serving model's
  /// scheduler generation (install_model return value). Either way it
  /// pins which hot-swappable artifact decided, so traces replay across
  /// swaps.
  std::uint64_t policy_version = 0;
  std::size_t action_index = 0;
  sim::SetpointPair action;
  /// Borrowed; valid only inside the callback.
  const env::Observation* observation = nullptr;
  /// Observation schema of the deciding artifact (DT: the bundle's schema;
  /// MBRL: the serving model's). Borrowed from the artifact the event's
  /// policy_version pins, so it outlives the callback only as long as that
  /// artifact does — listeners that keep it should copy by value or record
  /// the flattened vector instead. Null only if a custom scheduler forgot
  /// to fill it; the stock paths always do.
  const env::FeatureSchema* schema = nullptr;
  /// Borrowed; null/empty for DT decisions (the fast path carries none).
  const std::vector<env::Disturbance>* forecast = nullptr;
  /// Serving latency; meaningful only when `timed` is set. MBRL decisions
  /// carry their batch's solve time.
  double latency_seconds = 0.0;
  /// Whether latency_seconds was actually measured. MBRL decisions are
  /// always timed (two clock reads are noise next to the batch solve). DT
  /// decisions are timed on a 1-in-P sample
  /// (SchedulerConfig::dt_timing_sample_period; P = 1 times every one) so
  /// latency telemetry stays inside the fast path's single-digit-percent
  /// capture-overhead budget; untimed events carry latency_seconds == 0.
  bool timed = false;
};

class DecisionTap {
 public:
  virtual ~DecisionTap() = default;
  virtual void on_decision(const DecisionEvent& event) noexcept = 0;
};

}  // namespace verihvac::serve
