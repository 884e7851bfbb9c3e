// Fleet-serving request/decision types.
//
// A control request is what a building's front end sends the service every
// 15-minute step: its session id, the fresh observation, and (for planning
// controllers) the disturbance forecast. Two traffic classes exist, mirroring
// the paper's deployment story: the verified DT policy bundle answers on a
// sub-microsecond fast path (the Table-3 1127x artifact), and the MBRL
// optimizer serves as the stochastic fallback for buildings whose bundle is
// not yet certified — the expensive class the scheduler micro-batches.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "envlib/observation.hpp"
#include "thermosim/hvac.hpp"

namespace verihvac::serve {

using SessionId = std::uint64_t;

enum class RequestKind {
  kDtPolicy,      ///< verified decision-tree bundle, served inline
  kMbrlFallback,  ///< random-shooting MBRL, coalesced into micro-batches
};

struct ControlRequest {
  SessionId session = 0;
  RequestKind kind = RequestKind::kDtPolicy;
  env::Observation observation;
  /// Disturbance forecast; must cover the optimizer horizon for MBRL
  /// requests (unused by the DT fast path).
  std::vector<env::Disturbance> forecast;
  /// Caller's MBRL latency budget; the scheduler does not read it.
  std::chrono::microseconds latency_budget{0};
};

struct ControlDecision {
  std::size_t action_index = 0;
  sim::SetpointPair action;
  RequestKind kind = RequestKind::kDtPolicy;
  /// Registry version of the bundle that decided (0 for MBRL fallback).
  std::uint64_t policy_version = 0;
};

}  // namespace verihvac::serve
