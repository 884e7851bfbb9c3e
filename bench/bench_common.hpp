// Shared bench harness utilities.
//
// Every bench binary reproduces one table or figure of the paper and is
// expected to run standalone on a single CPU core in seconds at the quick
// (default) scale, or with the paper's exact hyperparameters under
// VERI_HVAC_FULL=1. This header centralizes workload scaling, artifact
// construction and output formatting so the per-bench sources read like
// the experiment protocol they implement.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "common/timing.hpp"
#include "control/evaluate.hpp"
#include "core/pipeline.hpp"

namespace verihvac::bench {

// Timing helpers come from common/timing.hpp; re-exported here so bench
// sources keep addressing them as bench::seconds_since.
using verihvac::seconds_since;

/// Pipeline config for `city` scaled by the VERI_HVAC_* environment knobs,
/// plus bench-specific day-count override (VERI_HVAC_DAYS; the paper runs
/// January 1-31).
core::PipelineConfig bench_config(const std::string& city);

/// Prints the standard banner: bench name, paper artifact, scale knobs.
void print_banner(const std::string& bench, const std::string& artifact);

/// Runs one full January episode of `controller` in a fresh environment
/// built from `config`, returning the paper's metrics.
env::EpisodeMetrics run_full_episode(const env::EnvConfig& config,
                                     control::Controller& controller,
                                     control::EpisodeTrace* trace = nullptr);

/// Canonical location for a bench artifact: VERI_HVAC_OUT (default
/// "bench_out") joined with `filename`, parent directory created. EVERY
/// bench artifact — BENCH_*.json, CSVs, Chrome traces — resolves its path
/// through this one helper, so the whole output set lands in one
/// directory and CI uploads it with the single glob bench_out/BENCH_*.json.
std::string artifact_path(const std::string& filename);

/// Writes a CSV artifact to artifact_path(filename) and returns the path;
/// header is written first, then one line per row.
std::string write_csv(const std::string& filename, const std::string& header,
                      const std::vector<std::vector<double>>& rows);

/// Mean of a vector (empty -> 0), shared by the per-hour aggregations.
double mean_of(const std::vector<double>& xs);
/// Population standard deviation (empty -> 0).
double std_of(const std::vector<double>& xs);

// ---------------------------------------------------------------------------
// Trial aggregation.

/// Runs `timed_run` `trials` times and returns the *minimum* wall seconds:
/// scheduler noise only ever slows a trial down, so the best trial is the
/// stable throughput estimate.
double best_of_trials(std::size_t trials, const std::function<void()>& timed_run);

// ---------------------------------------------------------------------------
// Shared toy serving assets. The serving-layer benches measure machinery
// (scheduler, telemetry, adaptation plumbing), not model quality: they need
// artifacts with the paper's shapes and deterministic seeds, built in
// milliseconds rather than via the full pipeline.

/// Single-zone synthetic plant with HVAC pull toward the setpoints.
double toy_plant(const std::vector<double>& x, const sim::SetpointPair& a);

/// Paper-shaped dynamics model ({8, 32, 32, 1}) trained on toy_plant.
std::shared_ptr<const dyn::DynamicsModel> toy_dynamics_model(std::size_t points = 2000,
                                                             std::size_t epochs = 15);

/// DT policy fitted on synthetic decision data over the default grid.
std::shared_ptr<const core::DtPolicy> toy_decision_policy(std::size_t points = 400);

// ---------------------------------------------------------------------------
// BENCH_*.json emission: a minimal append-only JSON object writer so every
// bench produces the same artifact shape without hand-rolled streams.

class JsonObject {
 public:
  JsonObject& field(const std::string& name, double value);
  JsonObject& field(const std::string& name, std::size_t value);
  JsonObject& field(const std::string& name, const std::string& value);
  JsonObject& field_bool(const std::string& name, bool value);
  /// Pre-rendered JSON (nested objects / arrays), inserted verbatim.
  JsonObject& field_raw(const std::string& name, const std::string& json);
  /// Renders a "name": [obj, obj, ...] array field.
  JsonObject& field_array(const std::string& name, const std::vector<JsonObject>& rows);

  std::string str() const;  ///< "{...}"

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Writes `object` (plus trailing newline) to artifact_path(filename) and
/// returns the path.
std::string write_bench_json(const std::string& filename, const JsonObject& object);

}  // namespace verihvac::bench
