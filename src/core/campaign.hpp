// Certification campaign — multi-scenario verification at service scale.
//
// The paper verifies one policy for one building in one city. The campaign
// layer turns that into a throughput workload: sweep climates (weather/
// profiles) × building presets (thermosim HVAC sizing) × comfort bands ×
// disturbance envelopes, run every verification workload of
// core::VerificationEngine per scenario — criterion #1 Monte-Carlo,
// per-(leaf × cell) interval certification, reachability tubes from
// sampled occupied starts under that climate's synthesized weather — and
// aggregate one certified-fraction / violation-rate row per scenario.
// This is the DALC-style decomposition of the related work: a monolithic
// verification pass split into independently checkable blocks.
//
// Scenarios run serially (each one's inner workloads already saturate the
// pool, and nested parallel_for on one pool deadlocks); everything inside
// a scenario fans out through the engine. The whole campaign is
// deterministic: per-scenario RNG streams derive from (config.seed,
// scenario index), so the rendered table is byte-identical for any
// VERI_HVAC_THREADS.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/interval_verify.hpp"
#include "core/verification_engine.hpp"

namespace verihvac::core {

/// A thermosim building preset: the paper's five-zone office with an HVAC
/// capacity multiplier (the reduced-order analogue of EnergyPlus
/// autosizing — see env::EnvConfig::hvac_capacity_scale).
struct CampaignBuilding {
  std::string name = "baseline";
  double hvac_scale = 1.0;
};

struct CampaignComfortBand {
  std::string name = "winter";
  env::ComfortRange range;  ///< default-constructed = winter band
};

/// A certificate envelope: a box over the campaign schema's inputs (one
/// interval per schema dimension; enumerate_scenarios checks the width).
struct CampaignEnvelope {
  std::string name;
  Box bounds;
};

/// `schema.envelope()` with the five classic disturbance roles narrowed to
/// typical January operating conditions rather than the design extremes —
/// certification is expected to be much higher here.
Box mild_envelope(const env::FeatureSchema& schema);

struct CampaignConfig {
  /// Observation schema used by the default pipeline asset provider (and
  /// by the scenario disturbance synthesizer); `envelopes` are boxes over it,
  /// so a caller that changes the schema restates them over the new one.
  env::FeatureSchema schema = env::baseline_schema();
  std::vector<std::string> climates{"Pittsburgh", "Tucson"};
  std::vector<CampaignBuilding> buildings{{"baseline", 1.0}, {"oversized", 2.0}};
  std::vector<CampaignComfortBand> comfort_bands{{"winter", {}}};
  std::vector<CampaignEnvelope> envelopes{{"mild", mild_envelope(schema)}};
  /// Monte-Carlo samples per scenario (criterion #1).
  std::size_t probabilistic_samples = 400;
  /// Interval-certification input-splitting budget.
  IntervalVerifyConfig interval;
  /// Reachability fan-out per scenario: tubes from `reach_states` sampled
  /// safe occupied starts, `reach_horizon` steps under the scenario
  /// climate's synthesized weather.
  std::size_t reach_states = 24;
  std::size_t reach_horizon = 12;
  /// Root seed; scenario i uses streams derived from (seed, i).
  std::uint64_t seed = 404;
  /// Decision points for the default pipeline asset provider (0 = keep the
  /// pipeline's own default).
  std::size_t decision_points = 0;
};

/// One cell of the scenario grid.
struct CampaignScenario {
  std::size_t index = 0;  ///< position in enumerate_scenarios order
  std::string climate;
  CampaignBuilding building;
  CampaignComfortBand comfort;
  CampaignEnvelope envelope;

  /// "climate/building/comfort/envelope" — the row label.
  std::string key() const;
};

/// The verified artifacts a scenario is certified against. The default
/// provider extracts them with the full pipeline; tests inject toy assets.
struct ScenarioAssets {
  std::shared_ptr<const DtPolicy> policy;
  std::shared_ptr<const dyn::DynamicsModel> model;
  std::shared_ptr<const AugmentedSampler> sampler;
};

/// Maps a scenario to its assets. Called serially, once per scenario, in
/// grid order; providers may cache internally (the default one caches per
/// climate × building, since comfort band and envelope only change the
/// verification query, not the extracted policy).
using AssetProvider = std::function<ScenarioAssets(const CampaignScenario&)>;

struct CampaignRow {
  CampaignScenario scenario;
  ProbabilisticReport probabilistic;
  IntervalReport interval;
  std::size_t tubes = 0;
  std::size_t tubes_within = 0;

  /// NaN when Monte-Carlo was skipped (same convention as the tubes).
  double violation_rate() const {
    return probabilistic.samples == 0 ? std::numeric_limits<double>::quiet_NaN()
                                      : static_cast<double>(probabilistic.failures) /
                                            static_cast<double>(probabilistic.samples);
  }
  /// NaN when no tubes were run: "reachability skipped" must not render
  /// as "every tube verified within the comfort band".
  double tube_within_fraction() const {
    return tubes == 0 ? std::numeric_limits<double>::quiet_NaN()
                      : static_cast<double>(tubes_within) / static_cast<double>(tubes);
  }
};

struct CampaignResult {
  std::vector<CampaignRow> rows;

  /// Aggregated per-scenario table (AsciiTable rendering). Deterministic:
  /// byte-identical across thread counts for a fixed config.
  std::string to_table() const;
  /// CSV with one line per scenario (same columns as the table).
  std::string to_csv() const;
};

/// The scenario grid in deterministic order (climate-major, then building,
/// comfort band, envelope). Throws std::invalid_argument on an empty axis or
/// an envelope whose width is not `config.schema.dims()` — before any asset
/// is built.
std::vector<CampaignScenario> enumerate_scenarios(const CampaignConfig& config);

/// Runs every scenario through the engine. `assets` is consulted once per
/// scenario (serially, in grid order).
CampaignResult run_campaign(const CampaignConfig& config, const VerificationEngine& engine,
                            const AssetProvider& assets);

/// Default asset provider: runs the extraction pipeline per (climate ×
/// building) — PipelineConfig::for_city with the preset's HVAC scale —
/// and caches the artifacts across comfort-band/envelope variations.
AssetProvider pipeline_asset_provider(const CampaignConfig& config);

}  // namespace verihvac::core
