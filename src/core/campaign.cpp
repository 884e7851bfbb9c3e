#include "core/campaign.hpp"

#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "common/table.hpp"
#include "core/pipeline.hpp"
#include "envlib/observation.hpp"
#include "weather/climate.hpp"
#include "weather/weather_generator.hpp"

namespace verihvac::core {
namespace {

/// Scenario-local seed: a pure function of (root seed, grid index), so a
/// scenario's draws never depend on how many scenarios precede it being
/// re-run or skipped by a caching provider.
std::uint64_t scenario_seed(std::uint64_t root, std::size_t index) {
  Rng rng = Rng::stream(root, static_cast<std::uint64_t>(index));
  return rng();
}

/// Disturbance forecast for the scenario's tubes: the climate's synthesized
/// weather from 8am of day 0 (occupied hours — the tubes start from safe
/// occupied states, so the continuation should stay in the workday).
std::vector<env::Disturbance> scenario_disturbances(const std::string& climate,
                                                    std::uint64_t seed, std::size_t horizon) {
  weather::WeatherGenerator generator(weather::profile_by_name(climate), seed);
  const std::size_t start = 8 * 4;  // 8:00 in 15-minute steps
  const weather::WeatherSeries series = generator.generate(0, start + horizon);
  std::vector<env::Disturbance> out;
  out.reserve(horizon);
  for (std::size_t k = 0; k < horizon; ++k) {
    env::Disturbance d;
    d.weather = series.at(start + k);
    d.occupants = 11.0;  // paper's occupied-zone headcount
    std::tie(d.hour_sin, d.hour_cos) = env::time_of_day_encoding(start + k);
    d.occupants_ahead = 11.0;  // the workday continues past the tube horizon
    out.push_back(d);
  }
  return out;
}

}  // namespace

Box mild_envelope(const env::FeatureSchema& schema) {
  using env::FeatureRole;
  Box box = schema.envelope();
  box[schema.index_of(FeatureRole::kOutdoorTemp)] = Interval::bounded(-5.0, 12.0);
  box[schema.index_of(FeatureRole::kHumidity)] = Interval::bounded(30.0, 85.0);
  box[schema.index_of(FeatureRole::kWind)] = Interval::bounded(0.0, 8.0);
  box[schema.index_of(FeatureRole::kSolar)] = Interval::bounded(0.0, 400.0);
  box[schema.index_of(FeatureRole::kOccupancy)] = Interval::bounded(0.0, 15.0);
  return box;
}

std::string CampaignScenario::key() const {
  return climate + "/" + building.name + "/" + comfort.name + "/" + envelope.name;
}

std::vector<CampaignScenario> enumerate_scenarios(const CampaignConfig& config) {
  if (config.climates.empty() || config.buildings.empty() || config.comfort_bands.empty() ||
      config.envelopes.empty()) {
    throw std::invalid_argument("campaign: every grid axis needs at least one entry");
  }
  for (const CampaignEnvelope& envelope : config.envelopes) {
    if (envelope.bounds.size() != config.schema.dims()) {
      throw std::invalid_argument("campaign: envelope '" + envelope.name + "' has " +
                                  std::to_string(envelope.bounds.size()) + " dims, schema '" +
                                  config.schema.name() + "' has " +
                                  std::to_string(config.schema.dims()));
    }
  }
  std::vector<CampaignScenario> scenarios;
  std::size_t index = 0;
  for (const std::string& climate : config.climates) {
    for (const CampaignBuilding& building : config.buildings) {
      for (const CampaignComfortBand& comfort : config.comfort_bands) {
        for (const CampaignEnvelope& envelope : config.envelopes) {
          CampaignScenario s;
          s.index = index++;
          s.climate = climate;
          s.building = building;
          s.comfort = comfort;
          s.envelope = envelope;
          scenarios.push_back(std::move(s));
        }
      }
    }
  }
  return scenarios;
}

CampaignResult run_campaign(const CampaignConfig& config, const VerificationEngine& engine,
                            const AssetProvider& assets) {
  CampaignResult result;
  for (const CampaignScenario& scenario : enumerate_scenarios(config)) {
    const ScenarioAssets asset = assets(scenario);
    if (!asset.policy || !asset.model || !asset.sampler) {
      throw std::invalid_argument("campaign: asset provider returned incomplete assets for " +
                                  scenario.key());
    }
    VerificationCriteria criteria;
    criteria.comfort = scenario.comfort.range;

    CampaignRow row;
    row.scenario = scenario;
    const std::uint64_t seed = scenario_seed(config.seed, scenario.index);

    row.probabilistic =
        engine.verify_probabilistic(*asset.policy, *asset.model, *asset.sampler, criteria,
                                    config.probabilistic_samples, seed);
    row.interval = engine.verify_interval(*asset.policy, *asset.model, criteria,
                                          scenario.envelope.bounds, config.interval);

    // Tube fan-out: starts drawn serially (one RNG, fixed order), rolled in
    // parallel, classified serially.
    if (config.reach_states > 0 && config.reach_horizon > 0) {
      // Distinct root from the Monte-Carlo streams (which use (seed, i) for
      // i < probabilistic_samples) so the two draws never alias.
      Rng start_rng = Rng::stream(seed ^ 0x7EAC4B1F5EEDull, 0);
      std::vector<std::vector<double>> starts;
      starts.reserve(config.reach_states);
      for (std::size_t i = 0; i < config.reach_states; ++i) {
        starts.push_back(
            sample_safe_occupied(*asset.sampler, criteria.comfort, start_rng).first);
      }
      const auto disturbances =
          scenario_disturbances(scenario.climate, seed, config.reach_horizon);
      auto tubes = engine.reach_tubes(*asset.policy, *asset.model, starts, disturbances,
                                      config.reach_horizon);
      row.tubes = tubes.size();
      for (ReachabilityResult& tube : tubes) {
        check_within(tube, criteria.comfort.lo, criteria.comfort.hi);
        if (tube.within) ++row.tubes_within;
      }
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

std::string CampaignResult::to_table() const {
  AsciiTable table("Certification campaign (" + std::to_string(rows.size()) + " scenarios)");
  table.set_header({"scenario", "leaves", "certified", "cert_frac", "safe_prob", "viol_rate",
                    "tubes_ok"});
  for (const CampaignRow& row : rows) {
    table.add_row(row.scenario.key(),
                  {static_cast<double>(row.interval.leaves_subject),
                   static_cast<double>(row.interval.leaves_certified),
                   row.interval.certified_fraction(), row.probabilistic.safe_probability,
                   row.violation_rate(), row.tube_within_fraction()},
                  3);
  }
  return table.render();
}

std::string CampaignResult::to_csv() const {
  std::ostringstream out;
  out << "scenario,leaves_subject,leaves_certified,certified_fraction,safe_probability,"
         "violation_rate,tube_within_fraction\n";
  for (const CampaignRow& row : rows) {
    out << row.scenario.key() << "," << row.interval.leaves_subject << ","
        << row.interval.leaves_certified << ","
        << format_double(row.interval.certified_fraction(), 4) << ","
        << format_double(row.probabilistic.safe_probability, 4) << ","
        << format_double(row.violation_rate(), 4) << ","
        << format_double(row.tube_within_fraction(), 4) << "\n";
  }
  return out.str();
}

AssetProvider pipeline_asset_provider(const CampaignConfig& config) {
  // The cache is keyed per (climate × building): comfort bands and
  // disturbance envelopes change only the verification query, so the
  // expensive extraction runs once per plant.
  auto cache = std::make_shared<std::map<std::string, ScenarioAssets>>();
  const std::size_t decision_points = config.decision_points;
  const env::FeatureSchema schema = config.schema;
  return [cache, decision_points, schema](const CampaignScenario& scenario) -> ScenarioAssets {
    // The HVAC scale is part of the key: two presets sharing a name but
    // sized differently are different plants and must not share artifacts.
    const std::string key = scenario.climate + "/" + scenario.building.name + ":" +
                            std::to_string(scenario.building.hvac_scale);
    const auto it = cache->find(key);
    if (it != cache->end()) return it->second;

    PipelineConfig cfg = PipelineConfig::for_city(scenario.climate);
    cfg.set_schema(schema);
    cfg.env.hvac_capacity_scale = scenario.building.hvac_scale;
    if (decision_points > 0) cfg.decision_points = decision_points;
    const PipelineArtifacts artifacts = run_pipeline(cfg);

    ScenarioAssets assets;
    assets.policy = artifacts.policy;
    assets.model = artifacts.model;
    assets.sampler = std::make_shared<AugmentedSampler>(
        artifacts.historical.policy_inputs(), cfg.decision.noise_level, cfg.decision.schema);
    (*cache)[key] = assets;
    return assets;
  };
}

}  // namespace verihvac::core
