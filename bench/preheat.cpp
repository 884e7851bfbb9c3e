// Morning pre-heat recovery — the time-aware schema's first client.
//
// Protocol: undersize the January plant (hvac_capacity_scale < 1) so the
// zone cannot recover from the overnight setback within one step of the
// 8:00 arrival. A memoryless baseline-schema policy sees identical
// observations at 3:00 and 7:00 (same weather, zero occupants) and so
// cannot pre-heat; the time-aware schema adds hour-of-day (sin/cos) and a
// one-hour occupancy forecast, letting the distilled tree split on
// "occupants arriving soon" and start heating before the ramp. Both
// policies come from the same pipeline recipe on the same seeds — the
// schema is the only difference.
//
// Gates (exit 1 on failure, so CI catches a regression):
//   * the time-aware policy logs strictly fewer morning-ramp violations
//     (occupied violations within the first two hours after each arrival);
//   * a certification campaign over the widened 9-dim boxes completes and
//     produces a report row per cell.
// Emits BENCH_preheat.json next to the other bench artifacts.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/campaign.hpp"
#include "core/viper.hpp"
#include "envlib/feature_schema.hpp"

namespace {

using namespace verihvac;

/// Occupied comfort violations inside the first two hours (8 steps) after each
/// unoccupied -> occupied transition, plus the totals around it.
struct RampCount {
  std::size_t arrivals = 0;
  std::size_t morning_violations = 0;
  std::size_t occupied_violations = 0;
  double energy_kwh = 0.0;
};

RampCount count_morning_ramp(const env::EnvConfig& config, core::DtPolicy policy) {
  constexpr std::size_t kRampSteps = 8;  // two hours at 15-minute steps
  env::BuildingEnv building(config);
  env::Observation obs = building.reset();
  RampCount count;
  bool prev_occupied = false;
  std::size_t ramp_remaining = 0;
  while (true) {
    const env::StepOutcome outcome = building.step(policy.act(obs, {}));
    count.energy_kwh += outcome.energy_kwh;
    if (outcome.occupied && !prev_occupied) {
      ++count.arrivals;
      ramp_remaining = kRampSteps;
    }
    if (outcome.occupied && outcome.comfort_violation) {
      ++count.occupied_violations;
      if (ramp_remaining > 0) ++count.morning_violations;
    }
    if (ramp_remaining > 0) --ramp_remaining;
    prev_occupied = outcome.occupied;
    if (outcome.done) break;
    obs = outcome.observation;
  }
  return count;
}

RampCount extract_and_count(const std::string& city, const env::FeatureSchema& schema,
                            double hvac_scale) {
  core::PipelineConfig cfg = bench::bench_config(city);
  cfg.set_schema(schema);
  cfg.env.hvac_capacity_scale = hvac_scale;
  const core::PipelineArtifacts artifacts = core::run_pipeline(cfg);
  // On-policy (VIPER) distillation: the DAgger rollouts walk through the
  // 7:00 pre-arrival window every simulated weekday, so the teacher's
  // pre-heat decisions land in the aggregated dataset at trajectory
  // frequency — random state sampling visits that sliver of the input
  // space far too rarely for the tree to carve it out.
  auto teacher = artifacts.make_mbrl_agent();
  env::BuildingEnv viper_env(cfg.env);
  core::ViperConfig viper;
  viper.iterations = 3;
  viper.steps_per_iteration = 5 * 96;  // one work week per iteration
  viper.mc_repeats = 1;
  viper.seed = 23;
  const core::ViperResult distilled = core::viper_extract(*teacher, viper_env, viper);
  if (distilled.policy == nullptr) {
    std::fprintf(stderr, "preheat: VIPER produced no policy\n");
    std::exit(1);
  }
  return count_morning_ramp(cfg.env, *distilled.policy);
}

}  // namespace

int main() {
  bench::print_banner("preheat", "time-aware schema: morning pre-heat recovery");

  const std::string city = "Pittsburgh";
  // Undersized enough that cold-start recovery takes over an hour, so
  // pre-heating beats the reactive policy on comfort for a small energy
  // premium (at the January-sized plant the reactive recovery is 2 steps
  // and pre-heating never pays off — the contrast would vanish).
  const double hvac_scale = 0.45;

  std::printf("extracting baseline-schema policy (%s, hvac x%.2f)...\n", city.c_str(),
              hvac_scale);
  const RampCount baseline = extract_and_count(city, env::baseline_schema(), hvac_scale);
  std::printf("extracting time-aware-schema policy (same seeds)...\n");
  const RampCount time_aware = extract_and_count(city, env::time_aware_schema(), hvac_scale);

  AsciiTable table("morning-ramp comfort (first 2h after each weekday arrival)");
  table.set_header({"schema", "arrivals", "ramp violations", "occupied violations",
                    "energy [kWh]"});
  table.add_row("baseline",
                {static_cast<double>(baseline.arrivals),
                 static_cast<double>(baseline.morning_violations),
                 static_cast<double>(baseline.occupied_violations), baseline.energy_kwh},
                1);
  table.add_row("time-aware",
                {static_cast<double>(time_aware.arrivals),
                 static_cast<double>(time_aware.morning_violations),
                 static_cast<double>(time_aware.occupied_violations), time_aware.energy_kwh},
                1);
  table.print();

  const bool ramp_gate = time_aware.morning_violations < baseline.morning_violations;
  std::printf("gate: time-aware ramp violations %zu %s baseline %zu\n",
              time_aware.morning_violations, ramp_gate ? "<" : "NOT <",
              baseline.morning_violations);

  // Certification over the widened boxes: the full campaign machinery on
  // the 9-dim schema, shrunk to one cell. Completing at all exercises the
  // interval slicer / reachability over the temporal dimensions.
  std::printf("running time-aware certification campaign (1 cell)...\n");
  core::CampaignConfig campaign;
  campaign.schema = env::time_aware_schema();
  campaign.envelopes = {{"mild", core::mild_envelope(campaign.schema)}};
  campaign.climates = {city};
  campaign.buildings = {{"undersized", hvac_scale}};
  campaign.probabilistic_samples = 200;
  campaign.reach_states = 8;
  campaign.decision_points = 200;
  campaign.seed = 404;
  const core::VerificationEngine engine;
  const core::CampaignResult result =
      core::run_campaign(campaign, engine, core::pipeline_asset_provider(campaign));
  std::printf("%s", result.to_table().c_str());
  const bool campaign_gate = !result.rows.empty();

  bench::JsonObject json;
  json.field("hvac_capacity_scale", hvac_scale)
      .field("city", city)
      .field("arrivals", baseline.arrivals)
      .field("baseline_morning_violations", baseline.morning_violations)
      .field("time_aware_morning_violations", time_aware.morning_violations)
      .field("baseline_occupied_violations", baseline.occupied_violations)
      .field("time_aware_occupied_violations", time_aware.occupied_violations)
      .field("baseline_energy_kwh", baseline.energy_kwh)
      .field("time_aware_energy_kwh", time_aware.energy_kwh)
      .field("campaign_cells", result.rows.size())
      .field_bool("ramp_gate", ramp_gate)
      .field_bool("campaign_gate", campaign_gate);
  const std::string path = bench::write_bench_json("BENCH_preheat.json", json);
  std::printf("bench artifact written to %s\n", path.c_str());

  if (!ramp_gate || !campaign_gate) {
    std::fprintf(stderr, "preheat: gate failed (ramp=%d, campaign=%d)\n", ramp_gate,
                 campaign_gate);
    return 1;
  }
  return 0;
}
