// Ablation — persistent (constant) candidate sequences in Random Shooting.
//
// Argmax over the summed return of fully random candidate sequences exerts
// almost no selection pressure on the first action — the one actually
// executed. That weakness is visible twice in the paper: as the Fig. 1
// stochasticity of the MBRL agent, and (in our reproduction) as noisy
// decision labels wherever the reward depends only on the action (the
// unoccupied, energy-only regime). Mixing a fraction of *constant*
// candidate sequences restores first-action pressure in exactly those
// regimes. This ablation sweeps the fraction and reports (a) the quality
// of the decision labels at night (how often the label is a deep-setback
// action) and (b) the deployed DT's building-control performance.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/config.hpp"
#include "core/decision_data.hpp"
#include "weather/occupancy.hpp"

int main() {
  using namespace verihvac;
  bench::print_banner("ablation_persistence", "DESIGN.md §5 (RS persistent candidates)");

  core::PipelineConfig cfg = bench::bench_config("Pittsburgh");
  const core::PipelineArtifacts base = core::run_pipeline(cfg);

  AsciiTable table("RS persistent-candidate ablation (Pittsburgh, January)");
  table.set_header({"persistent fraction", "night labels <= 17 degC [%]",
                    "energy [kWh]", "violation rate", "efficiency score"});
  std::vector<std::vector<double>> csv_rows;
  for (double fraction : {0.0, 0.1, 0.25, 0.5}) {
    core::PipelineConfig variant = cfg;
    variant.rs.persistent_fraction = fraction;

    auto agent = std::make_unique<control::MbrlAgent>(
        *base.model, variant.rs, control::ActionSpace(variant.action_space),
        variant.env.reward, variant.agent_seed);
    core::DecisionDataGenerator generator(base.historical, variant.decision);
    const core::DecisionDataset decisions =
        generator.generate(*agent, variant.decision_points);

    // Label quality: among unoccupied (night/weekend) decision inputs, how
    // often is the label a deep setback (heating setpoint <= 17 degC)?
    const control::ActionSpace actions(variant.action_space);
    std::size_t night = 0;
    std::size_t night_setback = 0;
    const std::size_t occupancy = variant.decision.schema.occupancy_index();
    for (const auto& record : decisions.records) {
      if (weather::is_occupied(record.input[occupancy])) continue;
      ++night;
      if (actions.action(record.action_index).heating_c <= 17.0) ++night_setback;
    }
    const double setback_pct =
        night ? 100.0 * static_cast<double>(night_setback) / static_cast<double>(night)
              : 0.0;

    core::DtPolicy policy =
        core::DtPolicy::fit(decisions, control::ActionSpace(variant.action_space));
    core::verify_formal(policy, variant.criteria, /*correct=*/true);
    const auto metrics = bench::run_full_episode(cfg.env, policy);

    table.add_row(format_double(fraction, 2),
                  {setback_pct, metrics.total_energy_kwh(), metrics.violation_rate(),
                   metrics.energy_efficiency_score()},
                  3);
    csv_rows.push_back({fraction, setback_pct, metrics.total_energy_kwh(),
                        metrics.violation_rate(), metrics.energy_efficiency_score()});
  }
  table.print();

  std::printf("shape to check: the deep-setback share of unoccupied labels rises\n"
              "steeply with the persistent fraction (near-random at 0.0) and the\n"
              "deployed DT's energy drops accordingly; violations stay flat because\n"
              "occupied-hours behaviour is comfort-dominated either way.\n");
  const std::string path = bench::write_csv(
      "ablation_persistence.csv",
      "persistent_fraction,night_setback_pct,energy_kwh,violation_rate,efficiency_score",
      csv_rows);
  std::printf("series written to %s\n", path.c_str());
  return 0;
}
