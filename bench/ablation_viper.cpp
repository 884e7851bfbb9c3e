// Ablation — one-shot extraction (§3.2, the paper) vs VIPER (Bastani [5]).
//
// The paper distills the RS teacher in one shot: importance-sample inputs
// from the historical distribution (Eq. 5), label each with the teacher's
// modal action, fit CART once. Its cited foundation VIPER instead iterates
// DAgger-style, labelling the states the *student* visits and resampling
// by action-value criticality. This bench gives both the same teacher,
// the same label budget and the same building, then compares:
//   * teacher-match rate (distillation fidelity),
//   * deployed January performance (energy, violation rate),
//   * verification outcome of the resulting trees (corrections needed).
// Shape to check: at matched budgets the two are close — Eq. 5 sampling
// already covers the deployment distribution (that is the paper's point),
// so the H environment steps VIPER spends per label buy little here.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "common/config.hpp"
#include "core/viper.hpp"

int main() {
  using namespace verihvac;
  bench::print_banner("ablation_viper", "DESIGN.md §5 (one-shot vs VIPER extraction)");

  core::PipelineConfig cfg = bench::bench_config("Pittsburgh");
  const core::PipelineArtifacts artifacts = core::run_pipeline(cfg);

  // --- VIPER with the same teacher and an equal label budget. ---
  core::ViperConfig viper_cfg;
  viper_cfg.iterations = static_cast<std::size_t>(env_or_long("VERI_HVAC_VIPER_ITERS", 4));
  viper_cfg.steps_per_iteration = cfg.decision_points / viper_cfg.iterations;
  viper_cfg.mc_repeats = cfg.decision.mc_repeats;
  viper_cfg.seed = cfg.verification_seed;

  auto teacher = artifacts.make_mbrl_agent();
  env::BuildingEnv rollout_env(cfg.env);
  const core::ViperResult viper = core::viper_extract(*teacher, rollout_env, viper_cfg);

  // --- Verify the VIPER tree with the same Algorithm 1 + criterion #1. ---
  core::DtPolicy viper_policy = *viper.policy;
  const core::FormalReport viper_formal =
      core::verify_formal(viper_policy, cfg.criteria, /*correct=*/true);
  const core::ProbabilisticReport viper_prob =
      core::verify_criterion1(cfg, viper_policy, *artifacts.model, artifacts.historical);

  // --- Deploy both in the same simulated January. ---
  auto one_shot_policy = artifacts.make_dt_policy();
  const env::EpisodeMetrics one_shot_run = bench::run_full_episode(cfg.env, *one_shot_policy);
  const env::EpisodeMetrics viper_run = bench::run_full_episode(cfg.env, viper_policy);

  AsciiTable table("One-shot (paper) vs VIPER extraction, equal label budgets");
  table.set_header({"method", "labels", "tree nodes", "corrected", "safe prob",
                    "energy kWh", "violation"});
  table.add_row("one-shot Eq.5 (paper)",
                {static_cast<double>(artifacts.decisions.size()),
                 static_cast<double>(artifacts.policy->tree().node_count()),
                 static_cast<double>(artifacts.formal.corrected_crit2 +
                                     artifacts.formal.corrected_crit3),
                 artifacts.probabilistic.safe_probability, one_shot_run.total_energy_kwh(),
                 one_shot_run.violation_rate()},
                3);
  table.add_row("VIPER (iterative)",
                {static_cast<double>(viper.aggregated.size()),
                 static_cast<double>(viper_policy.tree().node_count()),
                 static_cast<double>(viper_formal.corrected_crit2 +
                                     viper_formal.corrected_crit3),
                 viper_prob.safe_probability, viper_run.total_energy_kwh(),
                 viper_run.violation_rate()},
                3);
  table.print();

  std::printf("VIPER per-iteration teacher-match rate:");
  for (const auto& it : viper.iterations) std::printf(" %.3f", it.teacher_match_rate);
  std::printf("  (best: iteration %zu)\n", viper.best_iteration);

  std::vector<std::vector<double>> rows;
  rows.push_back({0, static_cast<double>(artifacts.decisions.size()),
                  artifacts.probabilistic.safe_probability, one_shot_run.total_energy_kwh(),
                  one_shot_run.violation_rate()});
  rows.push_back({1, static_cast<double>(viper.aggregated.size()),
                  viper_prob.safe_probability, viper_run.total_energy_kwh(),
                  viper_run.violation_rate()});
  const std::string path = bench::write_csv(
      "ablation_viper.csv", "method,labels,safe_probability,energy_kwh,violation_rate", rows);
  std::printf("series written to %s\n", path.c_str());
  return 0;
}
