// End-to-end extraction pipeline — the left side of Fig. 2.
//
//   historical data -> dynamics model -> RS controller -> decision data
//   -> CART tree -> formal verification (+correction) -> probabilistic
//   verification -> deployable DtPolicy.
//
// The pipeline is the single entry point the benches and examples use, so
// every experiment shares identical artifacts for a given (city, seed).
// Workload scaling: for_city() reads the paper-scale hyperparameters when
// VERI_HVAC_FULL=1 and single-core-friendly reductions otherwise; both can
// be overridden per field.
#pragma once

#include <memory>
#include <string>

#include "control/clue_agent.hpp"
#include "control/mbrl_agent.hpp"
#include "control/rule_based.hpp"
#include "core/decision_data.hpp"
#include "core/dt_policy.hpp"
#include "core/verification.hpp"
#include "dynamics/ensemble.hpp"

namespace verihvac::core {

struct PipelineConfig {
  std::string city = "Pittsburgh";
  env::EnvConfig env;
  dyn::CollectionConfig collection;
  dyn::DynamicsModelConfig model;
  control::RandomShootingConfig rs;
  /// Optimizer settings for decision-data generation (§3.2.1). Same family
  /// as `rs` but with first-action refinement on: supervision labels must
  /// reflect the best action, not a Monte-Carlo draw of argmax-over-sums.
  control::RandomShootingConfig rs_distill;
  control::ActionSpaceConfig action_space;
  DecisionDataConfig decision;
  std::size_t decision_points = 600;
  VerificationCriteria criteria;
  std::size_t probabilistic_samples = 2000;
  std::uint64_t verification_seed = 404;
  std::uint64_t agent_seed = 101;
  /// Train the bootstrap ensemble (needed only for the CLUE baseline).
  bool train_ensemble = false;
  dyn::EnsembleConfig ensemble;

  /// Observation layout shared by every stage (collection, model training,
  /// ensemble, decision generation, CART fit). The stages each carry their
  /// own schema field; this setter threads one schema through all of them so
  /// they cannot drift apart. Defaults to the 6-dim baseline.
  void set_schema(const env::FeatureSchema& schema);
  const env::FeatureSchema& schema() const { return decision.schema; }

  /// Standard configuration for a named city ("Pittsburgh", "Tucson",
  /// "NewYork"), honouring VERI_HVAC_FULL / VERI_HVAC_* overrides. Throws
  /// std::invalid_argument for an unknown city or a negative count.
  static PipelineConfig for_city(const std::string& city);
};

/// Everything the pipeline produces. Artifacts own their heavyweight
/// members so they can outlive the pipeline and be shared across benches.
struct PipelineArtifacts {
  PipelineConfig config;
  dyn::TransitionDataset historical;
  std::shared_ptr<dyn::DynamicsModel> model;
  std::shared_ptr<dyn::EnsembleDynamics> ensemble;  ///< null unless requested
  nn::TrainingReport training;
  DecisionDataset decisions;
  std::shared_ptr<DtPolicy> policy;        ///< verified (corrected) policy
  FormalReport formal;                     ///< Algorithm 1 outcome
  ProbabilisticReport probabilistic;       ///< criterion #1 outcome
  double decision_data_seconds = 0.0;      ///< wall time of §3.2.1 generation

  /// Fresh agents bound to these artifacts (reusable across episodes).
  std::unique_ptr<control::MbrlAgent> make_mbrl_agent() const;
  std::unique_ptr<control::ClueAgent> make_clue_agent() const;
  std::unique_ptr<control::RuleBasedController> make_default_controller() const;
  /// A fresh copy of the verified DT policy.
  std::unique_ptr<DtPolicy> make_dt_policy() const;
};

/// Step 3 (§3.2.1) as every extraction runs it: a fresh distillation agent
/// (config.rs_distill, seeded with config.agent_seed) on the shared rollout
/// engine labels `points` inputs drawn from `historical`.
DecisionDataset generate_decision_data(const PipelineConfig& config,
                                       const dyn::TransitionDataset& historical,
                                       const dyn::DynamicsModel& model, std::size_t points);

/// Criterion #1 (§3.3.2) as every extraction checks it: config.criteria
/// over config.probabilistic_samples inputs drawn (Eq. 5) from
/// `historical`, seeded with config.verification_seed (the engine's seed is
/// Rng(verification_seed).next(), via verify_probabilistic_one_step).
ProbabilisticReport verify_criterion1(const PipelineConfig& config, const DtPolicy& policy,
                                      const dyn::DynamicsModel& model,
                                      const dyn::TransitionDataset& historical);

/// Runs the full pipeline.
PipelineArtifacts run_pipeline(const PipelineConfig& config);

/// Pipeline variant that reuses existing heavyweight artifacts (historical
/// data + trained model) and only redoes decision-data generation, tree
/// fitting and verification — the inner loop of the Fig. 6/7 sweeps.
PipelineArtifacts refit_policy(const PipelineArtifacts& base, std::size_t decision_points);

}  // namespace verihvac::core
