#include "core/pipeline.hpp"

#include <chrono>
#include <stdexcept>
#include <string>

#include "common/config.hpp"
#include "common/logging.hpp"
#include "weather/climate.hpp"

namespace verihvac::core {

void PipelineConfig::set_schema(const env::FeatureSchema& schema) {
  collection.schema = schema;
  model.schema = schema;
  ensemble.member_config.schema = schema;
  decision.schema = schema;
}

namespace {

/// The VERI_HVAC_* count `name` (or `fallback`). A negative value throws
/// rather than wrapping to an enormous std::size_t.
std::size_t env_count(const char* name, long fallback) {
  const long value = env_or_long(name, fallback);
  if (value < 0) {
    throw std::invalid_argument(std::string(name) + " must not be negative, got " +
                                std::to_string(value));
  }
  return static_cast<std::size_t>(value);
}

}  // namespace

PipelineConfig PipelineConfig::for_city(const std::string& city) {
  PipelineConfig cfg;
  cfg.city = city;
  cfg.env.climate = weather::profile_by_name(city);

  const bool full = full_scale();
  // Paper-scale: RS samples=1000, horizon=20 (§4.1); MC repeats 10;
  // decision data up to a few thousand points. Quick scale keeps the same
  // shapes on a single CPU core.
  cfg.rs.samples = env_count("VERI_HVAC_RS_SAMPLES", full ? 1000 : 128);
  cfg.rs.horizon = env_count("VERI_HVAC_RS_HORIZON", full ? 20 : 10);
  cfg.decision.mc_repeats = env_count("VERI_HVAC_MC_REPEATS", full ? 10 : 5);
  cfg.decision_points = env_count("VERI_HVAC_DECISION_POINTS", full ? 3000 : 900);
  cfg.collection.episodes = env_count("VERI_HVAC_COLLECT_EPISODES", full ? 3 : 2);
  cfg.model.trainer.epochs = env_count("VERI_HVAC_EPOCHS", full ? 150 : 60);
  cfg.probabilistic_samples = env_count("VERI_HVAC_VERIFY_SAMPLES", full ? 10000 : 2000);
  cfg.ensemble.member_config = cfg.model;
  cfg.rs_distill = cfg.rs;
  cfg.rs_distill.refine_first_action = true;
  return cfg;
}

std::unique_ptr<control::MbrlAgent> PipelineArtifacts::make_mbrl_agent() const {
  if (!model) throw std::logic_error("artifacts have no model");
  auto agent = std::make_unique<control::MbrlAgent>(
      *model, config.rs, control::ActionSpace(config.action_space), config.env.reward,
      config.agent_seed);
  agent->set_engine(control::RolloutEngine::shared());
  return agent;
}

std::unique_ptr<control::ClueAgent> PipelineArtifacts::make_clue_agent() const {
  if (!ensemble) throw std::logic_error("artifacts have no ensemble (set train_ensemble)");
  control::ClueConfig clue;
  clue.rs = config.rs;
  auto agent = std::make_unique<control::ClueAgent>(
      *ensemble, clue, control::ActionSpace(config.action_space), config.env.reward,
      config.env.default_occupied, config.env.default_unoccupied, config.agent_seed + 1);
  agent->set_engine(control::RolloutEngine::shared());
  return agent;
}

std::unique_ptr<control::RuleBasedController> PipelineArtifacts::make_default_controller()
    const {
  return std::make_unique<control::RuleBasedController>(config.env.default_occupied,
                                                        config.env.default_unoccupied);
}

std::unique_ptr<DtPolicy> PipelineArtifacts::make_dt_policy() const {
  if (!policy) throw std::logic_error("artifacts have no policy");
  return std::make_unique<DtPolicy>(*policy);
}

DecisionDataset generate_decision_data(const PipelineConfig& config,
                                       const dyn::TransitionDataset& historical,
                                       const dyn::DynamicsModel& model, std::size_t points) {
  control::MbrlAgent agent(model, config.rs_distill, control::ActionSpace(config.action_space),
                           config.env.reward, config.agent_seed);
  agent.set_engine(control::RolloutEngine::shared());
  DecisionDataGenerator generator(historical, config.decision);
  return generator.generate(agent, points);
}

ProbabilisticReport verify_criterion1(const PipelineConfig& config, const DtPolicy& policy,
                                      const dyn::DynamicsModel& model,
                                      const dyn::TransitionDataset& historical) {
  const AugmentedSampler sampler(historical.policy_inputs(), config.decision.noise_level,
                                 config.decision.schema);
  Rng rng(config.verification_seed);
  return verify_probabilistic_one_step(policy, model, sampler, config.criteria,
                                       config.probabilistic_samples, rng);
}

namespace {

/// Steps 4-5, shared by run_pipeline and refit_policy: CART fit (§3.2.2),
/// then Algorithm 1 with correction (§3.3.1) and criterion #1 (§3.3.2).
void fit_and_verify(PipelineArtifacts& artifacts) {
  const PipelineConfig& config = artifacts.config;
  artifacts.policy = std::make_shared<DtPolicy>(
      DtPolicy::fit(artifacts.decisions, control::ActionSpace(config.action_space), {},
                    config.decision.schema));
  artifacts.formal = verify_formal(*artifacts.policy, config.criteria, /*correct=*/true);
  artifacts.probabilistic =
      verify_criterion1(config, *artifacts.policy, *artifacts.model, artifacts.historical);
}

}  // namespace

PipelineArtifacts run_pipeline(const PipelineConfig& config) {
  PipelineArtifacts artifacts;
  artifacts.config = config;

  // 1. Historical data from the BMS (here: exploratory episodes).
  log_info("pipeline[", config.city, "]: collecting historical data");
  artifacts.historical = dyn::collect_historical_data(config.env, config.collection);
  log_info("pipeline[", config.city, "]: ", artifacts.historical.size(), " transitions");

  // 2. Thermal dynamics model.
  artifacts.model = std::make_shared<dyn::DynamicsModel>(config.model);
  artifacts.training = artifacts.model->train(artifacts.historical);
  log_info("pipeline[", config.city, "]: model val loss ", artifacts.training.final_val_loss);

  // 2b. Bootstrap ensemble for the CLUE baseline, if requested.
  if (config.train_ensemble) {
    artifacts.ensemble = std::make_shared<dyn::EnsembleDynamics>(config.ensemble);
    artifacts.ensemble->train(artifacts.historical);
  }

  // 3. Decision-data generation (§3.2.1), with a sharpened (first-action
  // refined) optimizer so labels reflect the best action rather than a
  // Monte-Carlo draw.
  const auto t0 = std::chrono::steady_clock::now();
  artifacts.decisions = generate_decision_data(config, artifacts.historical, *artifacts.model,
                                               config.decision_points);
  const auto t1 = std::chrono::steady_clock::now();
  artifacts.decision_data_seconds = std::chrono::duration<double>(t1 - t0).count();
  log_info("pipeline[", config.city, "]: ", artifacts.decisions.size(),
           " decision points in ", artifacts.decision_data_seconds, " s");

  // 4-5. CART fit, Algorithm 1 + correction, criterion #1.
  fit_and_verify(artifacts);
  log_info("pipeline[", config.city, "]: tree nodes=", artifacts.policy->tree().node_count(),
           " leaves=", artifacts.policy->tree().leaf_count(),
           " safe_prob=", artifacts.probabilistic.safe_probability);
  return artifacts;
}

PipelineArtifacts refit_policy(const PipelineArtifacts& base, std::size_t decision_points) {
  if (!base.model) throw std::invalid_argument("refit_policy: base has no model");
  PipelineArtifacts artifacts;
  artifacts.config = base.config;
  artifacts.config.decision_points = decision_points;
  artifacts.historical = base.historical;
  artifacts.model = base.model;
  artifacts.ensemble = base.ensemble;
  artifacts.training = base.training;

  // Prefix reuse: if the base already generated enough decision data, fit
  // on its prefix; otherwise generate the difference.
  artifacts.decisions = base.decisions.size() >= decision_points
                            ? base.decisions.prefix(decision_points)
                            : generate_decision_data(artifacts.config, artifacts.historical,
                                                     *artifacts.model, decision_points);
  fit_and_verify(artifacts);
  return artifacts;
}

}  // namespace verihvac::core
