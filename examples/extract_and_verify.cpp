// Extract-and-verify: the deployment workflow of Fig. 2, step by step,
// with the intermediate artifacts a building engineer would inspect.
//
// Unlike the quickstart (which calls the bundled pipeline), this example
// drives each stage manually and shows:
//   * what the historical dataset looks like,
//   * the dynamics-model training report,
//   * how the Eq. 5 augmented sampler concentrates decision queries,
//   * the raw (unverified) tree vs the verified (corrected) tree,
//   * the interpretable rule dump and the Graphviz export,
//   * policy-bundle round-trip to an "edge device" file.
#include <cstdio>
#include <filesystem>

#include "core/decision_data.hpp"
#include "core/dt_policy.hpp"
#include "core/policy_io.hpp"
#include "core/verification_engine.hpp"
#include "dynamics/dataset.hpp"
#include "dynamics/dynamics_model.hpp"
#include "envlib/env.hpp"
#include "tree/tree_io.hpp"
#include "weather/climate.hpp"

int main() {
  using namespace verihvac;

  // --- Stage 1: historical data from the building management system. ---
  env::EnvConfig env_config;
  env_config.climate = weather::profile_by_name("Pittsburgh");
  env_config.days = 14;
  dyn::CollectionConfig collection;
  collection.episodes = 1;
  const dyn::TransitionDataset historical =
      dyn::collect_historical_data(env_config, collection);
  std::printf("historical dataset: %zu transitions of (s, d, a, s')\n",
              historical.size());

  // --- Stage 2: thermal dynamics model. ---
  dyn::DynamicsModelConfig model_config;  // paper §4.1 hyperparameters
  dyn::DynamicsModel model(model_config);
  const nn::TrainingReport report = model.train(historical);
  std::printf("dynamics model: train loss %.4f, validation loss %.4f (MSE, degC^2)\n",
              report.final_train_loss, report.final_val_loss);

  // --- Stage 3: decision-data generation (§3.2.1). ---
  control::ActionSpace actions;
  control::RandomShootingConfig rs;
  rs.samples = 128;
  rs.horizon = 10;
  rs.refine_first_action = true;  // sharp supervision labels
  control::MbrlAgent teacher(model, rs, actions, env_config.reward, /*seed=*/7);

  core::DecisionDataConfig decision_config;  // noise_level = 0.01 (§4.1)
  core::DecisionDataGenerator generator(historical, decision_config);
  std::printf("augmented sampler: noise level %.2f over %zu input dims\n",
              generator.sampler().noise_level(), generator.sampler().dims());
  const core::DecisionDataset decisions = generator.generate(teacher, 400);
  std::printf("decision dataset Pi: %zu entries\n", decisions.size());

  // --- Stage 4: CART fit (§3.2.2). ---
  core::DtPolicy policy = core::DtPolicy::fit(decisions, actions);
  std::printf("raw tree: %zu nodes, %zu leaves, depth %zu\n",
              policy.tree().node_count(), policy.tree().leaf_count(),
              policy.tree().depth());

  // --- Stage 5: verification (§3.3). ---
  core::VerificationCriteria criteria;  // winter comfort, l = 0.9
  const core::FormalReport formal = core::verify_formal(policy, criteria, /*correct=*/true);
  std::printf("Algorithm 1: %zu/%zu leaves subject to crit #2/#3; "
              "%zu corrected (#2: %zu, #3: %zu)\n",
              formal.leaves_subject_crit2 + formal.leaves_subject_crit3,
              formal.leaves_total, formal.corrected_crit2 + formal.corrected_crit3,
              formal.corrected_crit2, formal.corrected_crit3);

  const core::ProbabilisticReport prob = core::VerificationEngine().verify_probabilistic(
      policy, model, generator.sampler(), criteria, 2000, /*seed=*/404);
  std::printf("criterion #1: safe probability %.3f over %zu one-step samples -> %s\n",
              prob.safe_probability, prob.samples,
              prob.passes(criteria) ? "PASS" : "FAIL");

  // --- Stage 6: artifacts for deployment and for the engineer. ---
  const auto dir = std::filesystem::temp_directory_path();
  const std::string bundle_path = (dir / "verihvac_policy.bundle").string();
  const std::string dot_path = (dir / "verihvac_policy.dot").string();
  core::save_policy(policy, bundle_path);
  std::FILE* dot = std::fopen(dot_path.c_str(), "w");
  if (dot != nullptr) {
    const std::string graphviz = tree::to_dot(policy.tree(), policy.schema().feature_names());
    std::fwrite(graphviz.data(), 1, graphviz.size(), dot);
    std::fclose(dot);
  }
  std::printf("\npolicy bundle   -> %s\nGraphviz export -> %s\n", bundle_path.c_str(),
              dot_path.c_str());

  // Round-trip check: the deployed bundle decides identically.
  const core::DtPolicy deployed = core::load_policy(bundle_path);
  env::BuildingEnv building(env_config);
  env::Observation obs = building.reset();
  bool identical = true;
  for (int i = 0; i < 100; ++i) {
    const auto a = policy.decide(policy.schema().to_vector(obs));
    const auto b = deployed.decide(deployed.schema().to_vector(obs));
    identical = identical && a.heating_c == b.heating_c && a.cooling_c == b.cooling_c;
    obs = building.step(b).observation;
  }
  std::printf("deployment round-trip: decisions identical on 100 live steps: %s\n",
              identical ? "yes" : "NO");
  return identical ? 0 : 1;
}
