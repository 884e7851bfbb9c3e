// Deployment-artifact integration: the verified (corrected) policy must
// survive every hand-off format bit-exactly — the policy bundle
// (core/policy_io) and the C99 edge module (core/edge_export).
// Serialization tests in tests/core cover round-trips of *raw* trees;
// these cover the artifact a user actually ships: the pipeline's
// verifier-corrected policy.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>

#include "core/edge_export.hpp"
#include "core/pipeline.hpp"
#include "core/policy_io.hpp"
#include "envlib/baseline_layout.hpp"

namespace verihvac::core {
namespace {

using env::testing::flatten;

PipelineConfig tiny_config() {
  PipelineConfig cfg = PipelineConfig::for_city("Pittsburgh");
  cfg.env.days = 3;
  cfg.collection.episodes = 1;
  cfg.model.hidden = {20, 20};
  cfg.model.trainer.epochs = 60;
  cfg.rs.samples = 64;
  cfg.rs.horizon = 6;
  cfg.rs_distill = cfg.rs;
  cfg.rs_distill.refine_first_action = true;
  cfg.decision.mc_repeats = 3;
  cfg.decision_points = 300;
  cfg.probabilistic_samples = 200;
  return cfg;
}

class DeploymentTest : public ::testing::Test {
 protected:
  static const PipelineArtifacts& artifacts() {
    static const PipelineArtifacts instance = run_pipeline(tiny_config());
    return instance;
  }
};

TEST_F(DeploymentTest, BundleRoundTripsTheCorrectedPolicy) {
  const DtPolicy& verified = *artifacts().policy;
  const std::string path = ::testing::TempDir() + "/deploy.vhp";
  save_policy(verified, path);
  const DtPolicy reloaded = load_policy(path);

  // Same structure and identical decisions on a live operating day.
  EXPECT_EQ(reloaded.tree().node_count(), verified.tree().node_count());
  env::BuildingEnv building(artifacts().config.env);
  env::Observation obs = building.reset();
  for (int step = 0; step < 96; ++step) {
    const auto x = flatten(obs);
    EXPECT_EQ(reloaded.decide_index(x), verified.decide_index(x)) << "step " << step;
    obs = building.step(verified.decide(x)).observation;
  }
}

TEST_F(DeploymentTest, ReloadedBundlePassesReverification) {
  const std::string path = ::testing::TempDir() + "/reverify.vhp";
  save_policy(*artifacts().policy, path);
  DtPolicy reloaded = load_policy(path);
  const FormalReport report =
      verify_formal(reloaded, artifacts().config.criteria, /*correct=*/false);
  EXPECT_EQ(report.violations_crit2, 0u);
  EXPECT_EQ(report.violations_crit3, 0u);
}

TEST_F(DeploymentTest, CorrectedTreeExportsToCAndReplaysExactly) {
  const DtPolicy& verified = *artifacts().policy;
  const std::string dir = ::testing::TempDir();
  EdgeExportOptions options;
  options.prefix = "deploy_dt";
  export_policy_c(verified, dir, options);

  const std::string c_path = dir + "/deploy_dt.c";
  {
    std::ofstream harness(c_path, std::ios::app);
    harness << "#include <stdio.h>\n"
               "int main(void) {\n"
               "  double x[6], h, c;\n"
               "  while (scanf(\"%lf %lf %lf %lf %lf %lf\", &x[0], &x[1], &x[2], &x[3],\n"
               "               &x[4], &x[5]) == 6) {\n"
               "    deploy_dt_decide(x, &h, &c);\n"
               "    printf(\"%.17g %.17g\\n\", h, c);\n"
               "  }\n"
               "  return 0;\n"
               "}\n";
  }
  const std::string bin = dir + "/deploy_dt.bin";
  if (std::system(("cc -std=c99 -O2 -o " + bin + " " + c_path + " 2>/dev/null").c_str()) != 0) {
    GTEST_SKIP() << "host C compiler unavailable";
  }

  // Replay a simulated day through the compiled module.
  env::BuildingEnv building(artifacts().config.env);
  env::Observation obs = building.reset();
  std::vector<std::vector<double>> inputs;
  for (int step = 0; step < 96; ++step) {
    inputs.push_back(flatten(obs));
    obs = building.step(verified.decide(inputs.back())).observation;
  }
  const std::string in_path = dir + "/deploy_day.in";
  {
    std::ofstream in_file(in_path);
    in_file.precision(17);
    for (const auto& x : inputs) {
      for (std::size_t j = 0; j < x.size(); ++j) in_file << (j ? " " : "") << x[j];
      in_file << "\n";
    }
  }
  const std::string out_path = dir + "/deploy_day.out";
  ASSERT_EQ(std::system((bin + " < " + in_path + " > " + out_path).c_str()), 0);
  std::ifstream out_file(out_path);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    double heat = 0.0, cool = 0.0;
    ASSERT_TRUE(out_file >> heat >> cool);
    const auto expected = verified.decide(inputs[i]);
    EXPECT_DOUBLE_EQ(heat, expected.heating_c) << "step " << i;
    EXPECT_DOUBLE_EQ(cool, expected.cooling_c) << "step " << i;
  }
}

}  // namespace
}  // namespace verihvac::core
