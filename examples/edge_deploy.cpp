// Edge deployment: render a verified policy as firmware-ready C99.
//
// The final arrow of the paper's pipeline (Fig. 2: verified tree ->
// "Deploy" -> building edge device). Building controllers are usually
// bare-metal C targets without an OS, a heap, or a C++ runtime, so this
// example shows the complete hand-off:
//
//   1. run the bundled extraction+verification pipeline for a city,
//   2. export the verified DtPolicy as <prefix>.c / <prefix>.h,
//   3. if a host C compiler is available, compile the exported module with
//      a replay harness and cross-check it against the in-process policy
//      on a simulated operating day (a bit-exactness acceptance test).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/edge_export.hpp"
#include "core/pipeline.hpp"
#include "envlib/env.hpp"

int main() {
  using namespace verihvac;

  // --- Stage 1: extract + verify (one call; see extract_and_verify.cpp
  // for the long-form version of what happens inside). ---
  core::PipelineConfig config = core::PipelineConfig::for_city("Pittsburgh");
  config.decision_points = 300;  // demo scale; VERI_HVAC_FULL=1 for paper scale
  const core::PipelineArtifacts artifacts = core::run_pipeline(config);
  const core::DtPolicy& policy = *artifacts.policy;
  std::printf("verified policy: %zu nodes, %zu leaves, safe probability %.3f\n",
              policy.tree().node_count(), policy.tree().leaf_count(),
              artifacts.probabilistic.safe_probability);

  // --- Stage 2: export as C99. ---
  const auto dir = std::filesystem::temp_directory_path() / "verihvac_edge";
  std::filesystem::create_directories(dir);
  core::EdgeExportOptions options;
  options.prefix = "veri_hvac";
  options.style = tree::CodegenStyle::kFlatTable;  // constant flash footprint
  core::export_policy_c(policy, dir.string(), options);
  std::printf("exported: %s/veri_hvac.c (+.h)\n", dir.c_str());

  // --- Stage 3: compile + replay acceptance test. ---
  const std::string harness_path = (dir / "harness.c").string();
  {
    std::ofstream harness(harness_path);
    harness << "#include <stdio.h>\n"
               "#include \"veri_hvac.h\"\n"
               "int main(void) {\n"
               "  double x[6], h, c;\n"
               "  while (scanf(\"%lf %lf %lf %lf %lf %lf\", &x[0], &x[1], &x[2],\n"
               "               &x[3], &x[4], &x[5]) == 6) {\n"
               "    veri_hvac_decide(x, &h, &c);\n"
               "    printf(\"%.17g %.17g\\n\", h, c);\n"
               "  }\n"
               "  return 0;\n"
               "}\n";
  }
  const std::string bin_path = (dir / "edge_policy").string();
  const std::string compile = "cc -std=c99 -O2 -I" + dir.string() + " -o " + bin_path + " " +
                              (dir / "veri_hvac.c").string() + " " + harness_path +
                              " 2>/dev/null";
  if (std::system(compile.c_str()) != 0) {
    std::printf("no host C compiler; skipping the replay acceptance test\n");
    return 0;
  }

  // One simulated day of observations, replayed through both policies.
  env::BuildingEnv building(config.env);
  env::Observation obs = building.reset();
  std::vector<std::vector<double>> inputs;
  for (int step = 0; step < 96; ++step) {  // 96 x 15 min = 24 h
    inputs.push_back(policy.schema().to_vector(obs));
    obs = building.step(policy.decide(inputs.back())).observation;
  }
  const std::string in_path = (dir / "day.in").string();
  {
    std::ofstream in_file(in_path);
    in_file.precision(17);
    for (const auto& x : inputs) {
      for (std::size_t j = 0; j < x.size(); ++j) in_file << (j ? " " : "") << x[j];
      in_file << "\n";
    }
  }
  const std::string out_path = (dir / "day.out").string();
  if (std::system((bin_path + " < " + in_path + " > " + out_path).c_str()) != 0) {
    std::printf("replay harness failed to run\n");
    return 1;
  }

  std::ifstream out_file(out_path);
  std::size_t mismatches = 0;
  for (const auto& x : inputs) {
    double heat = 0.0, cool = 0.0;
    if (!(out_file >> heat >> cool)) {
      std::printf("replay output truncated\n");
      return 1;
    }
    const auto expected = policy.decide(x);
    if (heat != expected.heating_c || cool != expected.cooling_c) ++mismatches;
  }
  std::printf("acceptance test: %zu/%zu decisions bit-identical -> %s\n",
              inputs.size() - mismatches, inputs.size(), mismatches == 0 ? "PASS" : "FAIL");
  return mismatches == 0 ? 0 : 1;
}
