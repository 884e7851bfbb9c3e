// Ablation — sound interval certification vs Monte-Carlo estimation.
//
// Extension of §3.3.2: criterion #1 can be *certified* (not just
// estimated) by pushing each leaf's input box through the learned MLP with
// interval bound propagation (core/interval_verify). The certificate is
// sound but incomplete — IBP looseness grows with the width of the
// certificate envelope (a box over the policy's schema), the zone-slice
// width, and the network depth. This bench maps that certify/abstain
// frontier on the pipeline's verified policy:
//   1. certified fraction vs climate-envelope width,
//   2. certified fraction vs zone-slice width (input splitting budget),
//   3. shallow {16} vs paper-ish {32,32} dynamics model,
// alongside the Monte-Carlo safe-probability estimate for reference.
// Shape to check: certification decays toward zero as the envelope widens
// (while the MC estimate barely moves), finer slices recover certification
// at linear cost, and the shallow model certifies far more than the deep
// one at equal accuracy — "verifiability favours shallow dynamics models".
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "common/config.hpp"
#include "core/verification_engine.hpp"
#include "dynamics/model_eval.hpp"
#include "weather/occupancy.hpp"

namespace {

using namespace verihvac;

/// The schema's design envelope with the five classic disturbance roles
/// narrowed to a box around mild operating conditions, `scale` wide.
Box envelope(const env::FeatureSchema& schema, double scale) {
  using env::FeatureRole;
  Box box = schema.envelope();
  box[schema.index_of(FeatureRole::kOutdoorTemp)] = Interval::bounded(-1.0 * scale, 1.0 * scale);
  box[schema.index_of(FeatureRole::kHumidity)] =
      Interval::bounded(50.0 - 2.0 * scale, 50.0 + 2.0 * scale);
  box[schema.index_of(FeatureRole::kWind)] =
      Interval::bounded(std::max(0.0, 3.0 - 0.5 * scale), 3.0 + 0.5 * scale);
  box[schema.index_of(FeatureRole::kSolar)] =
      Interval::bounded(std::max(0.0, 100.0 - 10.0 * scale), 100.0 + 10.0 * scale);
  box[schema.index_of(FeatureRole::kOccupancy)] =
      Interval::bounded(std::max(weather::kOccupiedThreshold, 11.0 - scale), 11.0 + scale);
  return box;
}

}  // namespace

int main() {
  bench::print_banner("ablation_interval", "DESIGN.md §5 (IBP certification frontier)");

  core::PipelineConfig cfg = bench::bench_config("Pittsburgh");
  const core::PipelineArtifacts artifacts = core::run_pipeline(cfg);
  const core::DtPolicy& policy = *artifacts.policy;

  // A shallow twin of the pipeline model, trained on the same data.
  dyn::DynamicsModelConfig shallow_cfg = cfg.model;
  shallow_cfg.hidden = {16};
  dyn::DynamicsModel shallow(shallow_cfg);
  shallow.train(artifacts.historical);
  std::printf("one-step RMSE: pipeline model %.4f degC, shallow model %.4f degC\n",
              dyn::one_step_rmse(*artifacts.model, artifacts.historical),
              dyn::one_step_rmse(shallow, artifacts.historical));
  std::printf("Monte-Carlo criterion-#1 estimate (reference): %.3f\n\n",
              artifacts.probabilistic.safe_probability);
  const core::VerificationEngine engine;  // the shared pool
  const Box mild = envelope(policy.schema(), 1.0);

  // --- Sweep 1: envelope width (shallow model, 0.25 degC slices). ---
  AsciiTable sweep1("Certified fraction vs climate-envelope width (shallow model)");
  sweep1.set_header({"envelope scale", "subject leaves", "certified", "fraction"});
  std::vector<std::vector<double>> rows1;
  core::IntervalVerifyConfig fine;
  fine.zone_slice_c = 0.25;
  for (double scale : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    const Box scaled = envelope(policy.schema(), scale);
    const auto report = engine.verify_interval(policy, shallow, cfg.criteria, scaled, fine);
    sweep1.add_row(format_double(scale, 1),
                   {static_cast<double>(report.leaves_subject),
                    static_cast<double>(report.leaves_certified),
                    report.certified_fraction()},
                   3);
    rows1.push_back({scale, static_cast<double>(report.leaves_subject),
                     static_cast<double>(report.leaves_certified),
                     report.certified_fraction()});
  }
  sweep1.print();

  // --- Sweep 2: zone-slice width (fixed mild envelope). ---
  AsciiTable sweep2("Certified fraction vs zone-slice width (input splitting)");
  sweep2.set_header({"slice degC", "cells examined", "fraction certified"});
  std::vector<std::vector<double>> rows2;
  for (double slice : {2.0, 1.0, 0.5, 0.25, 0.1}) {
    core::IntervalVerifyConfig split_cfg;
    split_cfg.zone_slice_c = slice;
    const auto report = engine.verify_interval(policy, shallow, cfg.criteria, mild, split_cfg);
    std::size_t cells = 0;
    for (const auto& r : report.results) cells += r.cells;
    sweep2.add_row(format_double(slice, 2),
                   {static_cast<double>(cells), report.certified_fraction()}, 3);
    rows2.push_back({slice, static_cast<double>(cells), report.certified_fraction()});
  }
  sweep2.print();

  // --- Sweep 3: model depth at a fixed mild envelope. ---
  AsciiTable sweep3("Certified fraction vs dynamics-model depth");
  sweep3.set_header({"model", "fraction certified"});
  const auto deep_report =
      engine.verify_interval(policy, *artifacts.model, cfg.criteria, mild, fine);
  const auto shallow_report = engine.verify_interval(policy, shallow, cfg.criteria, mild, fine);
  sweep3.add_row("pipeline (deep)", {deep_report.certified_fraction()}, 3);
  sweep3.add_row("shallow {16}", {shallow_report.certified_fraction()}, 3);
  sweep3.print();

  bench::write_csv("ablation_interval_envelope.csv",
                   "scale,subject,certified,fraction", rows1);
  const std::string path =
      bench::write_csv("ablation_interval_slices.csv", "slice,cells,fraction", rows2);
  std::printf("series written next to %s\n", path.c_str());
  return 0;
}
