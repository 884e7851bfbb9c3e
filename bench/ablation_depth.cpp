// Ablation — CART depth cap vs verification and control quality.
//
// The paper "left the depth unbounded" (§4.1) and observes (Fig. 6/7)
// that control quality converges long before tree size does — i.e. most
// of the unbounded tree's nodes buy no performance. This bench probes the
// same claim from the regularization side: fit the SAME decision dataset
// under depth caps 2..unbounded, push each tree through the full
// verification (Algorithm 1 + criterion #1), deploy it, and additionally
// apply the function-preserving redundant-leaf merge. Shape to check:
// quality and safe probability saturate at a shallow depth (~6-8) while
// node counts keep growing; pruning removes a visible fraction of nodes
// at zero functional cost.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "common/config.hpp"
#include "core/verification.hpp"
#include "tree/prune.hpp"

int main() {
  using namespace verihvac;
  bench::print_banner("ablation_depth", "DESIGN.md §5 (depth cap; Fig. 6/7 claim)");

  core::PipelineConfig cfg = bench::bench_config("Pittsburgh");
  const core::PipelineArtifacts artifacts = core::run_pipeline(cfg);

  AsciiTable table("CART depth cap (same decision data, full verification each)");
  table.set_header({"max depth", "nodes", "after merge", "corrected", "safe prob",
                    "energy kWh", "violation"});
  std::vector<std::vector<double>> rows;

  for (std::size_t depth : {2u, 4u, 6u, 8u, 0u}) {  // 0 = unbounded (paper)
    tree::TreeConfig tree_cfg;
    tree_cfg.max_depth = depth;
    core::DtPolicy policy =
        core::DtPolicy::fit(artifacts.decisions, artifacts.policy->actions(), tree_cfg);

    const core::FormalReport formal =
        core::verify_formal(policy, cfg.criteria, /*correct=*/true);
    const core::ProbabilisticReport prob =
        core::verify_criterion1(cfg, policy, *artifacts.model, artifacts.historical);
    const std::size_t nodes_before = policy.tree().node_count();
    const tree::PruneReport pruned = tree::merge_redundant_leaves(policy.mutable_tree());

    const env::EpisodeMetrics run = bench::run_full_episode(cfg.env, policy);
    const std::string label = depth == 0 ? "unbounded (paper)" : std::to_string(depth);
    table.add_row(label,
                  {static_cast<double>(nodes_before),
                   static_cast<double>(pruned.nodes_after),
                   static_cast<double>(formal.corrected_crit2 + formal.corrected_crit3),
                   prob.safe_probability, run.total_energy_kwh(), run.violation_rate()},
                  3);
    rows.push_back({static_cast<double>(depth), static_cast<double>(nodes_before),
                    static_cast<double>(pruned.nodes_after), prob.safe_probability,
                    run.total_energy_kwh(), run.violation_rate()});
  }
  table.print();
  std::printf("shape to check: energy/violation/safe-prob flat from depth ~6-8 up while\n"
              "node counts keep growing; the merge shrinks trees at zero function cost\n"
              "(the Fig. 6/7 'size does not buy quality' claim, from the other side).\n");
  const std::string path = bench::write_csv(
      "ablation_depth.csv", "max_depth,nodes,nodes_merged,safe_probability,energy_kwh,violation",
      rows);
  std::printf("series written to %s\n", path.c_str());
  return 0;
}
