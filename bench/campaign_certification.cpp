// Bench — parallel certification throughput (core::VerificationEngine).
//
// The verification workloads are embarrassingly parallel: Monte-Carlo
// criterion-#1 per sample, interval certification per (leaf × cell),
// reachability tubes per initial state. This bench measures the wall-clock
// speedup of each workload as the shared TaskPool widens from 1 to 8
// threads, asserting along the way that every report is bit-identical to
// the single-threaded one (the engine's determinism contract). Shape to
// check: interval certification — the heaviest per-unit workload — should
// scale near-linearly (>2x at 8 threads is the acceptance bar); the
// Monte-Carlo sweep scales similarly once the sample count amortizes the
// fork; tube fan-out saturates earlier (few units, short rollouts).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.hpp"
#include "core/verification_engine.hpp"

namespace {

using namespace verihvac;
using bench::seconds_since;

bool same_report(const core::IntervalReport& a, const core::IntervalReport& b) {
  if (a.leaves_subject != b.leaves_subject || a.leaves_certified != b.leaves_certified ||
      a.results.size() != b.results.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    if (a.results[i].leaf != b.results[i].leaf ||
        a.results[i].cells_certified != b.results[i].cells_certified ||
        a.results[i].next_state.lo != b.results[i].next_state.lo ||
        a.results[i].next_state.hi != b.results[i].next_state.hi) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  bench::print_banner("campaign_certification",
                      "parallel certification engine (ISSUE 2 acceptance)");

  core::PipelineConfig cfg = bench::bench_config("Pittsburgh");
  const core::PipelineArtifacts artifacts = core::run_pipeline(cfg);
  const core::DtPolicy& policy = *artifacts.policy;
  const core::AugmentedSampler sampler(artifacts.historical.policy_inputs(),
                                       cfg.decision.noise_level);

  // Fine input splitting over the full design envelope: tens of thousands
  // of IBP cells, the regime the campaign service runs in.
  core::IntervalVerifyConfig fine;
  fine.zone_slice_c = 0.05;
  fine.outdoor_slice_c = 1.0;
  const std::size_t mc_samples = 20000;
  const std::size_t tube_states = 256;

  std::vector<std::vector<double>> starts;
  {
    Rng rng = Rng::stream(7, 0);
    for (std::size_t i = 0; i < tube_states; ++i) {
      starts.push_back(core::sample_safe_occupied(sampler, cfg.criteria.comfort, rng).first);
    }
  }

  AsciiTable table("Wall-clock speedup vs pool width (reports bit-identical)");
  table.set_header({"threads", "interval s", "speedup", "mc s", "speedup", "tubes s", "speedup"});

  core::IntervalReport reference_interval;
  core::ProbabilisticReport reference_mc;
  double base_interval = 0.0, base_mc = 0.0, base_tubes = 0.0;
  std::vector<std::vector<double>> rows;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    auto pool = std::make_shared<const common::TaskPool>(
        common::TaskPoolConfig{threads, /*min_parallel_batch=*/1});
    const core::VerificationEngine engine(pool);

    auto t0 = std::chrono::steady_clock::now();
    const auto interval = engine.verify_interval(policy, *artifacts.model, cfg.criteria,
                                                 policy.schema().envelope(), fine);
    const double interval_s = seconds_since(t0);

    t0 = std::chrono::steady_clock::now();
    const auto mc = engine.verify_probabilistic(policy, *artifacts.model, sampler,
                                                cfg.criteria, mc_samples, 404);
    const double mc_s = seconds_since(t0);

    t0 = std::chrono::steady_clock::now();
    const auto tubes = engine.reach_tubes(policy, *artifacts.model, starts, {}, 24);
    const double tubes_s = seconds_since(t0);
    (void)tubes;

    if (threads == 1) {
      reference_interval = interval;
      reference_mc = mc;
      base_interval = interval_s;
      base_mc = mc_s;
      base_tubes = tubes_s;
    } else if (!same_report(interval, reference_interval) ||
               mc.failures != reference_mc.failures) {
      std::fprintf(stderr, "DETERMINISM VIOLATION at %zu threads\n", threads);
      return 1;
    }
    table.add_row(std::to_string(threads),
                  {interval_s, base_interval / interval_s, mc_s, base_mc / mc_s, tubes_s,
                   base_tubes / tubes_s},
                  3);
    rows.push_back({static_cast<double>(threads), interval_s, base_interval / interval_s, mc_s,
                    base_mc / mc_s, tubes_s, base_tubes / tubes_s});
  }
  table.print();
  std::printf("interval workload: %zu subject leaves, certified fraction %.3f\n",
              reference_interval.leaves_subject, reference_interval.certified_fraction());

  const std::string path = bench::write_csv(
      "campaign_certification.csv",
      "threads,interval_s,interval_speedup,mc_s,mc_speedup,tubes_s,tubes_speedup", rows);
  std::printf("series written to %s\n", path.c_str());
  return 0;
}
