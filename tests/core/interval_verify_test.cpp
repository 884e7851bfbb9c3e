#include "core/interval_verify.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "core/verification_engine.hpp"
#include "core_test_utils.hpp"
#include "envlib/baseline_layout.hpp"

namespace verihvac::core {
namespace {

using env::FeatureRole;
using env::testing::dim;

class IntervalVerifyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    history_ = new dyn::TransitionDataset(testutil::toy_history(1500, 12));
    // A *single* hidden layer: IBP looseness compounds per ReLU layer, and
    // one layer keeps the relaxation tight enough to certify — the
    // "verifiability favours shallow dynamics models" trade-off recorded
    // in DESIGN.md and swept by bench/ablation_interval.
    dyn::DynamicsModelConfig cfg;
    cfg.hidden = {16};
    cfg.trainer.epochs = 80;
    cfg.trainer.adam.learning_rate = 3e-3;
    model_ = std::make_shared<dyn::DynamicsModel>(cfg);
    model_->train(*history_);
  }
  static void TearDownTestSuite() {
    delete history_;
    history_ = nullptr;
    model_.reset();
  }

  /// Interval certification on a pool of 1: the serial case.
  static IntervalReport verify_serial(const DtPolicy& policy, const VerificationCriteria& criteria,
                                      const std::optional<Box>& envelope = std::nullopt,
                                      const IntervalVerifyConfig& config = {}) {
    const VerificationEngine engine(std::make_shared<const common::TaskPool>(
        common::TaskPoolConfig{1, /*min_parallel_batch=*/1}));
    return engine.verify_interval(policy, *model_, criteria, envelope, config);
  }

  /// A hold-the-comfort-zone policy: every occupied in-comfort input maps
  /// to a hold action with real margin on both comfort edges (heating 22
  /// recovers a 20.0 degC zone decisively; cooling 23 caps the top).
  static DtPolicy hold_policy() {
    const control::ActionSpace actions;
    const std::size_t hold = actions.nearest_index(sim::SetpointPair{22.0, 23.0});
    const std::size_t setback = actions.nearest_index(sim::SetpointPair{15.0, 30.0});
    DecisionDataset data;
    for (int i = 0; i < 40; ++i) {
      const double temp = 14.0 + 0.3 * i;
      data.records.push_back({{temp, 0.0, 50.0, 3.0, 100.0, 11.0}, hold});
      data.records.push_back({{temp, 0.0, 50.0, 3.0, 100.0, 0.0}, setback});
    }
    return DtPolicy::fit(data, actions);
  }

  static VerificationCriteria winter() {
    VerificationCriteria c;
    c.comfort = env::winter_comfort();
    return c;
  }

  static dyn::TransitionDataset* history_;
  static std::shared_ptr<dyn::DynamicsModel> model_;
};

dyn::TransitionDataset* IntervalVerifyTest::history_ = nullptr;
std::shared_ptr<dyn::DynamicsModel> IntervalVerifyTest::model_;

/// Sound next-state interval of one box, on a fresh scratch.
Interval next_state(const dyn::DynamicsModel& model, const Box& box) {
  IntervalScratch scratch;
  return interval_next_state(model, box, scratch);
}

/// One model-input row (observation dims, then the 2 setpoints) through
/// the batched predict.
double predict_row(const dyn::DynamicsModel& model, const std::vector<double>& row) {
  Matrix input(1, row.size());
  input.set_row(0, row);
  dyn::BatchScratch scratch;
  std::vector<double> next;
  model.predict_batch_into(input, next, scratch);
  return next[0];
}

TEST_F(IntervalVerifyTest, NextStateRejectsBadBoxes) {
  EXPECT_THROW(next_state(*model_, Box(6)), std::invalid_argument);
  Box unbounded(model_->input_dims());  // all dims infinite
  EXPECT_THROW(next_state(*model_, unbounded), std::invalid_argument);
  Box empty_dim(model_->input_dims());
  for (std::size_t d = 0; d < model_->input_dims(); ++d) {
    empty_dim.clip(d, Interval::bounded(0.0, 1.0));
  }
  empty_dim.clip(0, Interval::bounded(2.0, 3.0));  // empty intersection
  EXPECT_THROW(next_state(*model_, empty_dim), std::invalid_argument);
}

TEST_F(IntervalVerifyTest, UntrainedModelThrows) {
  dyn::DynamicsModel untrained;
  Box box(untrained.input_dims());
  for (std::size_t d = 0; d < untrained.input_dims(); ++d) {
    box.clip(d, Interval::bounded(0.0, 1.0));
  }
  EXPECT_THROW(next_state(untrained, box), std::logic_error);
}

Box operating_box(const dyn::DynamicsModel& model, double s_lo, double s_hi, double heat_sp,
                  double cool_sp) {
  Box box(model.input_dims());
  box.clip(dim(FeatureRole::kZoneTemp), Interval::bounded(s_lo, s_hi));
  box.clip(dim(FeatureRole::kOutdoorTemp), Interval::bounded(-5.0, 5.0));
  box.clip(dim(FeatureRole::kHumidity), Interval::bounded(40.0, 80.0));
  box.clip(dim(FeatureRole::kWind), Interval::bounded(0.0, 8.0));
  box.clip(dim(FeatureRole::kSolar), Interval::bounded(0.0, 300.0));
  box.clip(dim(FeatureRole::kOccupancy), Interval::bounded(0.5, 12.0));
  box.clip(model.heat_index(), Interval::bounded(heat_sp, heat_sp));
  box.clip(model.cool_index(), Interval::bounded(cool_sp, cool_sp));
  return box;
}

TEST_F(IntervalVerifyTest, DegenerateBoxMatchesPointPrediction) {
  Box box = operating_box(*model_, 21.0, 21.0, 21.0, 23.0);
  for (FeatureRole role : {FeatureRole::kOutdoorTemp, FeatureRole::kHumidity, FeatureRole::kWind,
                           FeatureRole::kSolar, FeatureRole::kOccupancy}) {
    const std::size_t d = dim(role);
    const double mid = 0.5 * (box[d].lo + box[d].hi);
    box.clip(d, Interval::bounded(mid, mid));
  }
  const Interval range = next_state(*model_, box);
  std::vector<double> x(model_->input_dims());
  for (std::size_t d = 0; d < x.size(); ++d) x[d] = box[d].lo;
  const double point = predict_row(*model_, x);
  EXPECT_NEAR(range.lo, point, 1e-9);
  EXPECT_NEAR(range.hi, point, 1e-9);
}

class IntervalSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntervalSoundness, SampledNextStatesLieWithinInterval) {
  auto history = testutil::toy_history(1500, 12);
  auto model = testutil::toy_model(history);
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    Box box(model->input_dims());
    const double s = rng.uniform(15.0, 26.0);
    box.clip(dim(FeatureRole::kZoneTemp), Interval::bounded(s, s + 1.0));
    box.clip(dim(FeatureRole::kOutdoorTemp), Interval::bounded(-10.0, 10.0));
    box.clip(dim(FeatureRole::kHumidity), Interval::bounded(30.0, 90.0));
    box.clip(dim(FeatureRole::kWind), Interval::bounded(0.0, 10.0));
    box.clip(dim(FeatureRole::kSolar), Interval::bounded(0.0, 400.0));
    box.clip(dim(FeatureRole::kOccupancy), Interval::bounded(0.0, 12.0));
    const double heat = static_cast<double>(rng.uniform_int(15, 23));
    box.clip(model->heat_index(), Interval::bounded(heat, heat));
    const double cool = static_cast<double>(rng.uniform_int(23, 30));
    box.clip(model->cool_index(), Interval::bounded(cool, cool));

    const Interval range = next_state(*model, box);
    for (int i = 0; i < 60; ++i) {
      std::vector<double> x(model->input_dims());
      for (std::size_t d = 0; d < x.size(); ++d) {
        x[d] = rng.uniform(box[d].lo, box[d].hi);
      }
      const double next = predict_row(*model, x);
      EXPECT_GE(next, range.lo - 1e-9);
      EXPECT_LE(next, range.hi + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSoundness, ::testing::Values(7u, 23u));

TEST(SplitIntervalTest, NonDivisorWidthTilesExactly) {
  // 1.2 / 0.5 -> 3 cells; the remainder must neither vanish nor produce a
  // zero-width trailing cell.
  const auto cells = split_interval(Interval::bounded(0.0, 1.2), 0.5);
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_DOUBLE_EQ(cells.front().lo, 0.0);
  EXPECT_DOUBLE_EQ(cells.back().hi, 1.2);
  for (std::size_t k = 0; k < cells.size(); ++k) {
    EXPECT_GT(cells[k].hi, cells[k].lo) << "cell " << k;
    EXPECT_LE(cells[k].hi - cells[k].lo, 0.5 + 1e-12);
    if (k + 1 < cells.size()) {
      EXPECT_DOUBLE_EQ(cells[k].hi, cells[k + 1].lo);
    }
  }
}

TEST(SplitIntervalTest, FinalBoundaryIsExactUnderLargeOffsets) {
  // lo + width*(k+1)/n can round an ulp short of hi at large magnitudes; a
  // dropped top sliver would be an unsound gap in the certificate.
  const double lo = 1.0e15;
  const double hi = lo + 1.0;
  const auto cells = split_interval(Interval::bounded(lo, hi), 0.3);
  ASSERT_FALSE(cells.empty());
  EXPECT_EQ(cells.front().lo, lo);
  EXPECT_EQ(cells.back().hi, hi);  // bit-exact, not merely approximate
  for (std::size_t k = 0; k + 1 < cells.size(); ++k) {
    EXPECT_EQ(cells[k].hi, cells[k + 1].lo);
    EXPECT_GT(cells[k].hi, cells[k].lo);
  }
}

TEST(SplitIntervalTest, ComfortBandNonDivisorCase) {
  // The default zone slicing over the winter band: 3.5 / 0.5 = 7 exactly,
  // but 3.5 / 1.0 leaves a half-width remainder cell.
  const auto cells = split_interval(Interval::bounded(20.0, 23.5), 1.0);
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_DOUBLE_EQ(cells.front().lo, 20.0);
  EXPECT_DOUBLE_EQ(cells.back().hi, 23.5);
  double covered = 0.0;
  for (const Interval& cell : cells) {
    EXPECT_GT(cell.hi, cell.lo);
    covered += cell.hi - cell.lo;
  }
  EXPECT_NEAR(covered, 3.5, 1e-12);
}

TEST(SplitIntervalTest, DegenerateIntervalYieldsPointCell) {
  const auto cells = split_interval(Interval::bounded(21.0, 21.0), 0.5);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_DOUBLE_EQ(cells.front().lo, 21.0);
  EXPECT_DOUBLE_EQ(cells.front().hi, 21.0);
}

TEST_F(IntervalVerifyTest, ScratchVariantMatchesAllocatingPath) {
  // One scratch reused across differently shaped queries must reproduce
  // a fresh scratch bit-for-bit (the parallel fan-out reuses one scratch
  // per worker across many cells).
  IntervalScratch scratch;
  for (double s : {20.0, 21.0, 22.5}) {
    const Box box = operating_box(*model_, s, s + 0.5, 21.0, 23.0);
    const Interval fresh = next_state(*model_, box);
    const Interval reused = interval_next_state(*model_, box, scratch);
    EXPECT_EQ(fresh.lo, reused.lo);
    EXPECT_EQ(fresh.hi, reused.hi);
  }
}

TEST_F(IntervalVerifyTest, ReportCountsAreConsistent) {
  const DtPolicy policy = hold_policy();
  const IntervalReport report = verify_serial(policy, winter());
  EXPECT_EQ(report.leaves_total, policy.tree().leaf_count());
  EXPECT_LE(report.leaves_subject, report.leaves_total);
  EXPECT_LE(report.leaves_certified, report.leaves_subject);
  EXPECT_EQ(report.results.size(), report.leaves_subject);
  EXPECT_GE(report.certified_fraction(), 0.0);
  EXPECT_LE(report.certified_fraction(), 1.0);
}

TEST_F(IntervalVerifyTest, TightClimateEnvelopeCertifiesHoldPolicy) {
  // Over a narrow, mild envelope the toy plant under a hold-21/23 action
  // provably keeps an in-comfort zone in comfort; IBP must certify the
  // subject leaves. (The paper-scale envelope is wider and certification
  // legitimately abstains — see the width sweep below.)
  const DtPolicy policy = hold_policy();
  const env::FeatureSchema& schema = policy.schema();
  using env::FeatureRole;
  Box tight = schema.envelope();
  tight[schema.index_of(FeatureRole::kOutdoorTemp)] = Interval::bounded(-1.0, 1.0);
  tight[schema.index_of(FeatureRole::kHumidity)] = Interval::bounded(48.0, 52.0);
  tight[schema.index_of(FeatureRole::kWind)] = Interval::bounded(2.5, 3.5);
  tight[schema.index_of(FeatureRole::kSolar)] = Interval::bounded(90.0, 110.0);
  tight[schema.index_of(FeatureRole::kOccupancy)] = Interval::bounded(10.0, 12.0);
  IntervalVerifyConfig fine;
  fine.zone_slice_c = 0.1;
  const IntervalReport report = verify_serial(policy, winter(), tight, fine);
  ASSERT_GT(report.leaves_subject, 0u);
  EXPECT_EQ(report.leaves_certified, report.leaves_subject);
  // Input splitting really happened and the union image is recorded.
  for (const auto& r : report.results) {
    EXPECT_GT(r.cells, 1u);
    EXPECT_EQ(r.cells_certified, r.cells);
    EXPECT_GE(r.next_state.lo, winter().comfort.lo);
    EXPECT_LE(r.next_state.hi, winter().comfort.hi);
  }
}

TEST_F(IntervalVerifyTest, CertifiedFractionShrinksWithEnvelopeWidth) {
  const DtPolicy policy = hold_policy();
  double prev = 2.0;
  for (double width : {1.0, 10.0, 30.0}) {
    Box envelope = policy.schema().envelope();
    envelope[policy.schema().index_of(env::FeatureRole::kOutdoorTemp)] =
        Interval::bounded(-width, width);
    const IntervalReport report = verify_serial(policy, winter(), envelope);
    EXPECT_LE(report.certified_fraction(), prev + 1e-12);
    prev = report.certified_fraction();
  }
}

TEST_F(IntervalVerifyTest, NarrowedTemporalEnvelopeDropsLeavesOutsideIt) {
  // The envelope clip is generic over every schema dimension, temporal ones
  // included: on the time-aware schema, a leaf that only handles night-time
  // inputs (hour_sin <= 0) falls out of a daytime envelope.
  const env::FeatureSchema& schema = env::time_aware_schema();
  const control::ActionSpace actions;
  const std::size_t hold = actions.nearest_index(sim::SetpointPair{22.0, 23.0});
  const std::size_t preheat = actions.nearest_index(sim::SetpointPair{23.0, 26.0});
  DecisionDataset data;
  for (int i = 0; i < 40; ++i) {
    // zone, outdoor, humidity, wind, solar, occupants, hour_sin, hour_cos,
    // occupants_ahead: only hour_sin separates the two labels.
    const double temp = 20.0 + 0.08 * i;
    data.records.push_back({{temp, 0.0, 50.0, 3.0, 100.0, 11.0, -0.5, 0.0, 11.0}, preheat});
    data.records.push_back({{temp, 0.0, 50.0, 3.0, 100.0, 11.0, 0.5, 0.0, 11.0}, hold});
  }
  const DtPolicy policy = DtPolicy::fit(data, actions, {}, schema);
  const std::size_t sin_dim = schema.index_of(env::FeatureRole::kHourSin);
  const Interval daytime = Interval::bounded(0.25, 1.0);

  std::size_t leaves_total = 0;
  const auto full = interval_work_items(policy, winter(), schema.envelope(), {}, leaves_total);
  std::size_t night_leaves = 0;
  for (const IntervalWorkItem& item : full) {
    if (policy.tree().leaf_box(item.leaf)[sin_dim].hi < daytime.lo) ++night_leaves;
  }
  ASSERT_GT(night_leaves, 0u);  // the tree splits on hour_sin

  Box day = schema.envelope();
  day[sin_dim] = daytime;
  const auto narrowed = interval_work_items(policy, winter(), day, {}, leaves_total);
  EXPECT_EQ(leaves_total, policy.tree().leaf_count());
  EXPECT_EQ(narrowed.size(), full.size() - night_leaves);
  for (const IntervalWorkItem& item : narrowed) {
    for (const Box& cell : item.cells) {
      EXPECT_GE(cell[sin_dim].lo, daytime.lo);
      EXPECT_LE(cell[sin_dim].hi, daytime.hi);
    }
  }
}

TEST_F(IntervalVerifyTest, EnvelopeMustCoverThePolicySchema) {
  const DtPolicy policy = hold_policy();  // baseline schema
  EXPECT_THROW(verify_serial(policy, winter(), env::time_aware_schema().envelope()),
               std::invalid_argument);
}

TEST_F(IntervalVerifyTest, UnoccupiedOnlyLeavesAreExempt) {
  // A policy whose every leaf lies in occupancy <= 0.5 must yield zero
  // subject leaves (criterion #1 guards occupied hours).
  const control::ActionSpace actions;
  DecisionDataset data;
  const std::size_t setback = actions.nearest_index(sim::SetpointPair{15.0, 30.0});
  for (int i = 0; i < 20; ++i) {
    data.records.push_back({{15.0 + 0.5 * i, 0.0, 50.0, 3.0, 0.0, 0.0}, setback});
  }
  DtPolicy policy = DtPolicy::fit(data, actions);
  // Constrain occupancy away: the single-leaf tree covers all occupancies,
  // so instead check with an occupancy envelope excluded by clipping.
  Box envelope = policy.schema().envelope();
  envelope[policy.schema().occupancy_index()] = Interval::bounded(0.0, 0.4);  // occupied excluded
  const IntervalReport report = verify_serial(policy, winter(), envelope);
  EXPECT_EQ(report.leaves_subject, 0u);
  EXPECT_DOUBLE_EQ(report.certified_fraction(), 1.0);
}

}  // namespace
}  // namespace verihvac::core
