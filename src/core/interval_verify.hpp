// Formal (interval) one-step safety certification — extension of §3.3.2.
//
// The paper estimates criterion #1 probabilistically by Monte-Carlo
// sampling. This module adds the sound counterpart: for every leaf of the
// verified tree that handles occupied in-comfort states, build the leaf's
// exact input box (Algorithm 1's path intersection), intersect it with the
// certificate envelope, attach the leaf's setpoint action, push the
// resulting model-input box through the learned MLP dynamics with interval
// bound propagation (nn/interval_bounds), and check whether the
// *guaranteed* next-state interval stays inside the comfort range. A
// certified leaf is safe for EVERY input it handles inside the envelope —
// a 100% guarantee of the kind criteria #2/#3 already enjoy, now extended
// to criterion #1's in-comfort regime.
// The envelope is one Box, one interval per policy input (the input
// specification of NN verifiers such as DeepPoly and CROWN): by default the
// schema's bounds, env::FeatureSchema::envelope(). Leaf boxes are unbounded
// where the tree never split, and IBP over an unbounded box is vacuous.
//
// IBP bounds are loose on wide boxes, so certification is expected to be
// partial (the certified fraction is the headline number; the Monte-Carlo
// estimate remains the paper's metric). bench/ablation_interval sweeps the
// envelope width to show the certify/abstain frontier. The per-(leaf ×
// cell) units below are embarrassingly parallel; core::VerificationEngine
// fans them out over common::TaskPool.
#pragma once

#include <cstddef>
#include <vector>

#include "core/dt_policy.hpp"
#include "core/verification.hpp"
#include "dynamics/dynamics_model.hpp"
#include "nn/interval_bounds.hpp"

namespace verihvac::core {

/// Input-splitting configuration. IBP looseness grows with box width, so a
/// leaf spanning the whole comfort range rarely certifies in one shot; the
/// verifier therefore subdivides the two most influential dimensions (zone
/// and outdoor temperature) into slices, certifies each cell independently,
/// and certifies the leaf iff every cell certifies — the branch-and-bound
/// step every practical NN verifier performs.
struct IntervalVerifyConfig {
  double zone_slice_c = 0.5;     ///< max width of a zone-temperature slice
  double outdoor_slice_c = 5.0;  ///< max width of an outdoor-temperature slice
};

/// Outcome for one subject leaf.
struct IntervalLeafResult {
  int leaf = -1;
  Interval zone_temp;    ///< in-comfort part of the leaf's s-interval
  Interval next_state;   ///< union of per-cell sound one-step images
  std::size_t cells = 0;           ///< input-splitting cells examined
  std::size_t cells_certified = 0; ///< cells whose image stays in comfort
  bool certified = false;          ///< all cells certified
};

struct IntervalReport {
  std::size_t leaves_total = 0;      ///< all leaves of the tree
  std::size_t leaves_subject = 0;    ///< reachable occupied + in-comfort
  std::size_t leaves_certified = 0;  ///< sound next-state inside comfort
  std::vector<IntervalLeafResult> results;

  double certified_fraction() const {
    return leaves_subject == 0
               ? 1.0
               : static_cast<double>(leaves_certified) / static_cast<double>(leaves_subject);
  }
};

/// Per-run (leaf × cell) accounting of one interval certification, as
/// surfaced in adaptation reports. Every cell is computed on every run:
/// `cells_cached` is always 0 and stays only so existing report consumers
/// keep their field (a fine-tune moves every weight of a dense MLP, so no
/// earlier image can soundly be reused for the candidate model).
struct RecertStats {
  std::size_t cells_total = 0;
  std::size_t cells_cached = 0;
  std::size_t cells_computed = 0;
};

/// Caller-owned scratch for the allocation-free certification path — one
/// per worker thread when cells are fanned out in parallel.
struct IntervalScratch {
  std::vector<Interval> normalized;  ///< z-scored input box
  nn::IbpScratch ibp;                ///< MLP bound-propagation buffers
};

/// Splits [iv.lo, iv.hi] into contiguous slices of width <= max_width that
/// exactly tile the interval: the first cell starts at iv.lo, the last cell
/// ends at exactly iv.hi (a naive lo + width*k/n boundary can land an ulp
/// short of hi and silently drop the top sliver from the certificate), and
/// cells collapsed to zero width by floating-point granularity are merged
/// into their neighbour instead of being emitted. A degenerate input
/// (width 0) yields the single point cell.
std::vector<Interval> split_interval(const Interval& iv, double max_width);

/// Sound one-step next-state interval for a bounded model-input box
/// (schema dims + 2 action dims). All mutable state lives in the
/// caller-provided scratch (one per worker thread).
Interval interval_next_state(const dyn::DynamicsModel& model, const Box& model_input_box,
                             IntervalScratch& scratch);

/// One subject leaf prepared for certification: the clipped model-input box
/// (leaf box ∩ envelope ∩ comfort ∩ occupied, with the leaf's action
/// appended as degenerate dims) and its input-splitting cells in deterministic
/// zone-major order. The flattened (leaf × cell) list is the unit of
/// parallelism for core::VerificationEngine.
struct IntervalWorkItem {
  int leaf = -1;
  Interval zone_temp;      ///< in-comfort part of the leaf's s-interval
  std::vector<Box> cells;  ///< zone-major × outdoor input-splitting cells
};

/// Enumerates the subject leaves of the policy in tree order, writing the
/// total leaf count to `leaves_total`. `envelope` is a box over the policy's
/// schema (std::invalid_argument otherwise).
std::vector<IntervalWorkItem> interval_work_items(const DtPolicy& policy,
                                                  const VerificationCriteria& criteria,
                                                  const Box& envelope,
                                                  const IntervalVerifyConfig& config,
                                                  std::size_t& leaves_total);

/// Folds one leaf's per-cell images (in cell order) into its result. The
/// fold is serial and order-fixed, so the report is bit-identical however
/// the images were computed in parallel.
IntervalLeafResult fold_interval_leaf(const IntervalWorkItem& item,
                                      const std::vector<Interval>& images,
                                      const env::ComfortRange& comfort);

}  // namespace verihvac::core
