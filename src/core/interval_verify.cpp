#include "core/interval_verify.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "dynamics/dataset.hpp"
#include "envlib/observation.hpp"
#include "weather/occupancy.hpp"

namespace verihvac::core {
namespace {

/// z-score is a monotone affine map per dimension, so an interval's image
/// is the interval of the endpoint images.
void normalize_box(const nn::Normalizer& norm, const Box& box, std::vector<Interval>& out) {
  out.resize(box.size());
  for (std::size_t d = 0; d < box.size(); ++d) {
    const double mean = norm.mean()[d];
    const double std = norm.std()[d];
    out[d] = Interval{(box[d].lo - mean) / std, (box[d].hi - mean) / std};
  }
}

}  // namespace

Interval interval_next_state(const dyn::DynamicsModel& model, const Box& model_input_box,
                             IntervalScratch& scratch) {
  if (!model.trained()) throw std::logic_error("interval_next_state: model not trained");
  if (model_input_box.size() != model.input_dims()) {
    throw std::invalid_argument("interval_next_state: box has " +
                                std::to_string(model_input_box.size()) +
                                " dims, model expects " +
                                std::to_string(model.input_dims()));
  }
  for (std::size_t d = 0; d < model_input_box.size(); ++d) {
    if (model_input_box[d].empty()) {
      throw std::invalid_argument("interval_next_state: empty box dimension");
    }
    if (!std::isfinite(model_input_box[d].lo) || !std::isfinite(model_input_box[d].hi)) {
      throw std::invalid_argument(
          "interval_next_state: unbounded box (clip to the certificate envelope first)");
    }
  }
  normalize_box(model.input_normalizer(), model_input_box, scratch.normalized);
  const auto& net_out = nn::propagate_bounds(model.network(), scratch.normalized, scratch.ibp);
  // predict(x) = x[s] + delta_mean + delta_std * net(norm(x)); delta_std > 0.
  const Interval delta{model.delta_mean() + model.delta_std() * net_out[0].lo,
                       model.delta_mean() + model.delta_std() * net_out[0].hi};
  const Interval& s = model_input_box[model.zone_temp_index()];
  return Interval{s.lo + delta.lo, s.hi + delta.hi};
}

std::vector<Interval> split_interval(const Interval& iv, double max_width) {
  const double width = iv.hi - iv.lo;
  if (!(width > 0.0)) return {Interval{iv.lo, iv.hi}};  // point (or empty) box
  const auto n = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(width / std::max(max_width, 1e-9))));
  std::vector<Interval> out;
  out.reserve(n);
  double lo = iv.lo;
  for (std::size_t k = 0; k < n; ++k) {
    // The last boundary is pinned to iv.hi exactly: lo + width*(k+1)/n can
    // round an ulp short of (or past) iv.hi, and an undershoot would drop
    // the top sliver of the leaf box from the certificate — an unsound gap.
    const double hi =
        k + 1 == n ? iv.hi : iv.lo + width * static_cast<double>(k + 1) / static_cast<double>(n);
    if (hi <= lo && k + 1 < n) continue;  // fp-collapsed boundary: widen the next cell
    out.push_back(Interval{lo, std::max(hi, lo)});
    lo = hi;
  }
  return out;
}

std::vector<IntervalWorkItem> interval_work_items(const DtPolicy& policy,
                                                  const VerificationCriteria& criteria,
                                                  const Box& envelope,
                                                  const IntervalVerifyConfig& config,
                                                  std::size_t& leaves_total) {
  const auto& tree = policy.tree();
  const env::FeatureSchema& schema = policy.schema();
  if (envelope.size() != schema.dims()) {
    throw std::invalid_argument("interval certification: envelope has " +
                                std::to_string(envelope.size()) + " dims, schema '" +
                                schema.name() + "' has " + std::to_string(schema.dims()));
  }
  const std::size_t zone_dim = schema.zone_temp_index();
  const std::size_t occ_dim = schema.occupancy_index();
  const std::size_t outdoor_dim = schema.index_of(env::FeatureRole::kOutdoorTemp);
  const std::size_t heat_col = schema.dims();
  const std::size_t cool_col = schema.dims() + 1;
  std::vector<IntervalWorkItem> items;
  leaves_total = 0;
  for (int leaf : tree.leaves()) {
    ++leaves_total;
    // Subject region of criterion #1: inside the certificate envelope AND
    // inside the comfort range AND occupied. A leaf whose region lies
    // entirely outside any of these (e.g. it requires more solar than the
    // envelope admits) is out of the certificate's scope.
    Box box = tree.leaf_box(leaf).intersect(envelope);
    box.clip(zone_dim, Interval::bounded(criteria.comfort.lo, criteria.comfort.hi));
    box.clip(occ_dim, Interval::greater(weather::kOccupiedThreshold));
    if (box.empty()) continue;

    // Append the leaf's action as degenerate interval dimensions.
    const auto label =
        static_cast<std::size_t>(tree.node(static_cast<std::size_t>(leaf)).label);
    const sim::SetpointPair action = policy.actions().action(label);
    Box model_box(schema.dims() + 2);
    for (std::size_t d = 0; d < schema.dims(); ++d) model_box.clip(d, box[d]);
    model_box.clip(heat_col, Interval::bounded(action.heating_c, action.heating_c));
    model_box.clip(cool_col, Interval::bounded(action.cooling_c, action.cooling_c));

    IntervalWorkItem item;
    item.leaf = leaf;
    item.zone_temp = box[zone_dim];
    for (const Interval& s_cell : split_interval(model_box[zone_dim], config.zone_slice_c)) {
      for (const Interval& o_cell :
           split_interval(model_box[outdoor_dim], config.outdoor_slice_c)) {
        Box cell = model_box;
        cell.clip(zone_dim, s_cell);
        cell.clip(outdoor_dim, o_cell);
        item.cells.push_back(std::move(cell));
      }
    }
    items.push_back(std::move(item));
  }
  return items;
}

IntervalLeafResult fold_interval_leaf(const IntervalWorkItem& item,
                                      const std::vector<Interval>& images,
                                      const env::ComfortRange& comfort) {
  IntervalLeafResult result;
  result.leaf = item.leaf;
  result.zone_temp = item.zone_temp;
  result.certified = true;
  result.next_state = Interval{std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  for (const Interval& image : images) {
    ++result.cells;
    const bool cell_ok = image.lo >= comfort.lo && image.hi <= comfort.hi;
    if (cell_ok) ++result.cells_certified;
    result.certified = result.certified && cell_ok;
    result.next_state.lo = std::min(result.next_state.lo, image.lo);
    result.next_state.hi = std::max(result.next_state.hi, image.hi);
  }
  return result;
}

}  // namespace verihvac::core
