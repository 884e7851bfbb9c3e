#include "dynamics/model_eval.hpp"

#include <cmath>
#include <stdexcept>

namespace verihvac::dyn {

double one_step_rmse(const DynamicsModel& model, const TransitionDataset& data) {
  if (data.empty()) throw std::invalid_argument("one_step_rmse: empty dataset");
  PredictScratch scratch;
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const Transition& t = data.at(i);
    const double pred = model.predict(t.input, t.action, scratch);
    sum_sq += (pred - t.next_zone_temp) * (pred - t.next_zone_temp);
  }
  return std::sqrt(sum_sq / static_cast<double>(data.size()));
}

}  // namespace verihvac::dyn
