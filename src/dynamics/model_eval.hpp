// Dynamics-model quality metric: one-step RMSE on held-out transitions.
#pragma once

#include "dynamics/dynamics_model.hpp"

namespace verihvac::dyn {

/// Root-mean-square one-step prediction error [degC] over a dataset.
double one_step_rmse(const DynamicsModel& model, const TransitionDataset& data);

}  // namespace verihvac::dyn
