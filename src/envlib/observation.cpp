#include "envlib/observation.hpp"

#include <cmath>

#include "common/units.hpp"

namespace verihvac::env {

std::pair<double, double> time_of_day_encoding(std::size_t step) {
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  const double angle =
      kTwoPi * static_cast<double>(step % static_cast<std::size_t>(kStepsPerDay)) /
      static_cast<double>(kStepsPerDay);
  return {std::sin(angle), std::cos(angle)};
}

}  // namespace verihvac::env
