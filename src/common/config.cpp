#include "common/config.hpp"

#include <algorithm>
#include <cstdlib>

namespace verihvac {

std::string env_or(const std::string& name, const std::string& fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr || *value == '\0') return fallback;
  return value;
}

long env_or_long(const std::string& name, long fallback) {
  const std::string raw = env_or(name, "");
  if (raw.empty()) return fallback;
  try {
    std::size_t consumed = 0;
    const long value = std::stol(raw, &consumed);
    return consumed == raw.size() ? value : fallback;
  } catch (...) {
    return fallback;
  }
}

double env_or_double(const std::string& name, double fallback) {
  const std::string raw = env_or(name, "");
  if (raw.empty()) return fallback;
  try {
    std::size_t consumed = 0;
    const double value = std::stod(raw, &consumed);
    return consumed == raw.size() ? value : fallback;
  } catch (...) {
    return fallback;
  }
}

bool env_flag(const std::string& name) {
  std::string raw = env_or(name, "");
  std::transform(raw.begin(), raw.end(), raw.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return raw == "1" || raw == "true" || raw == "on" || raw == "yes";
}

bool full_scale() { return env_flag("VERI_HVAC_FULL"); }

std::string output_dir() { return env_or("VERI_HVAC_OUT", "bench_out"); }

}  // namespace verihvac
