// Runtime configuration knobs.
//
// Benches and examples scale their workloads through environment variables
// (e.g. VERI_HVAC_FULL=1 restores the paper-scale optimizer settings on a
// beefier machine). This header centralizes the lookup logic so every
// binary honours the same switches.
#pragma once

#include <cstdint>
#include <string>

namespace verihvac {

/// Returns the environment variable `name`, or `fallback` if unset/empty.
std::string env_or(const std::string& name, const std::string& fallback);

/// Integer / double / bool variants. A value that is not wholly a number
/// ("abc", "12abc", "1.5x") falls back.
long env_or_long(const std::string& name, long fallback);
double env_or_double(const std::string& name, double fallback);
bool env_flag(const std::string& name);  // true for "1", "true", "on", "yes"

/// True when VERI_HVAC_FULL is set: benches use the exact hyperparameters
/// from the paper (RS samples=1000, horizon=20, full Monte-Carlo repeats)
/// instead of the single-core-friendly defaults.
bool full_scale();

/// Output directory for experiment CSV artifacts (VERI_HVAC_OUT, default
/// "bench_out/"). Created on demand by callers via std::filesystem.
std::string output_dir();

}  // namespace verihvac
