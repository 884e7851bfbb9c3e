// Policy-bundle serialization: the deployable artifact.
//
// A decision tree alone is not a policy — decoding its class labels needs
// the action-space enumeration it was fitted against (heat/cool grids and
// the heat <= cool constraint): loading a bare tree against a *different*
// action grid silently re-maps every decision. The bundle, the one on-disk
// policy format, stores tree, action space AND observation schema,
// versioned:
//
//   verihvac-policy v3
//   fingerprint <16 hex digits>
//   schema <name> <n_features>
//   feature <name> <unit> <kind> <role> <lo> <hi>     (n_features lines)
//   <heat_min> <heat_max> <cool_min> <cool_max> <enforce_heat_le_cool>
//   verihvac-tree v1
//   ...
//
// Interval endpoints serialize as "inf"/"-inf" or with round-trip-exact
// precision, so write -> read -> write is byte-identical. Only v3 loads:
// the fingerprint is policy_fingerprint (schema + action grid + tree), and
// read_policy recomputes it over the decoded bundle and throws on
// mismatch, so a tampered or bit-rotted bundle is rejected at load instead
// of serving re-mapped decisions. The pre-fingerprint v1/v2 layouts are
// refused outright — accepting them would let an edited bundle skip the
// check by dropping its fingerprint line and relabelling its header.
// load_policy additionally validates that the embedded tree's class count
// matches the embedded action space, and its feature count the schema,
// throwing otherwise.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/dt_policy.hpp"

namespace verihvac::core {

/// Semantic fingerprint of a deployable bundle: FNV-1a 64 over the schema
/// (name, dims, every feature's name, unit, kind, role and bound bits), the
/// action grid and the tree's decision function (per node: feature,
/// threshold bits, children, label). Sealed into every v3 bundle.
std::uint64_t policy_fingerprint(const DtPolicy& policy);

void write_policy(const DtPolicy& policy, std::ostream& out);
DtPolicy read_policy(std::istream& in, const std::string& context = "<stream>");

void save_policy(const DtPolicy& policy, const std::string& path);
DtPolicy load_policy(const std::string& path);

}  // namespace verihvac::core
