#!/usr/bin/env python3
"""Forbid new hard-coded observation-layout references in src/ (CI gate).

The observation layout is owned by ``env::FeatureSchema``
(src/envlib/feature_schema.hpp): code reads dimensions via
``schema.dims()`` and finds semantic columns via role lookup
(``zone_temp_index()``, ``occupancy_index()``, ``index_of(role)``).
Hard-coding ``env::kInputDims`` or the legacy ``InputDim`` enumerators
(``env::kZoneTemp`` .. ``env::kOccupancy``) re-bakes the baseline 6-dim
layout into a layer and silently breaks every non-baseline schema, so new
references outside the allowlisted legacy seams fail this check.

Allowlisted (each keeps a documented legacy-compat duty):

  * envlib/observation.*   — defines the legacy constants themselves,
  * envlib/feature_schema.* — the schema module (maps roles <-> legacy),
  * adapt/telemetry.hpp    — record defaults (the baseline obs_len).

bench/ and tests/ are intentionally out of scope: pinning the baseline
layout there is the point (bit-identity regressions).

Exit status is the number of violations (0 = clean).

Usage: tools/check_no_raw_dims.py [SRC_DIR]
"""
from __future__ import annotations

import re
import sys
from pathlib import Path

# \b keeps kOccupancyForecastSteps and friends out of the match.
RAW_DIM_RE = re.compile(
    r"\bkInputDims\b|\benv::k(?:ZoneTemp|OutdoorTemp|Humidity|Wind|Solar|Occupancy)\b"
)

ALLOWLIST = {
    "envlib/observation.hpp",
    "envlib/observation.cpp",
    "envlib/feature_schema.hpp",
    "envlib/feature_schema.cpp",
    "adapt/telemetry.hpp",
}


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    violations = 0
    for path in sorted(src.rglob("*")):
        if path.suffix not in {".hpp", ".cpp", ".h", ".cc"}:
            continue
        rel = path.relative_to(src).as_posix()
        if rel in ALLOWLIST:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            match = RAW_DIM_RE.search(line)
            if match:
                violations += 1
                print(f"{src / rel}:{lineno}: raw observation-layout reference "
                      f"'{match.group(0)}' — use the FeatureSchema role lookup instead")
    if violations:
        print(f"{violations} raw-dimension reference(s); the observation layout "
              "belongs to env::FeatureSchema (see src/envlib/feature_schema.hpp)")
    else:
        print("no raw observation-layout references outside the schema module")
    return violations


if __name__ == "__main__":
    sys.exit(main(sys.argv))
