"""Store the program's values on the pinned input in reference_values.json.

    python3 perfbench/capture_reference.py

Runs the influence op on the pinned hitters-shaped input, checks it against
the independent numpy reference, and stores SRIS, ERIS, HRIS, the
correlations and both spectra.  Every benchmark run compares the program with
these stored values, so recapture only when a change to the outputs is meant.
"""

import json
import math
import shutil
import tempfile
from pathlib import Path

import workloads
from reference import VARIANTS
from run import OUT, load_package


def _none_for_nan(value):
    if isinstance(value, dict):
        return {k: _none_for_nan(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_none_for_nan(v) for v in value]
    return None if isinstance(value, float) and math.isnan(value) else value


def main() -> None:
    pkg = load_package()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        inp = workloads.pinned_hitters(workdir)
        workloads.run_influence(pkg, inp, workdir / "out")
        rep = workloads.read_report(workdir / "out", inp.x.shape[0])
        ref = workloads.reference.influence(inp.y_seen, inp.x, workloads.K,
                                            workloads.sampled_rows(inp.x.shape[0], workloads.PINNED_SEED))
        workloads.check_report(rep, ref)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {"hitters": _none_for_nan(workloads.pinned_view(rep))}
    with open(workloads.PINNED_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, allow_nan=False)
        fh.write("\n")
    print(f"wrote {workloads.PINNED_PATH} ({len(VARIANTS)} variants, n={inp.x.shape[0]})")


if __name__ == "__main__":
    main()
