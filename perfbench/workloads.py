"""The workloads: seeded inputs, one operation each, and its checks.

Every input is generated here with numpy and written as CSV in untimed
preparation, so the program only ever sees files.  A workload's reference is
computed once per run from the generated arrays by ``reference``; each
operation's output is then checked against it.  The warm-up and pinned
checks compare the program on fixed-seed inputs with values stored in
``reference_values.json`` when the benchmark was written.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_PATH = HERE / "reference_values.json"

#: the fixed seed of the pinned hitters-shaped input behind reference_values.json
PINNED_SEED = 1987
#: rank of every fit and report
K = 2
#: leave-one-out rows per run whose SRIS and HRIS are recomputed by refits
SAMPLED_ROWS = 6
#: points per axis of the CLI influence surface
SURFACE_GRID = 61

HITTERS_COLUMNS = (
    "AtBat", "Hits", "HmRun", "Runs", "RBI", "Walks", "Years", "CAtBat",
    "CHits", "CHmRun", "CRuns", "CRBI", "CWalks", "PutOuts", "Assists", "Errors",
)


class CheckFailed(Exception):
    """An output that does not match its reference."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def generate(shape: str, n: int, p: int, seed: int):
    """(y, x, column names, response name) of one seeded sample.

    cosine: y = cos(2 x1 - pi/4) + 0.5 e, the single-index model of the paper.
    hitters: a simulated stand-in for the 1987 hitters data, 16 predictors in
    mixed units and a positive salary whose log follows a two-index model.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, p))
    e = rng.standard_normal(n)
    if shape == "cosine":
        return np.cos(2.0 * z[:, 0] - math.pi / 4.0) + 0.5 * e, z, None, "y"
    scale = np.geomspace(1.0, 2000.0, p)
    x = scale * (3.0 + z)
    log_salary = 6.0 + 0.5 * z[:, 0] + 0.35 * (z[:, 1] ** 2 - 1.0) + 0.4 * e
    return np.exp(log_salary), x, HITTERS_COLUMNS[:p], "Salary"


def write_csv(path: Path, y, x, names, response: str) -> None:
    names = names or tuple(f"x{i + 1}" for i in range(x.shape[1]))
    np.savetxt(path, np.column_stack([y, x]), delimiter=",", fmt="%.17g",
               header=",".join((response, *names)), comments="")


class Input:
    """One generated CSV with the arrays the program should see in it."""

    def __init__(self, workdir: Path, tag: str, shape: str, n: int, p: int, seed: int):
        self.y, self.x, names, self.response = generate(shape, n, p, seed)
        self.log_response = shape == "hitters"
        self.path = workdir / f"{tag}.csv"
        write_csv(self.path, self.y, self.x, names, self.response)
        self.y_seen = np.log(self.y) if self.log_response else self.y

    def ingest_config(self, pkg):
        return pkg.ingest.IngestConfig(response_column=self.response,
                                       log_response=self.log_response)


# ----------------------------------------------------------------------
# influence outputs: report.json, records.csv, correlations.csv
# ----------------------------------------------------------------------

def _nan(values) -> list[float]:
    return [math.nan if v is None else float(v) for v in values]


def read_report(outdir: Path, n: int) -> dict:
    """The influence outputs in a directory, arrays indexed by observation."""
    with open(outdir / "report.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    recs = doc["records"]
    require(doc["n"] == n and len(recs) == n, f"report has {len(recs)} records, want {n}")
    order = [rec["j"] for rec in recs]
    require(sorted(order) == list(range(n)), "record indices are not a permutation of 0..n-1")
    out = {"order": order, "md": np.empty(n), "flags": [()] * n, "k": doc["k"]}
    for measure in ("sris", "eris", "hris"):
        out[measure] = {v: np.empty((n, doc["k"])) for v in reference.VARIANTS}
    for rec in recs:
        j = rec["j"]
        out["md"][j] = rec["md"]
        out["flags"][j] = tuple(rec["flags"])
        for measure in ("sris", "eris", "hris"):
            for v in reference.VARIANTS:
                out[measure][v][j] = _nan(rec[measure][v])
    out["correlations"] = {
        v: {t: _nan(row["directions"] + [row["average"]]) for t, row in doc["correlations"][v].items()}
        for v in reference.VARIANTS
    }
    out["eigenvalues"] = {v: np.array(doc["fits"][v]["eigenvalues"]) for v in reference.VARIANTS}
    for name, rows in (("records.csv", 2 * K * n), ("correlations.csv", 2 * 3 * (K + 1))):
        with open(outdir / name, encoding="utf-8") as fh:
            count = sum(1 for _ in fh) - 1
        require(count == rows, f"{name} has {count} rows, want {rows}")
    return out


def check_report(rep: dict, ref: dict) -> int:
    """Check read_report output against an influence reference; returns the
    number of flagged records."""
    n = len(rep["order"])
    for j in range(n):
        degenerate = "degenerate_leverage" in rep["flags"][j]
        for measure in ("sris", "hris"):
            for v in reference.VARIANTS:
                vals = rep[measure][v][j]
                if degenerate:
                    require(bool(np.all(np.isnan(vals))), f"flagged record {j} has finite {measure}")
                else:
                    require(bool(np.all(np.isfinite(vals))), f"unflagged record {j} has non-finite {measure}")
    avg = rep["sris"]["y"].mean(axis=1)[rep["order"]]
    finite = avg[np.isfinite(avg)]
    require(bool(np.all(np.diff(finite) >= 0)) and bool(np.all(np.isnan(avg[finite.size:]))),
            "records are not sorted by ascending y-based average SRIS")
    rows = ref["rows"]
    for v in reference.VARIANTS:
        require(reference.close(rep["eigenvalues"][v], ref["eigenvalues"][v]), f"{v} eigenvalues differ")
        require(reference.close(rep["eris"][v], ref["eris"][v]), f"{v} ERIS differs")
        require(reference.close(rep["sris"][v][rows], ref["sris"][v]), f"{v} SRIS differs")
        require(reference.close(rep["hris"][v][rows], ref["hris"][v]), f"{v} HRIS differs")
        targets = {"eris": rep["eris"][v], "hris": rep["hris"][v],
                   "md": np.repeat(rep["md"][:, None], rep["k"], axis=1)}
        sris = rep["sris"][v]
        for t, mat in targets.items():
            want = [reference.spearman(sris[:, i], mat[:, i]) for i in range(rep["k"])]
            want.append(reference.spearman(sris.mean(axis=1), mat.mean(axis=1)))
            require(reference.close(rep["correlations"][v][t], want), f"{v} spearman(SRIS, {t}) differs")
    return sum(1 for f in rep["flags"] if f)


def pinned_view(rep: dict) -> dict:
    """The part of an influence report stored in reference_values.json."""
    return {
        "eigenvalues": {v: rep["eigenvalues"][v].tolist() for v in reference.VARIANTS},
        "correlations": rep["correlations"],
        **{m: {v: rep[m][v].tolist() for v in reference.VARIANTS} for m in ("sris", "eris", "hris")},
    }


def check_pinned(got: dict, want: dict, what: str) -> None:
    """Compare values with the stored ones, key by key, within RTOL."""
    for key, value in want.items():
        if isinstance(value, dict):
            check_pinned(got[key], value, f"{what}.{key}")
        else:
            require(reference.close(_nan(np.ravel(got[key])), _nan(np.ravel(np.array(value, dtype=object)))),
                    f"{what}.{key} differs from the value stored at capture")


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def run_influence(pkg, inp: Input, outdir: Path) -> None:
    """ingest -> influence_report(k=2) -> the three writers."""
    d = pkg.ingest.ingest_csv(inp.path, inp.ingest_config(pkg))
    report = pkg.diagnostics.influence_report(d, K)
    outdir.mkdir()
    pkg.diagnostics.write_records_csv(outdir / "records.csv", report)
    pkg.diagnostics.write_correlations_csv(outdir / "correlations.csv", report)
    pkg.diagnostics.write_report_json(outdir / "report.json", report)


def sampled_rows(n: int, seed: int) -> list[int]:
    return sorted(np.random.default_rng(seed).choice(n, SAMPLED_ROWS, replace=False).tolist())


class InfluenceTall:
    """In-process influence pipeline on a 2000 x 16 cosine-index sample."""

    name = "influence_tall"
    in_process = True

    def __init__(self, pkg, workdir: Path, seed: int, n: int = 2000):
        self.pkg, self.workdir = pkg, workdir
        self.inp = Input(workdir, "tall", "cosine", n, 16, seed)
        self.ref = reference.influence(self.inp.y_seen, self.inp.x, K, sampled_rows(n, seed))
        self.op_dirs = (workdir / f"op{i}" for i in itertools.count())
        self.outdir = None

    def warm_up(self) -> None:
        """One untimed op on the pinned hitters input, checked against the
        stored values."""
        pinned_influence(self.pkg, self.workdir)

    def op(self) -> None:
        self.outdir = next(self.op_dirs)
        run_influence(self.pkg, self.inp, self.outdir)

    def check(self) -> int:
        """Check the last op's files, then delete them."""
        try:
            return check_report(read_report(self.outdir, self.inp.x.shape[0]), self.ref)
        finally:
            shutil.rmtree(self.outdir, ignore_errors=True)


class CliHitters:
    """Fresh `python -m phdinfluence` children: fit, influence and surface on
    a hitters-shaped 263 x 16 sample."""

    name = "cli_hitters"
    in_process = False

    def __init__(self, pkg, workdir: Path, seed: int, launcher):
        self.pkg, self.workdir, self.launcher = pkg, workdir, launcher
        self.inp = Input(workdir, "hitters", "hitters", 263, 16, seed)
        self.ref = reference.influence(self.inp.y_seen, self.inp.x, K, sampled_rows(263, seed))
        self.surface_ref = reference.surface(np.linspace(0.0, 3.0, SURFACE_GRID),
                                             np.linspace(-1.0, 1.0, SURFACE_GRID))
        self.op_dirs = (workdir / f"op{i}" for i in itertools.count())
        self.outdir = None
        self.child_seconds: dict[str, float] = {}
        self.child_maxrss_kb = 0

    def warm_up(self) -> None:
        """Untimed in-process check on the pinned input; the children are
        left cold on purpose."""
        pinned_influence(self.pkg, self.workdir)

    def commands(self) -> dict[str, list[str]]:
        ingest = ["--input", str(self.inp.path), "--response", "Salary", "--log-response"]
        return {
            "fit": ["fit", *ingest, "--variant", "y", "--k", str(K),
                    "--output-dir", str(self.outdir / "fit")],
            "influence": ["influence", *ingest, "--k", str(K),
                          "--output-dir", str(self.outdir / "influence")],
            "surface": ["surface", "--grid", str(SURFACE_GRID),
                        "--output-dir", str(self.outdir / "surface")],
        }

    def op(self, prefix_for=None) -> None:
        """Run the three commands in sequence.  ``prefix_for(command)``
        returns the argv prefix that replaces ``python -m phdinfluence``."""
        self.outdir = next(self.op_dirs)
        self.child_seconds = {}
        self.child_maxrss_kb = 0
        for command, args in self.commands().items():
            prefix = prefix_for(command) if prefix_for else [sys.executable, "-m", "phdinfluence"]
            child = self.launcher.run([*prefix, *args])
            self.child_seconds[command] = child["seconds"]
            self.child_maxrss_kb = max(self.child_maxrss_kb, child["maxrss_kb"])
            require(child["code"] == 0,
                    f"{command} exited with {child['code']}: {child['stderr'].strip()[-500:]}")

    def check(self) -> int:
        """Check the last op's files, then delete them."""
        try:
            return self._check_files()
        finally:
            shutil.rmtree(self.outdir, ignore_errors=True)

    def _check_files(self) -> int:
        fit_dir = self.outdir / "fit"
        for name in ("eigenvalues.csv", "basis.csv", "manifest.json"):
            require((fit_dir / name).is_file(), f"fit did not write {name}")
        with open(fit_dir / "eigenvalues.csv", encoding="utf-8") as fh:
            eig = [float(row["eigenvalue"]) for row in csv.DictReader(fh)]
        require(reference.close(eig, self.ref["eigenvalues"]["y"]), "fit eigenvalues differ")
        inf_dir = self.outdir / "influence"
        require((inf_dir / "manifest.json").is_file(), "influence did not write manifest.json")
        flagged = check_report(read_report(inf_dir, self.inp.x.shape[0]), self.ref)
        surf_dir = self.outdir / "surface"
        require((surf_dir / "manifest.json").is_file(), "surface did not write manifest.json")
        grid = np.loadtxt(surf_dir / "surface.csv", delimiter=",", skiprows=1, ndmin=2)
        require(grid.shape == (SURFACE_GRID**2, 4), f"surface.csv has shape {grid.shape}")
        for col, v in ((2, "y"), (3, "r")):
            require(reference.close(grid[:, col], self.surface_ref[v].ravel()), f"{v} surface differs")
        return flagged


def load_pinned() -> dict:
    with open(PINNED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def pinned_hitters(workdir: Path) -> Input:
    return Input(workdir, "hitters_pinned", "hitters", 263, 16, PINNED_SEED)


def pinned_influence(pkg, workdir: Path) -> None:
    """Influence op on the pinned hitters input, checked against the stored
    values and the independent reference."""
    inp = pinned_hitters(workdir)
    outdir = workdir / "pinned_out"
    run_influence(pkg, inp, outdir)
    rep = read_report(outdir, 263)
    check_report(rep, reference.influence(inp.y_seen, inp.x, K, sampled_rows(263, PINNED_SEED)))
    check_pinned(pinned_view(rep), load_pinned()["hitters"], "pinned hitters")


WORKLOADS = {w.name: w for w in (InfluenceTall, CliHitters)}
