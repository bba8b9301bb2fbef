"""Benchmark of phdinfluence: end-to-end times, cold start and per-layer spans.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload influence_tall --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload cli_hitters --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --smoke

Workloads (one closed-loop client; inputs are generated from --seed and
written as CSV before timing starts):

* influence_tall: in-process ingest -> influence_report(k=2) -> the three
  writers on a 2000 x 16 cosine-index sample.  The leave-one-out refits do
  most of the work here.
* cli_hitters: fresh `python -m phdinfluence` children, one op being
  `fit --variant y --k 2`, `influence --k 2` on a hitters-shaped 263 x 16
  CSV, then `surface --grid 61`.  Cold start outweighs compute here.

--trace 0 prints the end-to-end metrics: op_s_p50, the median time of one op;
op_s_tail, the highest nearest-rank percentile with at least ten samples
beyond it, or the maximum when no percentile at or above the median has ten;
setup_s, the median time of SETUP_SPAWNS fresh interpreters importing
phdinfluence; and peak_rss_mb, of this process or of the largest child for
cli_hitters.  The error rate is the result line's failed / attempted.

The three times are wall times rescaled to a reference machine speed.  On a
shared host the speed of each CPU can drift on its own for minutes at a
time, which moves raw wall times between two sets of runs of the same code
by more than any useful bound (figures in README.md).  So the whole run is
pinned to
one CPU with one BLAS thread, a fixed probe (speed_probe) is timed before and
after every timed interval, and each interval is multiplied by
REFERENCE_PROBE_S over the mean of its two probes.  The unscaled wall times
are printed and recorded beside them.

--trace 1 runs untraced and traced ops alternately and prints the per-layer
metrics, taken from spans recorded around the public calls (see tracing.py).
A traced op also calls sris() and hris() for both variants, since
influence_report does not go through them.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record with the environment block
is written to perfbench_out/ under the checkout, spans included when traced.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import types
from pathlib import Path

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"

#: fresh interpreters timed for setup_s in one run
SETUP_SPAWNS = 3
#: fresh interpreters timed for each of cli.interpreter_s and cli.import_s
TRACE_SPAWNS = 3
#: median time of speed_probe() on the machine the reference speed was taken
#: on: a shared 2-vCPU Intel Xeon virtual machine, Python 3.11, numpy 2.4
REFERENCE_PROBE_S = 0.024

END_TO_END_UNITS = {"op_s_p50": "s", "op_s_tail": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: per-layer time metric -> the spans whose inclusive times it sums
LAYER_TIMES = {
    "diagnostics.sris_s": ("diagnostics.sris",),
    "diagnostics.hris_s": ("diagnostics.hris",),
    "diagnostics.eris_s": ("diagnostics.eris",),
    "diagnostics.report_s": ("diagnostics.influence_report",),
    "diagnostics.correlations_s": ("diagnostics.spearman",),
    "ingest.busy_s": ("ingest.ingest_csv",),
    "moments.busy_s": ("moments.compute_moments",),
    "moments.mahalanobis_s": ("moments.mahalanobis",),
    "phd.fit_s": ("phd.fit_from_moments",),
    "serialize.write_s": ("diagnostics.write_records_csv", "diagnostics.write_correlations_csv",
                          "diagnostics.write_report_json"),
    "population.surface_s": ("population.influence_surface",),
}
LAYER_COUNTS = {
    "linalg.eigh_calls": "count",
    "linalg.eigh_matrices": "count",
    "ingest.rows": "count",
    "ingest.bytes_in": "B",
    "serialize.bytes_out": "B",
    "population.cells": "count",
}
CLI_COMMANDS = ("fit", "influence", "surface")
WORKLOADS = ("influence_tall", "cli_hitters")


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest nearest-rank
    percentile with at least ten samples above it.  Below 21 samples that
    percentile would lie under the median, so the maximum is used instead."""
    ordered = sorted(samples)
    i = len(ordered) - 11 if len(ordered) >= 21 else len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def speed_probe() -> float:
    """Median wall time of five runs of a fixed mix of interpreter work and
    small numpy calls.  It uses nothing from phdinfluence, so only the
    machine's current speed moves it."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 8000).reshape(500, 16)
    eye = np.eye(16)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(130):
            xc = x - x.mean(axis=0)
            np.linalg.solve(xc.T @ xc + eye, xc[0])
            acc = 0
            for i in range(1500):
                acc += i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment(seed: int, cpu: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": NPROC,
        "cpu": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "platform": platform.platform(),
    }


def load_package() -> types.SimpleNamespace:
    """The checkout's phdinfluence modules; exits when the checkout has none."""
    if not (SRC / "phdinfluence" / "__init__.py").is_file():
        sys.exit(f"perfbench: no phdinfluence sources under {SRC}")
    sys.path.insert(0, str(SRC))
    pkg = types.SimpleNamespace(
        **{m: importlib.import_module(f"phdinfluence.{m}")
           for m in ("ingest", "moments", "phd", "diagnostics", "population")}
    )
    if SRC.resolve() not in Path(pkg.phd.__file__).resolve().parents:
        sys.exit(f"perfbench: imported phdinfluence from {pkg.phd.__file__}, not {SRC}")
    return pkg


class Runner:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, smoke: bool = False):
        import workloads
        from launcher import Launcher

        self.pkg = load_package()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.seconds = seconds
        self.smoke = smoke
        OUT.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
        self.launcher = Launcher(self.env, str(ROOT), str(self.workdir))
        cls = workloads.WORKLOADS[workload]
        if cls.in_process:
            self.wl = cls(self.pkg, self.workdir, seed, **({"n": 300} if smoke else {}))
        else:
            self.wl = cls(self.pkg, self.workdir, seed, self.launcher)
        self.attempted = 0
        self.failed = 0
        self.child_peaks_kb: list[int] = []
        self.errors: list[str] = []

    def close(self) -> None:
        try:
            self.launcher.close()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def spawn_seconds(self, code: str) -> float:
        """Wall time of a fresh interpreter running ``code``."""
        child = self.launcher.run([sys.executable, "-c", code])
        if child["code"] != 0:
            raise RuntimeError(f"{code!r} exited with {child['code']}: {child['stderr'][-500:]}")
        return child["seconds"]

    def guarded(self, what: str, fn):
        """Run fn; an exception is recorded as a failure and returns None."""
        try:
            return fn()
        except Exception:  # the benchmark keeps running and reports the failure
            self.errors.append(f"{what}: {traceback.format_exc(limit=3)}")
            print(self.errors[-1], file=sys.stderr)
            return None

    def attempt(self, op) -> tuple[float, int] | None:
        """One timed op followed by its untimed check: (seconds, flagged
        records), or None when it failed."""
        self.attempted += 1

        def timed():
            t0 = time.perf_counter()
            op()
            seconds = time.perf_counter() - t0
            return seconds, self.wl.check()

        result = self.guarded(f"op {self.attempted}", timed)
        if result is None:
            self.failed += 1
        return result

    def warm_up(self) -> bool:
        return self.guarded("warm-up and pinned check", lambda: self.wl.warm_up() or True) is True

    # ------------------------------------------------------------------
    def untraced(self) -> dict:
        """Each timed interval is scaled by REFERENCE_PROBE_S over the mean of
        the speed probes taken just before and just after it."""
        spawns = 1 if self.smoke else SETUP_SPAWNS
        speed_probe()  # the first call pays numpy's lazy set-up
        probe = speed_probe()
        setup, setup_ref, factors = [], [], []

        def scaled(seconds: float) -> float:
            nonlocal probe
            after = speed_probe()
            factors.append(REFERENCE_PROBE_S / ((probe + after) / 2.0))
            probe = after
            return seconds * factors[-1]

        for _ in range(spawns):
            setup.append(self.spawn_seconds("import phdinfluence"))
            setup_ref.append(scaled(setup[-1]))
        warm = self.warm_up()
        probe = speed_probe()
        samples, samples_ref = [], []
        deadline = time.perf_counter() + self.seconds
        while True:
            result = self.attempt(self.wl.op)
            if result is not None:
                samples.append(result[0])
                samples_ref.append(scaled(result[0]))
                self.child_peaks_kb.append(getattr(self.wl, "child_maxrss_kb", 0))
            if time.perf_counter() >= deadline:
                break
        if self.wl.in_process:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            peak_kb = max(self.child_peaks_kb, default=float("nan"))
        if not samples:
            samples = samples_ref = [float("nan")]
        tail_value, tail_pct, beyond = tail(samples_ref)
        values = {
            "op_s_p50": statistics.median(samples_ref),
            "op_s_tail": tail_value,
            "setup_s": statistics.median(setup_ref),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        details = {
            "op_wall_s_p50": statistics.median(samples),
            "op_wall_s_tail": tail(samples)[0],
            "setup_wall_s": statistics.median(setup),
            "speed_factor_p50": statistics.median(factors),
            "op_wall_samples_s": samples,
            "op_samples_s": samples_ref,
            "tail_percentile": tail_pct,
            "tail_samples_beyond": beyond,
            "setup_wall_samples_s": setup,
            "error_rate": self.failed / self.attempted,
        }
        return {"ok": warm, "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                                        for k, v in values.items()}, "details": details}

    # ------------------------------------------------------------------
    def traced_op(self, probe):
        """One op under a fresh tracer; the layers probe runs after the
        pipeline's counters are taken."""
        from tracing import Tracer

        tracer = Tracer()
        run = {}
        spans_files = []

        def child_prefix(command: str) -> list[str]:
            spans_files.append(self.workdir / f"spans-{command}.json")
            return [sys.executable, str(HERE / "child.py"), str(spans_files[-1])]

        def op():
            tracer.install()
            try:
                with tracer.span("pipeline") as span:
                    if self.wl.in_process:
                        self.wl.op()
                    else:
                        self.wl.op(prefix_for=child_prefix)
                        for path in spans_files:
                            with open(path, encoding="utf-8") as fh:
                                child = json.load(fh)
                            tracer.absorb(child["spans"], child["counts"])
                run["pipeline_s"] = span["end"] - span["start"]
                run["counts"] = dict(tracer.counts)
                with tracer.span("layers"):
                    probe()
            finally:
                tracer.uninstall()

        result = self.attempt(op)
        return result, tracer, run

    def probe_fn(self):
        """sris() and hris() for both variants on the workload's dataset,
        checked on the sampled rows."""
        from reference import VARIANTS, close
        from workloads import K, require

        inp = self.wl.inp
        d = self.pkg.ingest.ingest_csv(inp.path, inp.ingest_config(self.pkg))
        m = self.pkg.moments.compute_moments(d)
        fits = {v: self.pkg.phd.fit_from_moments(m, v, K) for v in VARIANTS}
        rows = self.wl.ref["rows"]

        def probe():
            for v in VARIANTS:
                s = self.pkg.diagnostics.sris(d, fits[v])
                h = self.pkg.diagnostics.hris(d, fits[v], m)
                require(close(s[rows], self.wl.ref["sris"][v]), f"{v} sris() differs")
                require(close(h[rows], self.wl.ref["hris"][v]), f"{v} hris() differs")

        return probe

    def traced(self) -> dict:
        from tracing import totals

        spawns = 1 if self.smoke else TRACE_SPAWNS
        interpreter = [self.spawn_seconds("pass") for _ in range(spawns)]
        imports = [self.spawn_seconds("import phdinfluence") for _ in range(spawns)]
        warm = self.warm_up()
        probe = self.probe_fn()
        plain, children, per_op, dumps = [], {c: [] for c in CLI_COMMANDS}, [], []
        deadline = time.perf_counter() + self.seconds
        while True:
            result = self.attempt(self.wl.op)
            if result is not None:
                plain.append(result[0])
                for command, seconds in getattr(self.wl, "child_seconds", {}).items():
                    children[command].append(seconds)
            result, tracer, run = self.traced_op(probe)
            if result is not None:
                sums = totals(tracer.spans)
                row = {name: sum(sums.get(s, {}).get("total_s", 0.0) for s in spans)
                       for name, spans in LAYER_TIMES.items()}
                row.update({name: run["counts"].get(name, 0) for name in LAYER_COUNTS})
                row["diagnostics.flagged_obs"] = result[1]
                row["pipeline_s"] = run["pipeline_s"]
                per_op.append(row)
                dumps.append({"spans": tracer.spans, "counts": run["counts"], "totals": sums})
            if time.perf_counter() >= deadline:
                break
        nan = float("nan")
        values = {name: statistics.median(r[name] for r in per_op) if per_op else nan
                  for name in (*LAYER_TIMES, *LAYER_COUNTS, "diagnostics.flagged_obs")}
        values["cli.interpreter_s"] = statistics.median(interpreter)
        values["cli.import_s"] = statistics.median(imports)
        for command in CLI_COMMANDS:
            values[f"cli.{command}_s"] = statistics.median(children[command]) if children[command] else 0.0
        values["trace.overhead_s"] = (
            statistics.median(r["pipeline_s"] for r in per_op) - statistics.median(plain)
            if per_op and plain else nan
        )
        units = {name: "s" for name in values if name.endswith("_s")}
        units.update(LAYER_COUNTS)
        units["diagnostics.flagged_obs"] = "count"
        metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
        details = {"untraced_op_samples_s": plain, "traced_ops": dumps,
                   "error_rate": self.failed / self.attempted}
        return {"ok": warm, "metrics": metrics, "details": details}


def run_one(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    runner = Runner(workload, seed, seconds, smoke)
    try:
        out = runner.traced() if trace else runner.untraced()
    finally:
        runner.close()
    out.update(attempted=runner.attempted, failed=runner.failed, errors=runner.errors)
    out["correct"] = bool(out["ok"] and runner.failed == 0 and all(
        v["value"] == v["value"] for v in out["metrics"].values()))
    return out


def summary_lines(workload: str, out: dict) -> list[str]:
    lines = [f"perfbench {workload}: correct={out['correct']} "
             f"attempted={out['attempted']} failed={out['failed']}"]
    for name, m in out["metrics"].items():
        lines.append(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    d = out["details"]
    if "tail_percentile" in d:
        lines.append(f"  op samples {len(d['op_samples_s'])}; tail is p{d['tail_percentile']:.4g} "
                     f"with {d['tail_samples_beyond']} samples beyond it")
        for name in ("op_wall_s_p50", "op_wall_s_tail", "setup_wall_s"):
            lines.append(f"  {name:28s} {d[name]:.6g} s (unscaled)")
        lines.append(f"  {'speed_factor_p50':28s} {d['speed_factor_p50']:.6g}")
    lines.append(f"  {'error_rate':28s} {d['error_rate']:.6g} ({out['failed']}/{out['attempted']})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once with its checks, influence_tall at n=300")
    args = parser.parse_args(argv)
    # Everything runs on one CPU, children included, with one BLAS thread,
    # set before numpy loads.  The speed probe then measures the CPU the
    # work ran on: on a shared host each CPU's speed drifts on its own.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    for var in THREAD_VARS:
        os.environ[var] = "1"

    if args.smoke:
        ok = True
        for workload in WORKLOADS:
            out = run_one(workload, args.seed, 0.0, 0, smoke=True)
            print("\n".join(summary_lines(workload, out)))
            ok = ok and out["correct"]
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required")

    out = run_one(args.workload, args.seed, args.seconds, args.trace)
    env = environment(args.seed, cpu)
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": env, **out}
    kind = "trace" if args.trace else "result"
    with open(OUT / f"{kind}-{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print("env: " + json.dumps(env, sort_keys=True))
    print("\n".join(summary_lines(args.workload, out)))
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
