"""Command-line surface.

Subcommands: fit, influence, surface, simulate, validate-constants.  Every
run writes its numeric artifacts plus a manifest.json recording the resolved
configuration, seeds, input digest and timestamps, so identical inputs can be
shown to reproduce identical numeric files.  A command returns its exit code,
its configuration (read off the objects it ran) and the paths it wrote;
``main`` writes the manifest from them.

Exit codes: 0 success, 1 validation failure (validate-constants), 2 usage
error, 3 data error, 4 numeric degeneracy.  Errors go to stderr as one-line
JSON records.

numpy and the numeric modules are imported lazily (the package itself loads
neither), so ``main`` sets the BLAS thread variables from the parsed --threads
value before a subcommand starts numpy; once numpy is loaded (library use) the
cap is a no-op.  manifest.json records the thread variables the run saw.  All
numeric kernels here are deterministic regardless, and --threads 1 output is
byte-identical to any other setting.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import InvalidArgument, PhdError

try:  # from _sha2 on 3.12+, from _sha256 on 3.10/3.11: hashlib would load OpenSSL
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

_THREAD_ENV_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


#: what a command returns: its exit code, its config and the paths it wrote
_Ran = tuple[int, dict, list[Path]]


def _sha256_file(path) -> str:
    h = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(args, started_at: str, config: dict, outputs: list[Path]) -> None:
    """Write manifest.json next to the outputs of a command that ran.

    ``config`` is read off the objects the command ran; ``thread_env`` holds
    the BLAS thread variables as the run saw them, after any --threads cap
    (None where unset)."""
    input_path = getattr(args, "input", None)
    manifest = {
        "command": args.command,
        "config": config,
        "config_sha256": sha256(json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "seed": config.get("seed"),
        "version": __version__,
        "thread_env": {var: os.environ.get(var) for var in _THREAD_ENV_VARS},
        "input": None if input_path is None else {
            "path": str(input_path), "sha256": _sha256_file(input_path)
        },
        "outputs": [path.name for path in outputs],
        "started_at": started_at,
        "finished_at": _utcnow(),
    }
    with open(Path(args.output_dir) / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _outdir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset(args):
    """The dataset and its manifest config: the IngestConfig fields, the
    predictors they resolved to, n and p."""
    from .ingest import IngestConfig, ingest_csv

    cfg = IngestConfig(
        response_column=args.response,
        log_response=args.log_response,
        drop_rows_with_missing_response=not args.keep_missing_response,
        predictor_columns=None if args.predictors is None else tuple(
            name.strip() for name in args.predictors.split(",")
        ),
        delimiter=args.delimiter,
    )
    dataset = ingest_csv(args.input, cfg)
    config = asdict(cfg) | {
        "predictors_resolved": list(dataset.names), "n": dataset.n, "p": dataset.p
    }
    return dataset, config


def cmd_fit(args) -> _Ran:
    from .phd import fit_phd

    dataset, config = _load_dataset(args)
    fit = fit_phd(dataset, args.variant, args.k)

    out = _outdir(args)

    eig_path = out / "eigenvalues.csv"
    with open(eig_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("index,eigenvalue,abs_eigenvalue,abs_ratio_to_next\n")
        vals = fit.eig.values
        for i, lam in enumerate(vals):
            if i + 1 < len(vals) and abs(vals[i + 1]) > 0:
                ratio = f"{abs(lam) / abs(vals[i + 1]):.17g}"
            else:
                ratio = ""
            fh.write(f"{i + 1},{lam:.17g},{abs(lam):.17g},{ratio}\n")

    basis_path = out / "basis.csv"
    with open(basis_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("predictor," + ",".join(f"direction{i + 1}" for i in range(args.k)) + "\n")
        rows = csv.writer(fh, lineterminator="\n")  # quotes a name only where csv needs it
        for r, name in enumerate(dataset.names):
            rows.writerow([name, *(f"{fit.gamma_hat.columns[r, c]:.17g}" for c in range(args.k))])

    print(f"fit: variant={args.variant} n={dataset.n} p={dataset.p} k={args.k}")
    shown = ", ".join(f"{v:.6g}" for v in fit.eig.values[: min(5, dataset.p)])
    print(f"leading eigenvalues: {shown}")
    return 0, config | {"variant": args.variant, "k": args.k}, [eig_path, basis_path]


def cmd_influence(args) -> _Ran:
    from .diagnostics import (
        influence_report,
        write_correlations_csv,
        write_records_csv,
        write_report_json,
    )

    dataset, config = _load_dataset(args)
    report = influence_report(dataset, args.k)

    out = _outdir(args)
    records_path = out / "records.csv"
    write_records_csv(records_path, report)
    corr_path = out / "correlations.csv"
    write_correlations_csv(corr_path, report)
    json_path = out / "report.json"
    write_report_json(json_path, report)

    print(f"influence: n={report.n} p={report.p} k={report.k}")
    for v in ("y", "r"):
        row = report.correlations[v]
        print(
            f"  {v}-based spearman(SRIS, .) avg-direction: "
            f"eris={row['eris'][-1]:.3f} hris={row['hris'][-1]:.3f} md={row['md'][-1]:.3f}"
        )
    return 0, config | {"k": args.k}, [records_path, corr_path, json_path]


def cmd_surface(args) -> _Ran:
    import numpy as np

    from .population import influence_surface, write_surface_csv

    if args.grid < 1:
        raise InvalidArgument(f"--grid must be at least 1, got {args.grid}")
    if not (math.isfinite(args.norm_max) and args.norm_max >= 0):
        raise InvalidArgument(f"--norm-max must be finite and nonnegative, got {args.norm_max}")
    if args.p < 2:
        raise InvalidArgument(f"--p must be at least 2 for the cosine example, got {args.p}")
    norms = np.linspace(0.0, args.norm_max, args.grid)
    costhetas = np.linspace(-1.0, 1.0, args.grid)
    grid_y = influence_surface(args.p, "y", norms, costhetas)
    grid_r = influence_surface(args.p, "r", norms, costhetas)

    surf_path = _outdir(args) / "surface.csv"
    write_surface_csv(surf_path, norms, costhetas, grid_y, grid_r)

    print(f"surface: {args.grid}x{args.grid} grid written to {surf_path}")
    return 0, {"norm_max": args.norm_max, "grid": args.grid, "p": args.p}, [surf_path]


def cmd_simulate(args) -> _Ran:
    import numpy as np

    from .ingest import write_dataset_csv
    from .simulation import SimSpec, simulate

    beta = None
    if args.beta is not None:
        try:
            vectors = [[float(v) for v in part.split(",")] for part in args.beta.split(";")]
            beta = np.array(vectors).T
        except ValueError:
            raise InvalidArgument(
                "--beta must be ';'-separated index vectors of comma-separated numbers, "
                f"all of one length, got {args.beta!r}"
            ) from None
    spec = SimSpec(
        model=args.model,
        n=args.n,
        p=args.p,
        seed=args.seed,
        sigma=args.sigma,
        beta=beta,
        link=args.link,
    )
    dataset = simulate(spec)

    data_path = _outdir(args) / "dataset.csv"
    write_dataset_csv(data_path, dataset)

    print(f"simulate: wrote n={dataset.n} p={dataset.p} rows to {data_path}")
    return 0, asdict(spec) | {"beta": spec.beta.tolist()}, [data_path]


def cmd_validate_constants(args) -> _Ran:
    from .population import cosine_model_constants
    from .simulation import mc_constants

    est = mc_constants(args.n, args.seed, args.sigma)
    mu_y, cov_zy, lam1 = cosine_model_constants()
    wrong_lam1 = -cov_zy  # the factor-two-off eigenvalue the validator must reject

    checks = [
        ("mu_y", est.mu_y, est.se_mu_y, mu_y, None),
        ("cov_zy", est.cov_zy, est.se_cov_zy, cov_zy, None),
        ("lambda1", est.lambda1, est.se_lambda1, lam1, wrong_lam1),
    ]

    all_pass = True
    results = []
    for name, value, se, target, excluded in checks:
        z = (value - target) / se
        ok = abs(z) <= 3.0
        lines = [f"{'PASS' if ok else 'FAIL'} {name}: estimate {value:.7f} "
                 f"target {target:.7f} z {z:+.2f} (3 s.e. band)"]
        result = {
            "name": name,
            "estimate": value,
            "se": se,
            "target": target,
            "z": z,
            "pass": ok,
        }
        if excluded is not None:
            z_ex = (value - excluded) / se
            ok_ex = abs(z_ex) > 3.0
            lines.append(
                f"{'PASS' if ok_ex else 'FAIL'} {name}: excludes {excluded:.7f} "
                f"z {z_ex:+.2f}"
            )
            result["excluded_value"] = excluded
            result["excluded_z"] = z_ex
            result["excludes"] = ok_ex
            ok = ok and ok_ex
        all_pass = all_pass and ok
        results.append(result)
        for line in lines:
            print(line)

    report_path = _outdir(args) / "constants.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"n_mc": args.n, "sigma": args.sigma, "seed": args.seed,
             "results": results, "all_pass": all_pass},
            fh, indent=2, allow_nan=False,
        )
        fh.write("\n")
    config = {"n": args.n, "sigma": args.sigma, "seed": args.seed}
    return (0 if all_pass else 1), config, [report_path]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output-dir", default=".", help="directory for output files")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="cap internal thread pools; output is byte-identical for any value",
    )


def _add_ingest_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="input CSV path")
    parser.add_argument("--response", required=True, help="response column name or index")
    parser.add_argument(
        "--log-response", action="store_true", help="use the natural log of the response"
    )
    parser.add_argument(
        "--keep-missing-response",
        action="store_true",
        help="error on missing responses instead of dropping those rows",
    )
    parser.add_argument(
        "--predictors",
        default=None,
        help="comma-separated predictor columns (default: all numeric except response)",
    )
    parser.add_argument("--delimiter", default=",", help="field delimiter")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phdinfluence",
        description="Principal Hessian directions with influence diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one PHD variant, write the eigensystem")
    _add_ingest_flags(p_fit)
    p_fit.add_argument("--variant", choices=("y", "r"), required=True)
    p_fit.add_argument("--k", type=int, required=True, help="reduction rank")
    _add_common(p_fit)
    p_fit.set_defaults(handler=cmd_fit)

    p_inf = sub.add_parser(
        "influence", help="SRIS/ERIS/HRIS and Mahalanobis diagnostics for both variants"
    )
    _add_ingest_flags(p_inf)
    p_inf.add_argument("--k", type=int, required=True, help="reduction rank")
    _add_common(p_inf)
    p_inf.set_defaults(handler=cmd_influence)

    p_surf = sub.add_parser(
        "surface", help="influence surface of the cosine single-index example"
    )
    p_surf.add_argument("--norm-max", type=float, default=3.0)
    p_surf.add_argument("--grid", type=int, default=61, help="points per axis")
    p_surf.add_argument("--p", type=int, default=3, help="predictor dimension")
    _add_common(p_surf)
    p_surf.set_defaults(handler=cmd_surface)

    p_sim = sub.add_parser("simulate", help="draw a seeded dataset and write it as CSV")
    p_sim.add_argument(
        "--model",
        choices=("cosine_index", "quadratic_first", "linear_index", "custom_index"),
        default="cosine_index",
    )
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--p", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--sigma", type=float, default=1.0)
    p_sim.add_argument("--beta", default=None, help="index vector of p comma-separated "
                       "numbers; custom_index takes K of them, separated by ';'")
    p_sim.add_argument("--link", default=None, help="link name for custom_index")
    _add_common(p_sim)
    p_sim.set_defaults(handler=cmd_simulate)

    p_val = sub.add_parser(
        "validate-constants",
        help="Monte Carlo check of the cosine-model constants",
    )
    p_val.add_argument("--n", type=int, default=10_000_000)
    p_val.add_argument("--seed", type=int, default=7)
    p_val.add_argument("--sigma", type=float, default=0.5)
    _add_common(p_val)
    p_val.set_defaults(handler=cmd_validate_constants)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started_at = _utcnow()
    try:
        if args.threads is not None:
            if args.threads < 1:
                raise InvalidArgument(f"--threads must be at least 1, got {args.threads}")
            if "numpy" not in sys.modules:
                os.environ.update(dict.fromkeys(_THREAD_ENV_VARS, str(args.threads)))
        code, config, outputs = args.handler(args)
        _write_manifest(args, started_at, config, outputs)
        return code
    except (PhdError, OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return exc.exit_code if isinstance(exc, PhdError) else 3


def entrypoint() -> None:
    sys.exit(main())
