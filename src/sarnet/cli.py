"""Command-line surface: simulate, estimate, diagnose, select.

Results go to standard output (or --out); warnings and notes go to standard
error.  Exit status: 0 success, 1 usage error, 2 data error (missing or
malformed input files), 3 numerical failure.  A config file of ``key =
value`` lines supplies defaults for any long flag; explicit flags win.
Identical flags and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .estimation import first_stage, preliminary_delta, preliminary_rho, regularized_2sls
from .graphs import load_network
from .identification import AsymmetricMatrixError, build_report, distinct_eigenvalues
from .instruments import build_instruments, normalize_columns, q1_roster
from .montecarlo import McConfig, run_study, summarize
from .selection import _CRITERIA, curve_to_csv, select_alpha

__all__ = ["main"]

_STDERR_SE_NOTE = ("note: reported standard errors do not account for the "
                   "data-driven regularization choice")


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with status 2
        raise UsageError(message)


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _coerce_config(key: str, value: str, where: str) -> object:
    """One config value as its flag's type; a malformed value is a data error."""
    try:
        if key in {"groups", "size", "max_links", "reps", "seed", "order", "workers"}:
            return int(value)
        if key in {"tol", "weak_threshold"}:
            return float(value)
    except ValueError as exc:
        raise DataError(f"{where}: {key}: {exc}") from exc
    if key in {"transform_rho", "no_bonacich", "no_m_lags", "correlated"}:
        if value.lower() not in _BOOLEANS:
            raise DataError(f"{where}: {key}: {value!r} is not a boolean; use one of "
                            f"{', '.join(_BOOLEANS)} (any case)")
        return _BOOLEANS[value.lower()]
    return value


def _read_config_file(path: str) -> dict[str, object]:
    out: dict[str, object] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        out[key] = _coerce_config(key, value.strip(), f"{path}:{lineno}")
    return out


def _build_parser(defaults: dict[str, object]) -> _Parser:
    parser = _Parser(prog="sarnet", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="key = value file of flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo cell and print the summary table")
    sim.add_argument("--groups", type=int, default=30)
    sim.add_argument("--size", type=int, default=10)
    sim.add_argument("--max-links", type=int, default=3)
    sim.add_argument("--reps", type=int, default=500)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--criterion", choices=_CRITERIA, default="cp")
    sim.add_argument("--transform-rho", action="store_true",
                     help="whiten every estimator with the estimated rho")
    sim.add_argument("--format", choices=("text", "csv"), default="text")
    sim.add_argument("--workers", type=int, default=1,
                     help="process count (default 1; at most --reps start)")
    sim.add_argument("--out")

    def add_data_flags(p, need_data: bool):
        p.add_argument("--edges", required=True, help="edge CSV: group_id,src,dst,weight")
        p.add_argument("--data", required=need_data,
                       help="node CSV: group_id,node_id,x1...,x2...,y")
        p.add_argument("--m-edges", help="separate edge CSV for the disturbance matrix M")

    diag = sub.add_parser("diagnose", help="spectral identification report")
    add_data_flags(diag, need_data=False)
    diag.add_argument("--tol", type=float, default=1e-8,
                      help="relative eigenvalue clustering tolerance")
    diag.add_argument("--weak-threshold", type=float, default=1e6)
    diag.add_argument("--correlated", action="store_true",
                      help="use the correlated-disturbance stack (centrality columns and M copy)")
    diag.add_argument("--out")

    def add_estimation_flags(p):
        add_data_flags(p, need_data=True)
        p.add_argument("--scheme", choices=("T", "LF", "PC"), default="T")
        p.add_argument("--criterion", choices=_CRITERIA, default="cp")
        p.add_argument("--order", type=int, default=None,
                       help="highest network-lag power (default: distinct eigenvalues "
                            "of a symmetric W - 1, else 10)")
        p.add_argument("--no-bonacich", action="store_true",
                       help="drop the centrality instrument columns")
        p.add_argument("--no-m-lags", action="store_true",
                       help="drop the M-premultiplied instrument copy")
        p.add_argument("--normalize", choices=("none", "unit-variance", "standardized"),
                       default="unit-variance")
        p.add_argument("--out")

    est = sub.add_parser("estimate", help="regularized 2SLS on CSV data")
    add_estimation_flags(est)

    sel = sub.add_parser("select", help="export the regularization-selection curve as CSV")
    add_estimation_flags(sel)

    if defaults:
        actions = parser._actions + [a for p in sub.choices.values() for a in p._actions]
        unknown = set(defaults) - {a.dest for a in actions}
        if unknown:
            raise DataError(f"unknown config keys: {sorted(unknown)}")
        for a in actions:   # set_defaults bypasses argparse's choices check
            if a.choices is not None and a.dest in defaults \
                    and defaults[a.dest] not in a.choices:
                raise DataError(f"config key {a.dest}: {defaults[a.dest]!r} is not "
                                f"one of {', '.join(map(repr, a.choices))}")
        parser.set_defaults(**defaults)
        for p in sub.choices.values():
            p.set_defaults(**{k: v for k, v in defaults.items()
                              if k in {a.dest for a in p._actions}})
    return parser


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:       # a directory, a missing parent, no permission
        raise DataError(f"cannot write {out}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    for flag, value, low in (("--groups", args.groups, 1), ("--size", args.size, 1),
                             ("--max-links", args.max_links, 0), ("--reps", args.reps, 1),
                             ("--seed", args.seed, 0), ("--workers", args.workers, 1)):
        if value < low:
            kind = "positive" if low else "nonnegative"
            raise UsageError(f"{flag} must be a {kind} integer, got {value}")
    if args.max_links >= args.size:
        raise UsageError(f"--max-links must be below --size ({args.size}), "
                         f"got {args.max_links}")
    config = McConfig(group_count=args.groups, group_size=args.size,
                      max_links=args.max_links, replications=args.reps,
                      seed=args.seed, criterion=args.criterion,
                      transform_with_rho=args.transform_rho)
    results = run_study(config, workers=args.workers)
    summary = summarize(results, config)
    text = summary.to_csv() if args.format == "csv" else summary.to_text()
    _emit(text, args.out)
    return 0


def _load(args, need_data: bool):
    try:
        net, data = load_network(args.edges, getattr(args, "data", None), args.m_edges)
    except (OSError, ValueError) as exc:    # unreadable path or malformed file
        raise DataError(str(exc)) from exc
    if need_data and data is None:
        raise DataError("this command needs --data (node CSV)")
    return net, data


def _cmd_diagnose(args) -> int:
    for flag, value in (("--tol", args.tol), ("--weak-threshold", args.weak_threshold)):
        if not value >= 0.0:          # NaN compares false
            raise UsageError(f"{flag} must be a nonnegative number, got {value}")
    net, data = _load(args, need_data=False)
    X = data.regressors(net) if data is not None else None
    report = build_report(net, X, rho_zero=not args.correlated,
                          tol=args.tol, weak_threshold=args.weak_threshold)
    lines = [f"{report.verdict} ({report.distinct_eigenvalue_count} distinct eigenvalues)"]
    lines += report.lines()
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _prepare_estimation(args, need_count: bool):
    """Fit up to the selected alpha; also the distinct eigenvalue count d of W.

    d is computed once, if ``need_count`` or without ``--order``, and is None
    for a directed W.  The default order is d - 1 (higher powers add no span,
    by Cayley-Hamilton), or 10 for a directed W.
    """
    if args.order is not None and args.order < 1:     # a config value skips argparse
        raise UsageError(f"--order must be a positive integer, got {args.order}")
    net, data = _load(args, need_data=True)
    count = None
    if need_count or args.order is None:
        try:
            count, _ = distinct_eigenvalues(net)
        except AsymmetricMatrixError:
            pass
    order = args.order or (10 if count is None else max(count - 1, 1))
    X = data.regressors(net)
    q1 = q1_roster(net, X)
    delta_tilde = preliminary_delta(data, net, q1)
    rho_tilde = preliminary_rho(data, net, delta_tilde)
    inst = build_instruments(net, X, order,
                             include_bonacich=not args.no_bonacich,
                             include_M_lags=not args.no_m_lags)
    inst = normalize_columns(inst, args.normalize)
    sel = select_alpha(data, net, inst, args.scheme, args.criterion,
                       rho_tilde=rho_tilde, delta_tilde=delta_tilde)
    return net, data, inst, rho_tilde, sel, count


def _cmd_estimate(args) -> int:
    net, data, inst, rho_tilde, sel, count = _prepare_estimation(args, need_count=True)
    result = regularized_2sls(first_stage(data, net, inst, rho_tilde), sel.scheme)
    lines = [
        f"n = {net.n}",
        f"groups = {net.group_count}",
        f"instruments = {inst.n_columns}",
        f"scheme = {sel.kind}",
        f"criterion = {sel.criterion}",
        f"alpha_star = {sel.alpha_star:.6g}",
        f"lambda_hat = {result.lambda_hat:.6g}",
        f"lambda_se = {result.std_errors[0]:.6g}",
    ]
    for i, (b, se) in enumerate(zip(result.beta1_hat,
                                    result.std_errors[1:1 + result.k1])):
        lines.append(f"beta1_hat[{i}] = {b:.6g}")
        lines.append(f"beta1_se[{i}] = {se:.6g}")
    for i, (b, se) in enumerate(zip(result.beta2_hat,
                                    result.std_errors[1 + result.k1:])):
        lines.append(f"beta2_hat[{i}] = {b:.6g}")
        lines.append(f"beta2_se[{i}] = {se:.6g}")
    lines += [
        f"rho_tilde = {result.rho_tilde:.6g}",
        f"sigma2_hat = {result.sigma2_hat:.6g}",
        f"tr_P = {result.tr_P:.6g}",
        f"condition_number = {result.condition_number:.6g}",
        f"distinct_eigenvalues = {count if count is not None else '-'}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    print(_STDERR_SE_NOTE, file=sys.stderr)
    return 0


def _cmd_select(args) -> int:
    *_, sel, _ = _prepare_estimation(args, need_count=False)
    _emit(curve_to_csv(sel), args.out)
    print(f"alpha_star = {sel.alpha_star:.6g}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        defaults: dict[str, object] = {}
        if "--config" in argv:
            idx = argv.index("--config")
            if idx + 1 >= len(argv):
                raise UsageError("--config needs a path")
            defaults = _read_config_file(argv[idx + 1])
        parser = _build_parser(defaults)
        args = parser.parse_args(argv)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "diagnose":
            return _cmd_diagnose(args)
        if args.command == "estimate":
            return _cmd_estimate(args)
        return _cmd_select(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # argparse -h
        code = exc.code
        return int(code) if isinstance(code, int) else 0


if __name__ == "__main__":
    sys.exit(main())
