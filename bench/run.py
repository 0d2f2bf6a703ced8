"""Benchmark of the sarnet pipeline: Monte Carlo replications and CLI calls.

Run from the repository root; the package is imported from ``src/``:

    python3 bench/run.py --workload mc_bench_cell --seed 1 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 0
    python3 bench/run.py --record-reference      # rewrite bench/reference.json
    python3 bench/smoke.py                       # tiny-size self test

One workload runs in one process, single-threaded (BLAS pinned to one
thread, no worker processes), as a closed loop: the next operation starts
when the previous one returns, until ``--seconds`` (by default the
``run_seconds`` of BENCHMARK.json) have passed.  An op is one Monte Carlo
replication or one in-process CLI call.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:
the fastest op, peak RSS, and set-up time (imports plus the median of three
rounds of input generation and a warm-up op).  The fastest op is the gated
timing because the machines this runs on are shared: their speed changes by
about a third for minutes at a time, which moves the median and mean of a
whole run more than the fastest op.  Ops that raised, exited nonzero or had
a failed estimator fit are left out of it.  The median and
90th percentile op time, throughput (including ``summarize``) and the share
of failed fits are printed as well, not gated.

With ``--trace 1`` every other op runs with the span wrappers of
``spans.py`` installed; the run reports the per-layer metrics of those ops,
and the tracing overhead as the traced minus the untraced median op time.

The outputs are checked against ``reference.json``; a mismatch prints the
differences on stderr and exits 1.  The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it holds
the environment, the workload's purpose and the figures that are not gated.
``--workload all`` runs every workload in its own process and derives the
G-scaling exponent from the two Monte Carlo workloads.
"""

import os

# pin every BLAS to one thread before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
#: ops needed before the percentile is reported (ten samples beyond it)
P90_MIN_OPS = 100


def import_package() -> float:
    """Import numpy, scipy and sarnet from ``src/``; return the seconds taken."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import numpy  # noqa: F401
        import scipy  # noqa: F401
        import sarnet
        import sarnet.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import sarnet from {SRC}: {exc}")
    if Path(sarnet.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"bench: sarnet was imported from {sarnet.__file__}, not {SRC}")
    return time.perf_counter() - start


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def environment() -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workers": 1,
    }


def src_lines(module: str) -> int:
    path = SRC / "sarnet" / f"{module}.py"
    return len(path.read_text().splitlines()) if path.exists() else 0


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------

def quiet():
    """The program's notes and warnings go to stderr; keep them off the report."""
    return contextlib.redirect_stderr(io.StringIO())


def set_up(workload, case, workdir, scale):
    """SETUP_REPEATS rounds of input generation plus one warm-up op."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with quiet():
            state = workload.setup(case, workdir, scale)
            workload.collect(state, workload.op(state, 0))
        samples.append(time.perf_counter() - start)
    return state, samples


def measure(workload, state, seconds, tracer):
    """Closed loop of ops for ``seconds``; with a tracer, every even op is traced."""
    import spans

    times, traced, results, crashes, clean = [], [], [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        trace_this = tracer is not None and i % 2 == 0
        t0 = time.perf_counter()
        try:
            with quiet():
                if trace_this:
                    tracer.op = i
                    with spans.installed(tracer), tracer.span(workload.root_span):
                        raw = workload.op(state, i)
                else:
                    raw = workload.op(state, i)
        except Exception:   # keep measuring; the op counts as failed
            raw = None
            crashes.append(traceback.format_exc())
        t1 = time.perf_counter()
        times.append(t1 - t0)
        traced.append(trace_this)
        if raw is not None:
            results.append(workload.collect(state, raw))
        clean.append(raw is not None and not workload.failed_fits(results[-1]))
        i += 1
        enough = i >= max(workload.check_ops, 2 if tracer else 1)
        if t1 - start >= seconds and enough:
            break
    finished = None
    if results:
        if tracer is not None and workload.finish_span:
            with tracer.span(workload.finish_span):
                finished = workload.finish(state, results)
        else:
            finished = workload.finish(state, results)
    elapsed = time.perf_counter() - start
    return times, traced, clean, results, crashes, finished, elapsed


def layer_metrics(workload, tracer, times, traced, results):
    import spans
    from workloads import MonteCarlo

    n_traced = max(sum(traced), 1)
    duration, calls, self_time = tracer.totals()
    out = {f"{p.name}.ms": 1000 * duration.get(p.name, 0.0) / n_traced
           for p in spans.PROBES if p.span}
    out.update({f"{n}.calls": calls.get(n, 0) / n_traced for n in spans.CALL_COUNTED})
    out.update({f"{n}.self_ms": 1000 * self_time.get(n, 0.0) / n_traced
                for n in spans.SELF_TIMED})
    for name in ("graphs.network_bytes", "regularization.dense_route.calls",
                 "regularization.spectrum_bytes", "selection.grid_points",
                 "selection.criterion_value.calls"):
        out[name] = tracer.counts.get(name, 0.0) / n_traced
    out["instruments.columns"] = tracer.per_op_max("instruments.columns", n_traced)
    # summarize runs once over all ops, traced or not
    out["montecarlo.summarize.ms"] = (1000 * duration.get("montecarlo.summarize", 0.0)
                                      / max(len(results), 1))
    out["montecarlo.failed_fits"] = (sum(workload.failed_fits(r) for r in results)
                                     / max(len(results), 1)
                                     if isinstance(workload, MonteCarlo) else 0.0)
    out.update({f"{layer}.src_lines": src_lines(layer) for layer in spans.LAYERS})
    on = [t for t, f in zip(times, traced) if f]
    off = [t for t, f in zip(times, traced) if not f]
    out["trace.overhead_ms"] = 1000 * (statistics.median(on) - statistics.median(off))
    root_spans = sum(1 for s in tracer.spans if s.name != workload.finish_span)
    out["trace.spans_per_op"] = root_spans / n_traced
    return out


def run_workload(args) -> int:
    import_s = import_package()
    import spans
    from workloads import REFERENCE_CASES, WORKLOADS

    spec = load_spec()
    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    case = args.seed % REFERENCE_CASES
    declared = spec["per_layer" if args.trace else "end_to_end"]

    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        state, setup_samples = set_up(workload, case, Path(tmp), args.scale)
        tracer = spans.Tracer() if args.trace else None
        times, traced, clean, results, crashes, finished, elapsed = measure(
            workload, state, args.seconds, tracer)
        errors = [f"op raised:\n{tb}" for tb in crashes[:3]]
        if not any(clean):
            errors.append("no op completed without a failure")
        refs = load_references(args.reference)
        ref = refs.get(args.scale, {}).get(workload.name, {}).get(str(case))
        if ref is None:
            errors.append(f"no reference for {workload.name} case {case} "
                          f"at scale {args.scale} in {args.reference}")
        elif not crashes:
            errors += workload.check(state, results, finished, ref)

    ops = len(times)
    fit_failures = sum(workload.failed_fits(r) for r in results)
    failed_ops = len(crashes) + sum(1 for r in results if workload.failed_fits(r))
    if args.trace:
        metrics = layer_metrics(workload, tracer, times, traced, results)
    else:
        clean_times = [t for t, ok in zip(times, clean) if ok] or times
        metrics = {
            "op_ms_min": 1000 * min(clean_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": import_s + statistics.median(setup_samples),
        }
    if set(metrics) != {m["name"] for m in declared}:
        raise SystemExit("bench: computed metrics do not match BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ {m['name'] for m in declared})}")

    untraced = [t for t, f in zip(times, traced) if not f]
    info = {
        "ops": ops,
        "op_ms_p50": 1000 * statistics.median(untraced),
        "op_ms_p90": (1000 * statistics.quantiles(untraced, n=10)[-1]
                      if len(untraced) >= P90_MIN_OPS else None),
        "ops_per_s": ops / elapsed,
        "failed_frac": (fit_failures + len(crashes)) / (ops * workload.fits_per_op()),
        "import_s": import_s,
        "setup_samples_s": setup_samples,
    }
    detail = {"workload": workload.name, "seed": args.seed, "case": case,
              "scale": args.scale, "seconds": args.seconds, "trace": args.trace,
              "why": workload.why, "moves": list(workload.moves),
              "env": environment(), "info": info}
    print(f"workload {workload.name} (seed {args.seed}, case {case}, {ops} ops)")
    for m in declared:
        print(f"  {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    for e in errors:
        print(f"bench: output check failed: {e}", file=sys.stderr)
    print(json.dumps(detail))
    result = {"correct": not errors, "attempted": ops, "failed": failed_ops,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    print(json.dumps(result), flush=True)
    return 0 if not errors else 1


# ---------------------------------------------------------------------------
# Every workload, one process each
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    from workloads import WORKLOADS

    spec = load_spec()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    results, details, status = {}, {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale,
               "--reference", str(args.reference)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            status = 1
        if len(lines) >= 2:
            details[name], results[name] = json.loads(lines[-2]), json.loads(lines[-1])
    rows = [(m["name"], m["unit"], [r["metrics"][m["name"]]["value"] for r in results.values()])
            for m in declared]
    if not args.trace:
        rows += [(f"{k} (not gated)", unit, [d["info"][k] for d in details.values()])
                 for k, unit in (("op_ms_p50", "ms"), ("ops_per_s", "1/s"),
                                 ("failed_frac", "share"))]
    width = max(len(r[0]) for r in rows)
    print(f"{'metric':<{width}}  {'unit':<6}" + "".join(f"{n:>16}" for n in results))
    for name, unit, values in rows:
        print(f"{name:<{width}}  {unit:<6}" + "".join(f"{v:>16.6g}" for v in values))
    derived = {}
    cell, many = (results.get(n) for n in ("mc_bench_cell", "mc_many_groups"))
    if not args.trace and cell and many:
        ratio = many["metrics"]["op_ms_min"]["value"] / cell["metrics"]["op_ms_min"]["value"]
        g_ratio = (WORKLOADS["mc_many_groups"].params(args.scale)["group_count"]
                   / WORKLOADS["mc_bench_cell"].params(args.scale)["group_count"])
        derived["g_scaling_exponent"] = math.log(ratio) / math.log(g_ratio)
        print(f"G-scaling exponent of op_ms_min over a {g_ratio:g}x group count "
              f"(not gated): {derived['g_scaling_exponent']:.3f}")
    print(json.dumps({"results": results, "derived": derived}))
    return status


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def load_references(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def record_references(args) -> int:
    """Run the checked ops of every case and store their outputs as references."""
    from workloads import REFERENCE_CASES, WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    cases = args.cases if args.cases is not None else REFERENCE_CASES
    refs = load_references(args.reference)
    for name in names:
        workload = WORKLOADS[name]
        table = refs.setdefault(args.scale, {}).setdefault(name, {})
        for case in range(cases):
            with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
                with quiet():
                    state = workload.setup(case, Path(tmp), args.scale)
                    results = [workload.collect(state, workload.op(state, i))
                               for i in range(workload.check_ops)]
                table[str(case)] = workload.reference(state, results)
        print(f"recorded {cases} cases of {name} ({args.scale})", file=sys.stderr)
    write_references(refs, args.reference)
    return 0


def write_references(refs: dict, path) -> None:
    """One line per case, so a diff shows which cases changed."""
    lines = ["{"]
    scales = sorted(refs)
    for si, scale in enumerate(scales):
        lines.append(f" {json.dumps(scale)}: {{")
        names = sorted(refs[scale])
        for wi, name in enumerate(names):
            lines.append(f"  {json.dumps(name)}: {{")
            cases = sorted(refs[scale][name], key=int)
            for ci, case in enumerate(cases):
                entry = json.dumps(refs[scale][name][case], sort_keys=True)
                lines.append(f"   {json.dumps(case)}: {entry}"
                             + ("," if ci < len(cases) - 1 else ""))
            lines.append("  }" + ("," if wi < len(names) - 1 else ""))
        lines.append(" }" + ("," if si < len(scales) - 1 else ""))
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    parser.add_argument("--reference", type=Path, default=BENCH_DIR / "reference.json")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite the references instead of measuring")
    parser.add_argument("--cases", type=int, default=None,
                        help="with --record-reference: cases to record")
    args = parser.parse_args(argv)
    if args.record_reference:
        import_package()
        return record_references(args)
    if args.workload == "all":
        import_package()
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
