"""Self test of the benchmark at tiny input sizes (about half a minute).

    python3 bench/smoke.py

Records tiny-size references into a temporary directory, then checks that
every workload runs with and without tracing and prints the metrics of
BENCHMARK.json under valid names; that the traced spectrum-route counter
tells the two routes of ``Spectrum.from_instruments`` apart; that a
corrupted reference value makes the output check fail; and that, in a
directory holding only BENCHMARK.json and bench/, the benchmark exits
nonzero without printing a result.  Exits 1 if any check fails.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd=ROOT, script=RUN):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def dense_route_counts() -> list[float]:
    """``regularization.dense_route.calls`` for 2 and for 40 instruments on 40 rows.

    Two instruments take the m x m Gram route, forty the n x n one.
    """
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import numpy as np
    import spans
    from sarnet.regularization import Spectrum

    rng = np.random.default_rng(0)
    counts = []
    for m in (2, 40):
        tracer = spans.Tracer()
        with spans.installed(tracer):
            Spectrum.from_instruments(rng.standard_normal((40, m)))
        counts.append(tracer.counts.get("regularization.dense_route.calls", 0.0))
    return counts


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    names = workloads + [m["name"] for k in ("end_to_end", "per_layer") for m in spec[k]]
    bad = [n for n in names if not NAME.fullmatch(n)]
    expect(not bad and len(set(names)) == len(names),
           f"{len(names)} workload and metric names are valid and unique {bad}")
    counts = dense_route_counts()
    expect(counts == [0.0, 1.0],
           f"dense_route.calls reads 0 on the Gram route, 1 on the dense one {counts}")

    with tempfile.TemporaryDirectory(prefix=".bench-smoke-", dir=ROOT) as tmp:
        tmp = Path(tmp)
        ref = tmp / "reference.json"
        code, _, err = run(["--record-reference", "--workload", "all", "--scale", "tiny",
                            "--cases", "1", "--reference", str(ref)])
        ok = code == 0 and ref.exists()
        expect(ok, f"tiny references recorded {'' if ok else err[-300:]}")
        common = ["--seed", "0", "--seconds", "0.5", "--scale", "tiny",
                  "--reference", str(ref)]

        for name in workloads:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                code, result, err = run(["--workload", name, "--trace", str(trace), *common])
                declared = {m["name"] for m in spec[kind]}
                ok = (code == 0 and result is not None and set(result) == RESULT_KEYS
                      and result["correct"] is True and result["attempted"] >= 1
                      and set(result["metrics"]) == declared
                      and all(isinstance(v["value"], (int, float))
                              for v in result["metrics"].values()))
                expect(ok, f"{name} --trace {trace} reports every {kind} metric "
                           f"{err[-300:] if not ok else ''}")

        refs = json.loads(ref.read_text())
        corruptions = {
            "mc_bench_cell": lambda r: r.__setitem__(
                "2sls_finite/lambda", [r["2sls_finite/lambda"][0] + 1e-3,
                                       *r["2sls_finite/lambda"][1:]]),
            "cli_estimate": lambda r: r.__setitem__(
                "output", re.sub(r"lambda_hat = (\S+)",
                                 lambda m: f"lambda_hat = {float(m[1]) * 1.01:.6g}",
                                 r["output"])),
            "cli_diagnose": lambda r: r.__setitem__(
                "output", re.sub(r"distinct_eigenvalues = (\d+)",
                                 lambda m: f"distinct_eigenvalues = {int(m[1]) + 1}",
                                 r["output"])),
        }
        for name, corrupt in corruptions.items():
            bad_refs = json.loads(json.dumps(refs))
            corrupt(bad_refs["tiny"][name]["0"])
            bad_path = tmp / f"bad-{name}.json"
            bad_path.write_text(json.dumps(bad_refs))
            args = ["--workload", name, "--trace", "0", *common]
            args[args.index(str(ref))] = str(bad_path)
            code, result, _ = run(args)
            expect(code != 0 and result is not None and result["correct"] is False,
                   f"{name}: a corrupted reference value fails the output check")

        bare = tmp / "bare"
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, result, _ = run(["--workload", workloads[0], "--seed", "0", "--seconds", "1",
                               "--trace", "0"], cwd=bare,
                              script=bare / BENCH_DIR.name / RUN.name)
        expect(code != 0 and result is None,
               "without the package the benchmark exits nonzero and prints no result")

    print(f"{len(failures)} failed" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
