"""The benchmark's workloads: seeded inputs, one operation, output checks.

Every workload is a closed loop of one kind of operation.  Its inputs come
from the case number (the benchmark's ``--seed`` modulo ``REFERENCE_CASES``)
through the package's public generator and ``reduced_form``; the CLI
workloads write them as CSV files and hand the program only those files.

The output check compares each run against ``reference.json``, recorded at
the commit that defined the benchmark for every case, within ``MC_TOL`` for
Monte Carlo summaries and ``CLI_TOL`` for the CLI's six-significant-digit
output.  Integer fields and words must match exactly.

A Monte Carlo op redraws one of a fixed set of child seeds, cycling through
them, so that every commit times the same inputs however many ops fit in a
run.  The summary of the first pass over the set is checked against the
reference, and every later op against the first op on its seed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sarnet import cli, montecarlo
from sarnet.graphs import (GroupedNetwork, PanelData, build_block_diagonal,
                           generate_mc_network, row_normalize)
from sarnet.transforms import ModelParams, reduced_form

#: number of distinct input sets; seeds are taken modulo this
REFERENCE_CASES = 64
#: relative and absolute tolerance on Monte Carlo means and SDs
MC_TOL = 1e-5
#: relative and absolute tolerance on CLI numbers, printed to 6 digits
CLI_TOL = 1e-4


@dataclass(frozen=True)
class Size:
    """Input sizes of one workload at full scale and at the smoke-test scale."""

    full: dict
    tiny: dict


class Workload:
    """One closed-loop workload.

    ``setup`` builds the inputs; ``op`` runs one operation and is the only
    timed call; ``collect`` turns its return into the checked result;
    ``finish`` runs once after the loop (timed as part of throughput).
    """

    name: str
    why: str
    moves: tuple[str, ...]
    root_span: str
    finish_span: str | None = None
    check_ops: int = 1           # leading results compared with the reference

    def __init__(self, size: Size):
        self.size = size

    def params(self, scale: str) -> dict:
        return getattr(self.size, scale)

    def setup(self, case: int, workdir: Path, scale: str):
        raise NotImplementedError

    def op(self, state, i: int):
        raise NotImplementedError

    def collect(self, state, raw):
        return raw

    def finish(self, state, results):
        return None

    def failed_fits(self, result) -> int:
        """Failed estimator fits or nonzero exits in one op."""
        raise NotImplementedError

    def fits_per_op(self) -> int:
        return 1

    def reference(self, state, results) -> dict:
        raise NotImplementedError

    def check(self, state, results, finished, ref: dict) -> list[str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

@dataclass
class McState:
    config: montecarlo.McConfig
    children: list


class MonteCarlo(Workload):
    root_span = "montecarlo.run_replication"
    finish_span = "montecarlo.summarize"

    def __init__(self, name, why, moves, size, draws):
        super().__init__(size)
        self.name, self.why, self.moves = name, why, moves
        self.check_ops = draws       # one pass over the child seeds is checked

    def setup(self, case, workdir, scale):
        config = montecarlo.McConfig(replications=1, seed=case, **self.params(scale))
        # the first children of SeedSequence(seed), in the order run_study uses them
        children = np.random.SeedSequence(config.seed).spawn(self.check_ops)
        return McState(config, children)

    def op(self, state, i):
        return montecarlo.run_replication(state.config,
                                          state.children[i % len(state.children)])

    def finish(self, state, results):
        return montecarlo.summarize(results, state.config)

    def failed_fits(self, result):
        return len(result.failures)

    def fits_per_op(self):
        return len(montecarlo.ESTIMATORS)

    def reference(self, state, results):
        summary = montecarlo.summarize(results[:self.check_ops], state.config)
        return {f"{e}/{p}": [_json_float(c.mean), _json_float(c.sd), c.n_failed]
                for (e, p), c in summary.cells.items()}

    def check(self, state, results, finished, ref):
        errors = []
        if len(results) < self.check_ops:
            return [f"only {len(results)} replications, {self.check_ops} are checked"]
        got = self.reference(state, results)
        if set(got) != set(ref):
            errors.append(f"summary cells differ: {sorted(set(got) ^ set(ref))}")
        for key in sorted(set(got) & set(ref)):
            (m, s, nf), (rm, rs, rnf) = got[key], ref[key]
            if nf != rnf:
                errors.append(f"{key}: {nf} failed fits, reference {rnf}")
            for what, a, b in (("mean", m, rm), ("sd", s, rs)):
                if not _close(a, b, MC_TOL):
                    errors.append(f"{key} {what}: {a!r}, reference {b!r}")
        for i in range(self.check_ops, len(results)):
            first = results[i % self.check_ops]
            if results[i].failures != first.failures or not all(
                    np.allclose(results[i].estimates[e], first.estimates[e],
                                rtol=MC_TOL, atol=MC_TOL, equal_nan=True)
                    for e in first.estimates):
                errors.append(f"replication {i} differs from replication "
                              f"{i % self.check_ops} on the same seed")
                break
        for (e, p), c in finished.cells.items():
            if c.n_used >= 2 and not (math.isfinite(c.mean) and math.isfinite(c.sd)):
                errors.append(f"{e}/{p}: non-finite summary over {c.n_used} replications")
        if finished.replications != len(results):
            errors.append("summary replication count differs from the run")
        return errors


# ---------------------------------------------------------------------------
# Command-line workloads
# ---------------------------------------------------------------------------

@dataclass
class CliState:
    argv: list[str]
    out: Path


class CliWorkload(Workload):
    root_span = "cli.main"
    command: str
    flags: tuple[str, ...] = ()

    def network(self, rng, scale) -> GroupedNetwork:
        raise NotImplementedError

    def setup(self, case, workdir, scale):
        rng = np.random.default_rng([case, sum(map(ord, self.name))])
        net = self.network(rng, scale)
        data = _draw_outcome(net, rng)
        edges, nodes = workdir / "edges.csv", workdir / "nodes.csv"
        _write_csvs(net, data, edges, nodes)
        out = workdir / f"{self.command}.out"
        argv = [self.command, *self.flags, "--edges", str(edges),
                "--data", str(nodes), "--out", str(out)]
        return CliState(argv, out)

    def op(self, state, i):
        state.out.unlink(missing_ok=True)
        return cli.main(state.argv)

    def collect(self, state, raw):
        text = state.out.read_text() if raw == 0 and state.out.exists() else ""
        return raw, text

    def failed_fits(self, result):
        return int(result[0] != 0)

    def reference(self, state, results):
        code, text = results[0]
        if code != 0:
            raise RuntimeError(f"sarnet {self.command} exited {code}; nothing to record")
        return {"output": text}

    def check(self, state, results, finished, ref):
        errors = [f"call {i} exited {code}" for i, (code, _) in enumerate(results) if code]
        if errors:
            return errors
        first = results[0][1]
        if any(text != first for _, text in results[1:]):
            errors.append("repeated calls on the same files gave different output")
        got, want = _key_values(first), _key_values(ref["output"])
        if list(got) != list(want):
            errors.append(f"output keys {list(got)}, reference {list(want)}")
        for key in got.keys() & want.keys():
            errors += [f"{key}: {e}" for e in _compare_value(got[key], want[key])]
        return errors


class CliEstimate(CliWorkload):
    name = "cli_estimate"
    command = "estimate"
    why = ("in-process 'sarnet estimate' on a directed n=900 CSV pair: 1240 "
           "instruments take the dense n x n spectrum route; graphs generator bypassed")
    moves = ("instruments.q1_roster.ms", "instruments.normalize_columns.ms",
             "instruments.build_instruments.ms", "instruments.columns",
             "regularization.from_instruments.ms", "regularization.dense_route.calls",
             "regularization.spectrum_bytes", "selection.prepare_selection.ms",
             "selection.select_alpha.ms", "selection.grid_points",
             "selection.criterion_value.calls", "graphs.load_network.ms",
             "cli.main.self_ms")

    def network(self, rng, scale):
        p = self.params(scale)
        return generate_mc_network(p["group_count"], p["group_size"], p["max_links"], rng)


class CliDiagnose(CliWorkload):
    name = "cli_diagnose"
    command = "diagnose"
    flags = ("--correlated",)
    why = ("in-process 'sarnet diagnose --correlated' on ~1200 nodes of undirected "
           "circulant groups: dense eigvalsh and the identification stack SVD")
    moves = ("identification.distinct_eigenvalues.ms",
             "identification.distinct_eigenvalues.calls",
             "identification.build_report.ms", "graphs.load_network.ms",
             "cli.main.self_ms")

    def network(self, rng, scale):
        """Undirected circulant groups, each node linked to 2 neighbours per side.

        Group sizes come from {10, 12, 15}, whose spectra have 12 distinct
        eigenvalues in union.  Each size fills a third of the groups and only
        their order is drawn: the cost of the stack SVD depends on the size
        mix (0.75 s to 1.45 s per call for independent draws), which would
        otherwise make the op time vary with the seed.
        """
        p = self.params(scale)
        sizes = rng.permutation(np.resize((10, 12, 15), p["group_count"]))
        blocks = []
        for m in sizes:
            B = np.zeros((m, m))
            for i in range(m):
                for d in (1, 2):
                    B[i, (i + d) % m] = B[i, (i - d) % m] = 1.0
            blocks.append(B)
        W = build_block_diagonal(blocks)
        return GroupedNetwork(tuple(int(m) for m in sizes), W, row_normalize(W),
                              m_row_normalized=True)

    def check(self, state, results, finished, ref):
        errors = super().check(state, results, finished, ref)
        got = _key_values(results[0][1]) if results and not results[0][0] else {}
        want = _key_values(ref["output"])
        for key in ("verdict", "distinct_eigenvalues"):
            if got.get(key) != want.get(key):
                errors.append(f"{key} is {got.get(key)!r}, reference {want.get(key)!r}")
        return errors


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _draw_outcome(net: GroupedNetwork, rng) -> PanelData:
    """The simulation design's covariate, group effects and outcome on ``net``."""
    design = montecarlo.McConfig()
    x = rng.standard_normal(net.n)
    gamma = design.sigma_gamma * rng.standard_normal(net.group_count)
    eps = design.sigma_eps * rng.standard_normal(net.n)
    params = ModelParams.checked(net, lam=design.lam, beta1=[design.beta1],
                                 beta2=[design.beta2], rho=design.rho,
                                 gamma=gamma, sigma2=design.sigma_eps ** 2)
    X = np.column_stack([x, net.lag_W(x)])
    y = reduced_form(params, X, gamma, eps, net)
    return PanelData(y=y, x1=x[:, None], x2=x[:, None], group_sizes=net.group_sizes)


def _write_csvs(net: GroupedNetwork, data: PanelData, edges: Path, nodes: Path) -> None:
    erows = ["group_id,src,dst,weight"]
    nrows = ["group_id,node_id,x1_0,x2_0,y"]
    start = 0
    for g, B in enumerate(net.blocks_W()):
        erows += [f"{g},{i},{j},{B[i, j]:.17g}" for i, j in zip(*np.nonzero(B))]
        for i in range(B.shape[0]):
            k = start + i
            nrows.append(f"{g},{i},{data.x1[k, 0]:.17g},{data.x2[k, 0]:.17g},{data.y[k]:.17g}")
        start += B.shape[0]
    edges.write_text("\n".join(erows) + "\n")
    nodes.write_text("\n".join(nrows) + "\n")


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan)")


def _json_float(x: float):
    return float(x) if math.isfinite(x) else None


def _close(a, b, tol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def _key_values(text: str) -> dict[str, str]:
    """``key = value`` lines; a first line without ``=`` is kept under 'header'."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        out[key.strip() if sep else "header"] = value.strip() if sep else line
    return out


def _compare_value(got: str, want: str) -> list[str]:
    """Numbers within CLI_TOL (integers exactly), everything else exactly."""
    a, b = _NUMBER.split(got), _NUMBER.split(want)
    if len(a) != len(b):
        return [f"{got!r}, reference {want!r}"]
    errors = []
    for k, (x, y) in enumerate(zip(a, b)):
        if k % 2 == 0 or x == y:
            if x != y:
                errors.append(f"{got!r}, reference {want!r}")
            continue
        fx, fy = float(x), float(y)
        exact = y.lstrip("+-").isdigit()
        if not math.isfinite(fx) or (exact and x != y) or not _close(fx, fy, CLI_TOL):
            errors.append(f"{x} against reference {y}")
    return errors


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    MonteCarlo(
        "mc_bench_cell",
        "the paper's (60,15,6) table cell, run_replication then summarize: work "
        "spread over every layer, so estimator-layer changes show here",
        ("graphs.generate_mc_network.ms", "transforms.j_projector.ms",
         "transforms.reduced_form.ms", "instruments.q1_roster.ms",
         "instruments.q2_roster.ms", "estimation.preliminary_delta.ms",
         "estimation.preliminary_rho.ms", "estimation.regularized_2sls.ms",
         "estimation.bias_corrected_2sls.ms", "selection.prepare_selection.ms",
         "selection.select_from_context.ms", "selection.grid_points",
         "selection.criterion_value.calls", "montecarlo.run_replication.self_ms",
         "montecarlo.summarize.ms", "montecarlo.failed_fits"),
        Size(full=dict(group_count=60, group_size=15, max_links=6),
             tiny=dict(group_count=8, group_size=6, max_links=2)),
        draws=16),
    MonteCarlo(
        "mc_many_groups",
        "the same design at G=240 (n=3600, 246 instruments): dense n x n network "
        "storage dominates; with mc_bench_cell it gives the G-scaling exponent",
        ("graphs.generate_mc_network.ms", "graphs.network_bytes",
         "regularization.from_instruments.ms", "regularization.spectrum_bytes",
         "transforms.j_projector.ms", "montecarlo.run_replication.self_ms"),
        Size(full=dict(group_count=240, group_size=15, max_links=6),
             tiny=dict(group_count=16, group_size=6, max_links=2)),
        draws=8),
    CliEstimate(Size(full=dict(group_count=60, group_size=15, max_links=6),
                     tiny=dict(group_count=6, group_size=6, max_links=2))),
    CliDiagnose(Size(full=dict(group_count=100), tiny=dict(group_count=8))),
)}
