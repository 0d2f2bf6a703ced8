"""Monte Carlo study of the estimator roster on randomly drawn networks.

Each replication draws a wrap-around random network, covariates, group
effects and disturbances, builds the outcome from the reduced form, and runs
six estimators on the same draw: 2SLS with the small instrument roster, 2SLS
with the centrality-augmented roster, its bias-corrected version, and the
three regularized estimators (T / LF / PC) with a per-replication
data-driven alpha.  The large roster extends the small one, which is built
once.  All five large-roster estimators read the spectrum of the
unit-variance-normalized roster: damping is not scale invariant, but the
undamped projector and the bias trace tr(P D) are, so normalizing the
large-iv and bias-corrected rows gives the same estimator while one
decomposition serves all five.  They also share one ``first_stage``, the
coordinates of R[Z y] on that spectrum, so [Z y] is whitened and projected
once per roster, not once per fit.  Without ``transform_with_rho`` the
whitening is at rho = 0, where R = I and nothing is computed.  Summaries
report Mean (SD) [RMSE] per estimator and parameter.

Seeding: the master seed spawns one child seed per replication through
numpy's SeedSequence, so results are reproducible bit for bit and invariant
to how replications are distributed over workers.  Within a replication the
draw order is fixed: network, covariate, group effects, disturbances.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .estimation import (EstimationResult, bias_corrected_2sls, classical_2sls,
                         first_stage, preliminary_delta, preliminary_rho,
                         regularized_2sls)
from .graphs import GroupedNetwork, PanelData, generate_mc_network
from .instruments import normalize_columns, q1_roster, q2_roster
from .selection import _check_criterion, prepare_selection, select_from_context
from .transforms import ModelParams, reduced_form

__all__ = ["McConfig", "ReplicationResult", "StudySummary", "ESTIMATORS",
           "ESTIMATOR_LABELS", "PARAMETERS", "run_replication", "run_study",
           "summarize"]

ESTIMATORS = ("2sls_finite", "2sls_large", "bias_corrected",
              "t_2sls", "lf_2sls", "pc_2sls")

ESTIMATOR_LABELS = {
    "2sls_finite": "2SLS (finite iv)",
    "2sls_large": "2SLS (large iv)",
    "bias_corrected": "Bias-corrected 2SLS",
    "t_2sls": "T-2SLS",
    "lf_2sls": "LF-2SLS",
    "pc_2sls": "PC-2SLS",
}

PARAMETERS = ("lambda", "beta1", "beta2", "rho")

#: what a numerically failed fit raises (``SingularSystemError`` is a
#: ``LinAlgError``); anything else is a bug and propagates
NUMERICAL_FAILURES = (np.linalg.LinAlgError, ValueError)


@dataclass(frozen=True)
class McConfig:
    """Design of one simulation cell.

    Defaults follow the benchmark design: beta1 = beta2 = 0.2,
    lambda = rho = 0.1, x ~ N(0,1), group effects ~ N(0, 0.01),
    disturbances ~ N(0,1), 500 replications.
    """

    group_count: int = 30
    group_size: int = 10
    max_links: int = 3
    replications: int = 500
    seed: int = 0
    lam: float = 0.1
    rho: float = 0.1
    beta1: float = 0.2
    beta2: float = 0.2
    sigma_gamma: float = 0.1
    sigma_eps: float = 1.0
    criterion: str = "cp"
    #: plug the estimated rho into the whitening transform of every
    #: estimator.  Off by default: the preliminary rho is noisy enough at
    #: these sample sizes that its sampling error would dominate the spread
    #: of every downstream estimate (see the harness notes in the README);
    #: the published benchmark spreads are only attainable without it.
    transform_with_rho: bool = False

    def __post_init__(self) -> None:
        if self.group_count < 1 or self.group_size < 1:
            raise ValueError("group_count and group_size must be >= 1")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not 0 <= self.max_links < self.group_size:
            raise ValueError("max_links must lie in [0, group_size)")
        _check_criterion(self.criterion)

    @property
    def n(self) -> int:
        return self.group_count * self.group_size

    def truth(self, parameter: str) -> float:
        return {"lambda": self.lam, "beta1": self.beta1,
                "beta2": self.beta2, "rho": self.rho}[parameter]


@dataclass(frozen=True)
class ReplicationResult:
    """Per-draw estimates: (lambda, beta1, beta2) per estimator, NaN on failure."""

    estimates: dict[str, np.ndarray]
    rho_tilde: float
    alphas: dict[str, float] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)


def _draw_sample(config: McConfig, seed) -> tuple[GroupedNetwork, PanelData]:
    rng = np.random.default_rng(seed)
    net = generate_mc_network(config.group_count, config.group_size,
                              config.max_links, rng)
    x = rng.standard_normal(net.n)
    gamma = config.sigma_gamma * rng.standard_normal(net.group_count)
    eps = config.sigma_eps * rng.standard_normal(net.n)
    params = ModelParams.checked(
        net, lam=config.lam, beta1=[config.beta1], beta2=[config.beta2],
        rho=config.rho, gamma=gamma, sigma2=config.sigma_eps ** 2)
    X = np.column_stack([x, net.lag_W(x)])
    y = reduced_form(params, X, gamma, eps, net)
    data = PanelData(y=y, x1=x[:, None], x2=x[:, None],
                     group_sizes=net.group_sizes)
    return net, data


def run_replication(config: McConfig, seed) -> ReplicationResult:
    """One draw, all six estimators on it; numerical failures become missing cells.

    q1 is built once and extended into the large roster.  Each roster has
    one spectrum and one first stage: the five large-roster fits read the
    normalized q2's stage, and a failure to build it fails all five.  The
    large-iv and bias-corrected fits use the full projector
    P = Q (Q'Q)^+ Q' and the trace tr(P D); both are invariant under
    Q -> Q diag(s), so they read the normalized roster's spectrum.
    """
    nan3 = np.full(3, np.nan)
    estimates = {name: nan3.copy() for name in ESTIMATORS}
    alphas: dict[str, float] = {}
    failures: dict[str, str] = {}

    net, data = _draw_sample(config, seed)
    base = data.regressors(net)

    try:
        q1 = q1_roster(net, base)
        delta_tilde = preliminary_delta(data, net, q1)
        rho_tilde = preliminary_rho(data, net, delta_tilde)
    except NUMERICAL_FAILURES as exc:  # no preliminary stage, nothing can run
        msg = f"preliminary stage failed: {exc}"
        return ReplicationResult(estimates, np.nan, alphas,
                                 {name: msg for name in ESTIMATORS})

    rho_plug = rho_tilde if config.transform_with_rho else 0.0
    q2_norm = normalize_columns(q2_roster(net, q1), "unit-variance")

    def attempt(name: str, fit) -> None:
        try:
            result: EstimationResult = fit()
            estimates[name] = result.delta[:3].copy()
            if result.alpha_star is not None:
                alphas[name] = float(result.alpha_star)
        except NUMERICAL_FAILURES as exc:
            failures[name] = str(exc)

    def fail(names, msg: str) -> ReplicationResult:
        failures.update((name, msg) for name in names)
        return ReplicationResult(estimates, float(rho_tilde), alphas, failures)

    attempt("2sls_finite", lambda: classical_2sls(first_stage(data, net, q1, rho_plug)))
    try:
        stage = first_stage(data, net, q2_norm, rho_plug)
    except NUMERICAL_FAILURES as exc:
        return fail(ESTIMATORS[1:], f"large-roster first stage failed: {exc}")
    attempt("2sls_large", lambda: classical_2sls(stage))
    attempt("bias_corrected", lambda: bias_corrected_2sls(
        stage, lambda_tilde=float(delta_tilde[0])))

    regularized = (("t_2sls", "T"), ("lf_2sls", "LF"), ("pc_2sls", "PC"))
    try:
        ctx = prepare_selection(data, net, q2_norm, rho_plug, delta_tilde,
                                config.criterion)
    except NUMERICAL_FAILURES as exc:
        return fail([name for name, _ in regularized], f"selection context failed: {exc}")

    for name, kind in regularized:
        attempt(name, lambda kind=kind: regularized_2sls(
            stage, select_from_context(ctx, kind).scheme))

    return ReplicationResult(estimates, float(rho_tilde), alphas, failures)


def _replicate_task(args) -> ReplicationResult:
    config, seed = args
    return run_replication(config, seed)


def run_study(config: McConfig, workers: int = 1) -> list[ReplicationResult]:
    """All replications of one cell on ``workers`` processes.

    The replications go out in chunks of ceil(replications / workers), and
    only as many processes start as there are chunks, so none sits idle.
    """
    seeds = np.random.SeedSequence(config.seed).spawn(config.replications)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    chunksize = math.ceil(config.replications / workers)
    workers = math.ceil(config.replications / chunksize)
    if workers == 1:
        return [run_replication(config, s) for s in seeds]
    tasks = [(config, s) for s in seeds]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_replicate_task, tasks, chunksize=chunksize))


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellStats:
    mean: float
    sd: float
    rmse: float
    n_used: int
    n_failed: int

    def formatted(self) -> str:
        if self.n_used < 2:
            return "-"
        return f"{self.mean:.6g} ({self.sd:.6g}) [{self.rmse:.6g}]"


@dataclass(frozen=True)
class StudySummary:
    """Mean/SD/RMSE per estimator and parameter, plus the LF/PC agreement."""

    config: McConfig
    cells: dict[tuple[str, str], CellStats]
    lf_pc_agreement: float
    lf_pc_mean_absdiff: float
    replications: int

    def cell(self, estimator: str, parameter: str) -> CellStats:
        return self.cells[(estimator, parameter)]

    def to_text(self) -> str:
        c = self.config
        head = (f"m={c.group_size} g={c.group_count} max_links={c.max_links} "
                f"reps={self.replications} seed={c.seed} criterion={c.criterion}")
        col_heads = [f"lambda={c.lam:g}", f"beta1={c.beta1:g}",
                     f"beta2={c.beta2:g}", f"rho={c.rho:g}"]
        width = 36
        lines = [head, ""]
        lines.append(f"{'estimator':<22}" + "".join(f"{h:<{width}}" for h in col_heads))
        for name in ESTIMATORS:
            row = [f"{ESTIMATOR_LABELS[name]:<22}"]
            for param in PARAMETERS:
                stats = self.cells.get((name, param))
                row.append(f"{stats.formatted() if stats else '-':<{width}}")
            lines.append("".join(row).rstrip())
        lines.append("")
        lines.append(f"LF/PC agreement: {self.lf_pc_agreement:.6g} "
                     f"(mean |lambda diff| = {self.lf_pc_mean_absdiff:.6g})")
        failed = {name: self.cells[(name, "lambda")].n_failed for name in ESTIMATORS}
        if any(failed.values()):
            parts = ", ".join(f"{ESTIMATOR_LABELS[k]}: {v}" for k, v in failed.items() if v)
            lines.append(f"failures: {parts}")
        else:
            lines.append("failures: none")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        rows = ["estimator,parameter,mean,sd,rmse,n_used,n_failed"]
        for name in ESTIMATORS:
            for param in PARAMETERS:
                stats = self.cells.get((name, param))
                if stats is None:
                    continue
                if stats.n_used < 2:
                    rows.append(f"{ESTIMATOR_LABELS[name]},{param},-,-,-,"
                                f"{stats.n_used},{stats.n_failed}")
                else:
                    rows.append(
                        f"{ESTIMATOR_LABELS[name]},{param},{stats.mean:.6g},"
                        f"{stats.sd:.6g},{stats.rmse:.6g},{stats.n_used},{stats.n_failed}")
        return "\n".join(rows) + "\n"


def _stats(values: np.ndarray, truth: float, total: int) -> CellStats:
    ok = values[np.isfinite(values)]
    n_used = ok.size
    if n_used < 2:
        return CellStats(np.nan, np.nan, np.nan, n_used, total - n_used)
    mean = float(ok.mean())
    sd = float(ok.std(ddof=1))
    rmse = float(np.sqrt(np.mean((ok - truth) ** 2)))
    return CellStats(mean, sd, rmse, n_used, total - n_used)


def summarize(results: Sequence[ReplicationResult], config: McConfig) -> StudySummary:
    """Aggregate replications; order-independent by construction."""
    if not results:
        raise ValueError("no replications to summarize")
    total = len(results)
    cells: dict[tuple[str, str], CellStats] = {}
    for e_idx, name in enumerate(ESTIMATORS):
        stacked = np.array([r.estimates[name] for r in results])
        for p_idx, param in enumerate(("lambda", "beta1", "beta2")):
            cells[(name, param)] = _stats(stacked[:, p_idx],
                                          config.truth(param), total)
    # the shared preliminary rho is reported on the finite-roster row,
    # matching the single rho column of the reference layout
    rhos = np.array([r.rho_tilde for r in results])
    cells[("2sls_finite", "rho")] = _stats(rhos, config.rho, total)

    lf = np.array([r.estimates["lf_2sls"][0] for r in results])
    pc = np.array([r.estimates["pc_2sls"][0] for r in results])
    both = np.isfinite(lf) & np.isfinite(pc)
    if np.any(both):
        diffs = np.abs(lf[both] - pc[both])
        agreement = float(np.mean(diffs < 1e-6))
        mean_diff = float(diffs.mean())
    else:
        agreement, mean_diff = np.nan, np.nan
    return StudySummary(config=config, cells=cells, lf_pc_agreement=agreement,
                        lf_pc_mean_absdiff=mean_diff, replications=total)
