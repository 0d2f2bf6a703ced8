"""Spectral identification diagnostics for network-interaction models.

The endogenous and contextual effects are identified through the spectrum of
the adjacency matrix: with only two distinct eigenvalues the Cayley-Hamilton
theorem makes W^2 a combination of I and W, the excluded instruments collapse
onto the included regressors, and the effects are not identified.  With more
distinct eigenvalues, identification rests on the instrument stack
[WX, W^2 X, ..., W^{d-1} X, X] having full column rank, and its conditioning
measures how close the model is to that failure (near-perfect collinearity of
the first stage = weak identification).  ``build_report`` gives both answers.

Every function takes a ``GroupedNetwork``: the spectrum of its block-diagonal
W is the union of the block spectra, and the stack is built with its
block-wise lags.  A single adjacency matrix W is the one-group network
``GroupedNetwork.from_blocks([W], [M])``.  The spectral results assume a
symmetric W (undirected network); asymmetric blocks are refused rather than
silently symmetrized.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .graphs import GroupedNetwork, _as_rows

__all__ = [
    "Verdict",
    "IdentificationReport",
    "distinct_eigenvalues",
    "labelled_stack",
    "lee_reduced_coefficient",
    "build_report",
]

#: symmetry tolerance for spectral diagnostics, relative to max |W|
SYMMETRY_TOL = 1e-10
#: default relative gap below which eigenvalues belong to one cluster
CLUSTER_TOL = 1e-8
#: relative singular-value cutoff for numerical rank decisions
RANK_TOL = 1e-10
#: Gram condition number above which identification is flagged as weak
WEAK_CONDITION_THRESHOLD = 1e6


class Verdict(str, enum.Enum):
    NOT_IDENTIFIED = "NotIdentified"
    POSSIBLY_IDENTIFIED = "PossiblyIdentified"
    IDENTIFIED = "Identified"
    WEAKLY_IDENTIFIED = "WeaklyIdentified"

    def __str__(self) -> str:  # print as the bare label
        return self.value


class AsymmetricMatrixError(ValueError):
    """Raised when a spectral diagnostic receives an asymmetric matrix."""

    def __init__(self, max_asymmetry: float):
        self.max_asymmetry = float(max_asymmetry)
        super().__init__(
            "matrix is not symmetric (max |W - W'| = "
            f"{self.max_asymmetry:.3e}); the spectral identification results "
            "cover undirected (symmetric) networks only"
        )


def _require_symmetric(stacks: tuple[np.ndarray, ...]) -> None:
    """Refuse the W stacks unless every block is symmetric to SYMMETRY_TOL * max |W|."""
    asym = max(float(np.abs(S - np.swapaxes(S, -1, -2)).max()) for S in stacks)
    if asym > SYMMETRY_TOL * max(float(np.abs(S).max()) for S in stacks):
        raise AsymmetricMatrixError(asym)


def distinct_eigenvalues(network: GroupedNetwork, tol: float = CLUSTER_TOL,
                         ) -> tuple[int, list[tuple[float, int]]]:
    """Count distinct eigenvalues of the network's symmetric W by gap clustering.

    The spectrum of the block-diagonal W is the union of the spectra of the
    blocks, each of which must be symmetric; they are decomposed with one
    batched ``eigvalsh`` per group size.
    Eigenvalues are sorted descending; a new cluster opens whenever the gap
    to the previous eigenvalue exceeds ``tol * max |nu|``, so the count does
    not change when W is rescaled; a zero W is one cluster.  Returns the
    cluster count and a list of (cluster mean, multiplicity) pairs.
    "Distinct" is exact only in exact arithmetic, hence the tolerance knob;
    a NaN or negative ``tol`` is refused.
    """
    if not tol >= 0.0:          # NaN compares false
        raise ValueError(f"tol must be a nonnegative number, got {tol}")
    stacks = network.stacks_W().stacks()
    _require_symmetric(stacks)
    vals = np.sort(np.concatenate([np.linalg.eigvalsh(S).ravel() for S in stacks]))[::-1]
    gaps = np.flatnonzero(vals[:-1] - vals[1:] > tol * np.abs(vals).max()) + 1
    summary = [(float(c.mean()), c.size) for c in np.split(vals, gaps)]
    return len(summary), summary


def _stack_width(X: np.ndarray, order: int, centrality_columns: int,
                 doubled: bool) -> int:
    """Column count of ``labelled_stack`` on these arguments, after its checks."""
    if X.size == 0 or X.shape[1] == 0:
        raise ValueError("X must have at least one column")
    if order < 1:
        raise ValueError("order must be >= 1")
    return (X.shape[1] * (order + 1) + centrality_columns * order) * (2 if doubled else 1)


def labelled_stack(network: GroupedNetwork, X: np.ndarray, order: int,
                   centrality: bool = False, m_copy: bool = False,
                   ) -> tuple[np.ndarray, np.ndarray | None, list[str]]:
    """Columns [W X, ..., W^order X, X(, M copy)] and the centrality powers.

    W and M are the network's, applied with its block-wise lags; ``X`` is
    n x k.  With ``centrality`` each power W^j also contributes one column
    per group, W^j iota_r on group r's rows, iota being the network's
    ``group_ones()``: those are returned as the n x order matrix V, whose
    column j is W^j 1 (column r of the power's block is that vector on
    group r's rows), and None without.  With ``m_copy`` the stack and V are
    each doubled by their M-premultiplied copies.  Returns the stack, V and
    one provenance label per column: the stack's, ``W^j.X[c]`` and
    ``X[c]``, then V's, one per group and power in order, ``W^j.iota[r]``;
    ``M.`` in front of the copies' labels.
    """
    _stack_width(X, order, network.group_count if centrality else 0, m_copy)  # checks X, order
    cols, labels = [], []
    lag = X
    for j in range(1, order + 1):
        lag = network.lag_W(lag)
        cols.append(lag)
        labels += [f"W^{j}.X[{c}]" for c in range(X.shape[1])]
    cols.append(X)
    labels += [f"X[{c}]" for c in range(X.shape[1])]
    stack, V, per_group = np.column_stack(cols), None, []
    if centrality:
        powers = [network.lag_W(np.ones(network.n))]
        for _ in range(1, order):
            powers.append(network.lag_W(powers[-1]))
        V = np.column_stack(powers)
        per_group = [f"W^{j}.iota[{r}]" for j in range(1, order + 1)
                     for r in range(network.group_count)]
    if m_copy:
        stack = np.column_stack([stack, network.lag_M(stack)])
        labels += [f"M.{lab}" for lab in labels]
        if V is not None:
            V = np.column_stack([V, network.lag_M(V)])
            per_group += [f"M.{lab}" for lab in per_group]
    return stack, V, labels + per_group


def _rank_and_condition(stack: np.ndarray) -> tuple[int, bool, float]:
    svals = np.linalg.svd(stack, compute_uv=False)
    smax = svals[0] if svals.size else 0.0
    rank = int(np.sum(svals > RANK_TOL * smax)) if smax > 0 else 0
    full = rank == stack.shape[1]
    # condition number of the Gram matrix stack'stack = squared sv ratio
    smin = svals[-1] if svals.size else 0.0
    if smin <= RANK_TOL * smax or smax == 0.0:
        cond = math.inf
    else:
        cond = float((smax / smin) ** 2)
    return rank, full, cond


def _stack_rank_check(network: GroupedNetwork, X: np.ndarray, count: int,
                      correlated: bool) -> tuple[bool, float]:
    """Rank flag and Gram condition number of the stack of order count - 1.

    Without spatial error correlation the stack is [WX, ..., W^{d-1} X, X];
    with it (``correlated``) the centrality columns and the M-lagged copy
    are added.  A stack with more columns than rows cannot have full column
    rank, so it reports ``(False, inf)`` without being built or decomposed.
    """
    order = max(count - 1, 1)
    if _stack_width(X, order, network.group_count if correlated else 0,
                    correlated) > X.shape[0]:
        return False, math.inf
    stack, V, _ = labelled_stack(network, X, order, correlated, correlated)
    if V is not None:            # the per-group columns written out, a block per power
        ones = network.group_ones()
        stack = np.column_stack([stack, *(v[:, None] * ones for v in V.T)])
    _, full, cond = _rank_and_condition(stack)
    return full, cond


def lee_reduced_coefficient(m_r: int, lam: float, beta1: float, beta2: float) -> float:
    """Within-group reduced-form slope ((m-1) beta1 - beta2) / (m - 1 + lambda).

    In the equal-weight group design, each group size contributes one such
    coefficient; identification lives off their variation across group sizes,
    and the variation vanishes as groups grow (weak identification).
    """
    if m_r < 2:
        raise ValueError("group size must be at least 2")
    denom = m_r - 1 + lam
    if denom == 0:
        raise ZeroDivisionError("m_r - 1 + lambda = 0: reduced form undefined")
    return ((m_r - 1) * beta1 - beta2) / denom


@dataclass(frozen=True)
class IdentificationReport:
    """Spectral identification summary for one network (plus optional X).

    ``verdict`` thresholds (cluster tolerance, weak-identification condition
    number) are engineering choices, echoed in the report so downstream
    readers can see which knobs produced the labels.
    """

    distinct_eigenvalue_count: int
    eigenvalue_clusters: tuple[tuple[float, int], ...]
    stack_condition_number: float | None
    rank_flag: bool | None
    verdict: Verdict
    cluster_tol: float = CLUSTER_TOL
    weak_threshold: float = WEAK_CONDITION_THRESHOLD

    def __post_init__(self) -> None:
        n = sum(m for _, m in self.eigenvalue_clusters)
        if not 1 <= self.distinct_eigenvalue_count <= n:
            raise ValueError("cluster count out of range")
        if self.distinct_eigenvalue_count == 2 and self.verdict != Verdict.NOT_IDENTIFIED:
            raise ValueError("two distinct eigenvalues force the NotIdentified verdict")

    def lines(self) -> list[str]:
        """Key-value rendering used by the command-line surface."""
        out = [
            f"verdict = {self.verdict}",
            f"distinct_eigenvalues = {self.distinct_eigenvalue_count}",
        ]
        shown = ", ".join(f"{v:.6g} (x{m})" for v, m in self.eigenvalue_clusters[:12])
        if len(self.eigenvalue_clusters) > 12:
            shown += ", ..."
        out.append(f"eigenvalue_clusters = {shown}")
        out.append("rank_full = " + ("-" if self.rank_flag is None else str(self.rank_flag).lower()))
        if self.stack_condition_number is None:
            out.append("stack_condition_number = -")
        else:
            out.append(f"stack_condition_number = {self.stack_condition_number:.6g}")
        out.append(f"cluster_tol = {self.cluster_tol:.6g}")
        out.append(f"weak_condition_threshold = {self.weak_threshold:.6g}")
        return out


def build_report(network: GroupedNetwork,
                 X: np.ndarray | None = None,
                 rho_zero: bool = True,
                 tol: float = CLUSTER_TOL,
                 weak_threshold: float = WEAK_CONDITION_THRESHOLD,
                 ) -> IdentificationReport:
    """Assemble the full identification report.

    Two distinct eigenvalues give NotIdentified.  Otherwise, with covariates
    X, the verdict follows the rank flag and the Gram condition number of
    the identification stack (with the correlated-disturbance columns unless
    ``rho_zero``); an infinite condition number marks exact rank deficiency.
    Without covariates the rank check cannot run: the verdict is then
    PossiblyIdentified, and the rank/condition fields stay empty.  A NaN or
    negative ``weak_threshold`` is refused, as is such a ``tol``.
    """
    if not weak_threshold >= 0.0:
        raise ValueError("weak_threshold must be a nonnegative number, "
                         f"got {weak_threshold}")
    count, clusters = distinct_eigenvalues(network, tol)
    rank_flag: bool | None = None
    cond: float | None = None
    if X is not None:
        rank_flag, cond = _stack_rank_check(network, _as_rows(X, network.n), count,
                                            not rho_zero)
    if count == 2:
        verdict = Verdict.NOT_IDENTIFIED
    elif rank_flag is None:
        verdict = Verdict.POSSIBLY_IDENTIFIED
    elif not rank_flag:
        verdict = Verdict.NOT_IDENTIFIED
    elif cond is not None and cond > weak_threshold:
        verdict = Verdict.WEAKLY_IDENTIFIED
    else:
        verdict = Verdict.IDENTIFIED
    return IdentificationReport(
        distinct_eigenvalue_count=count,
        eigenvalue_clusters=tuple((float(v), int(m)) for v, m in clusters),
        stack_condition_number=cond,
        rank_flag=rank_flag,
        verdict=verdict,
        cluster_tol=tol,
        weak_threshold=weak_threshold,
    )
