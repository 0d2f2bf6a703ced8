"""Data-driven choice of the regularization parameter.

The tuning parameter trades off two failure modes of the first stage: too
little damping keeps the many-instrument bias (it grows with tr P^alpha),
too much damping throws away the identifying variation (the fit of the
optimal-instrument direction deteriorates).  The selected alpha minimizes a
plug-in estimate of the dominant mean-squared-error term along the
endogenous effect, gamma_bar = e1,

    S_hat(alpha) = s2_eps * [ w_hat(alpha) - s2_v tr(P^2)/n
                              + s2_eps (tr P)^2 ||D iota||^2 / n ],

where w_hat is a goodness-of-fit criterion for the first-stage regression of
R Z H^{-1} e1 on the instruments: Mallows Cp, generalized cross-validation,
or leave-one-out cross-validation (``criterion`` "cp", "gcv" or "loo").
D = J R W S^{-1} R^{-1} is evaluated at preliminary estimates.  Z and the
coordinates psi'R Z that give H are read from the roster's ``FirstStage``,
the same one the regularized fit then reads.  The search runs over
``default_grid`` for each scheme kind and scores the whole grid in one
array pass, from one (grid x rank) matrix of damping weights; the
criterion and S_hat at every grid point are kept as the result's ``curve``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimation import FirstStage, NumericalFailure
from .identification import CLUSTER_TOL
from .regularization import Scheme, Spectrum, _grid_weights
from .transforms import whiten, whitened_residual

__all__ = [
    "SelectionContext",
    "SelectionResult",
    "prepare_selection",
    "select_from_context",
    "select_alpha",
    "default_grid",
    "curve_to_csv",
]

_CRITERIA = ("cp", "gcv", "loo")


def _check_criterion(criterion: str) -> None:
    """Refuse a goodness-of-fit criterion outside ``_CRITERIA``."""
    if criterion not in _CRITERIA:
        raise ValueError(f"criterion must be one of {', '.join(_CRITERIA)}, "
                         f"got {criterion!r}")


def default_grid(kind: str, spectrum: Spectrum, min_components: int) -> np.ndarray:
    """Default search grids per scheme kind.

    T: 40 log-spaced penalties from 1e-8 up to 10 nu_1^2 (the damping weight
    nu^2/(nu^2 + alpha) only moves for alpha of the order of the squared
    eigenvalues, so the upper end adapts to the spectrum's scale).
    LF: doubling iteration counts 1, 2, 4, ..., 2^14.
    PC: every component count from ``min_components`` (fewer kept components
    than second-stage regressors cannot give an invertible sandwich) up to
    the retained rank that ends an eigenvalue cluster.  Adjacent
    eigenvalues within ``CLUSTER_TOL`` of the larger one form one cluster;
    its eigenvectors are an arbitrary basis of one eigenspace, so a count
    inside it would keep an arbitrary subspace.  The rank always ends one.
    """
    if kind == "T":
        return np.geomspace(1e-8, max(1.0, 10.0 * spectrum.nu_max ** 2), 40)
    if kind == "LF":
        return np.array([2 ** k for k in range(15)], dtype=float)
    if kind == "PC":
        lo = min(max(1, min_components), spectrum.rank)
        nu = spectrum.eigenvalues
        ends = np.append(np.flatnonzero(nu[:-1] - nu[1:] > CLUSTER_TOL * nu[:-1]) + 1,
                         spectrum.rank)
        return ends[ends >= lo].astype(float)
    raise ValueError(f"unknown scheme kind {kind!r}")


@dataclass(frozen=True)
class SelectionContext:
    """Preliminary quantities shared by every grid point.

    Built once per dataset: the instrument spectrum, the target direction
    w = J R Z H^{-1} e1 with H estimated at the undamped projection,
    the residual variance of that direction, the structural noise variance,
    and the squared norm of D iota entering the bias proxy.
    """

    spectrum: Spectrum
    w: np.ndarray
    coef: np.ndarray            # psi' w, in the spectrum's coordinates
    sigma2_eps: float
    sigma2_v: float
    bias_factor: float          # ||D iota||^2 / n
    criterion: str
    min_components: int         # second stage needs this many kept components

    @property
    def n(self) -> int:
        return self.spectrum.n


def prepare_selection(stage: FirstStage, delta_tilde: np.ndarray,
                      criterion: str) -> SelectionContext:
    """Assemble the per-dataset selection context from the roster's first stage.

    The stage already holds Z and the coordinates U = psi'R Z at its
    rho_tilde, so H and the target direction cost one whitened n-vector.
    D iota comes from the stage too: kept by the bias-corrected fit at the
    same lambda_tilde, or solved on iota alone.
    """
    _check_criterion(criterion)
    network, rho_tilde, spectrum = stage.network, stage.rho_tilde, stage.spectrum
    delta_tilde = np.asarray(delta_tilde, dtype=float)
    J = network.J
    e1 = np.zeros(stage.Z.shape[1])
    e1[0] = 1.0

    # H estimated with the undamped projection (all components kept); the
    # target direction is J-projected because the instruments live in the
    # J space: group-level content of R Z is unfittable by construction and
    # would otherwise inflate the first-stage residual variance
    H = stage.U.T @ stage.U / network.n
    h_dir = np.linalg.solve(H, e1)
    w = J.apply(whiten(network, rho_tilde, stage.Z @ h_dir))
    coef = spectrum.coords(w)
    resid_full = w - spectrum.expand(coef)
    sigma2_v = float(resid_full @ resid_full) / network.n

    eps_hat = whitened_residual(network, rho_tilde, stage.data.y, stage.Z, delta_tilde)
    sigma2_eps = float(eps_hat @ eps_hat) / network.n

    # squared norm of D iota, averaged over observations: the raw sum grows
    # like n and would make the bias proxy drown the fit terms for every
    # alpha, contradicting the 1/(n alpha^2) order of the term it estimates
    t = J.apply(stage.D_iota(float(delta_tilde[0])))
    bias_factor = float(t @ t) / network.n

    return SelectionContext(
        spectrum=spectrum, w=w, coef=coef, sigma2_eps=sigma2_eps,
        sigma2_v=sigma2_v, bias_factor=bias_factor,
        criterion=criterion, min_components=stage.Z.shape[1],
    )


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def _score_grid(ctx: SelectionContext, kind: str, grid) -> tuple[np.ndarray, np.ndarray]:
    """(criterion, S_hat) at every grid point of one scheme kind, in one array pass.

    The goodness-of-fit criteria:

        Mallows Cp:  v'v/n + 2 s2_v tr(P)/n
        GCV:         (v'v/n) / (1 - tr(P)/n)^2, rejected when tr(P) >= n
        LOO:         mean of squared leave-one-out residuals, computed through
                     the linear-smoother identity r_i / (1 - P_ii); the tests
                     hold the literal delete-one refit it is checked against.

    Row i of the (grid x rank) weight matrix q holds the damping weights at
    ``grid[i]``, so tr P and tr P^2 are row sums and the first-stage
    residual ||(I - P) w||^2 = w'w - ((2 - q) q) coef^2 is one product.
    LOO takes its n x grid residuals from one ``expand`` of the rank x grid
    coefficients and its leverages from one ``weighted_diagonal`` of q;
    psi is never formed.
    """
    spectrum = ctx.spectrum
    q = _grid_weights(kind, grid, spectrum)
    n = ctx.n
    tr_P = q.sum(axis=1)
    if ctx.criterion == "loo":
        resid = ctx.w[:, None] - spectrum.expand(q.T * ctx.coef[:, None])
        denom = 1.0 - spectrum.weighted_diagonal(q)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(np.abs(denom) > 1e-12, resid / denom, np.inf)
        fit = np.mean(r ** 2, axis=0)
    else:
        rss = float(ctx.w @ ctx.w) - ((2.0 - q) * q) @ (ctx.coef ** 2)
        if ctx.criterion == "cp":
            fit = rss / n + 2.0 * ctx.sigma2_v * tr_P / n
        else:
            if np.any(tr_P >= n):
                bad = float(tr_P[tr_P >= n][0])
                raise NumericalFailure(f"GCV undefined: tr(P) = {bad:.3g} >= n = {n}")
            fit = (rss / n) / (1.0 - tr_P / n) ** 2
    values = ctx.sigma2_eps * (fit - ctx.sigma2_v * (q ** 2).sum(axis=1) / n
                               + ctx.sigma2_eps * tr_P ** 2 * ctx.bias_factor / n)
    return fit, values


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectionResult:
    """Chosen parameter plus the full audit curve (in grid order)."""

    scheme: Scheme
    criterion: str
    curve: tuple[tuple[float, float, float], ...]  # (alpha, criterion, S_hat)


def select_from_context(ctx: SelectionContext, kind: str) -> SelectionResult:
    """Minimize S_hat over ``default_grid``; ties go to the more regularized point.

    The grid ascends, so more regularization (a larger Tikhonov penalty,
    fewer iterations or components) lies at its end for T and at its start
    otherwise.
    """
    grid = default_grid(kind, ctx.spectrum, ctx.min_components)
    crits, values = _score_grid(ctx, kind, grid)
    finite = np.isfinite(values)
    if not np.any(finite):
        raise NumericalFailure("selection curve has no finite values")
    ties = np.flatnonzero(values == values[finite].min())
    g = float(grid[ties[-1] if kind == "T" else ties[0]])
    scheme = Scheme.tikhonov(g) if kind == "T" else Scheme(kind, 1.0 / round(g))
    alphas = grid if kind == "T" else 1.0 / grid
    curve = tuple(zip(alphas.tolist(), crits.tolist(), values.tolist()))
    return SelectionResult(scheme=scheme, criterion=ctx.criterion, curve=curve)


def select_alpha(stage: FirstStage, kind: str, criterion: str,
                 delta_tilde: np.ndarray) -> SelectionResult:
    """End-to-end alpha selection for one scheme kind on a roster's first stage.

    Deterministic given the data: no randomness enters the search, and the
    returned curve follows the grid order for audit and export.
    """
    return select_from_context(prepare_selection(stage, delta_tilde, criterion), kind)


def curve_to_csv(result: SelectionResult) -> str:
    """The audit curve as CSV text with columns (alpha, criterion, S_hat)."""
    rows = ["alpha,criterion,S_hat"]
    rows += [f"{a:.6g},{c:.6g},{s:.6g}" for a, c, s in result.curve]
    return "\n".join(rows) + "\n"
