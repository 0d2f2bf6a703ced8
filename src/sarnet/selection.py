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
D = J R W S^{-1} R^{-1} is evaluated at preliminary estimates.  The search
runs over ``default_grid`` for each scheme kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graphs import GroupedNetwork, PanelData
from .instruments import InstrumentSet
from .regularization import (Scheme, Spectrum, projector_diagonal, q_weights)
from .transforms import apply_D, assemble_z, whiten, whitened_residual

__all__ = [
    "SelectionContext",
    "SelectionResult",
    "prepare_selection",
    "criterion_value",
    "s_hat",
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


def default_grid(kind: str, spectrum: Spectrum, min_components: int = 1) -> np.ndarray:
    """Default search grids per scheme kind.

    T: 40 log-spaced penalties from 1e-8 up to 10 nu_1^2 (the damping weight
    nu^2/(nu^2 + alpha) only moves for alpha of the order of the squared
    eigenvalues, so the upper end adapts to the spectrum's scale).
    LF: doubling iteration counts 1, 2, 4, ..., 2^14.
    PC: every component count from ``min_components`` (fewer kept components
    than second-stage regressors cannot give an invertible sandwich) up to
    the retained rank.
    """
    if kind == "T":
        return np.geomspace(1e-8, max(1.0, 10.0 * spectrum.nu_max ** 2), 40)
    if kind == "LF":
        return np.array([2 ** k for k in range(15)], dtype=float)
    if kind == "PC":
        lo = min(max(1, min_components), spectrum.rank)
        return np.arange(lo, spectrum.rank + 1, dtype=float)
    raise ValueError(f"unknown scheme kind {kind!r}")


@dataclass(frozen=True)
class SelectionContext:
    """Preliminary quantities shared by every grid point.

    Built once per dataset: the instrument spectrum, the target direction
    w = R Z H^{-1} e1 with H estimated at the undamped projection,
    the residual variance of that direction, the structural noise variance,
    and the squared norm of D iota entering the bias proxy.
    """

    spectrum: Spectrum
    w: np.ndarray
    coef: np.ndarray            # psi' w, cached
    sigma2_eps: float
    sigma2_v: float
    bias_factor: float          # ||D iota||^2 / n
    criterion: str
    min_components: int         # second stage needs this many kept components

    @property
    def n(self) -> int:
        return self.spectrum.n


def prepare_selection(data: PanelData, network: GroupedNetwork,
                      instruments: InstrumentSet, rho_tilde: float,
                      delta_tilde: np.ndarray,
                      criterion: str = "cp") -> SelectionContext:
    """Assemble the per-dataset selection context from preliminary estimates."""
    _check_criterion(criterion)
    spectrum = instruments.spectrum
    delta_tilde = np.asarray(delta_tilde, dtype=float)
    J = network.J

    Z = assemble_z(data, network)
    rz = whiten(network, rho_tilde, Z)
    e1 = np.zeros(Z.shape[1])
    e1[0] = 1.0

    # H estimated with the undamped projection (all components kept); the
    # target direction is J-projected because the instruments live in the
    # J space: group-level content of R Z is unfittable by construction and
    # would otherwise inflate the first-stage residual variance
    U = spectrum.vectors.T @ rz
    H = U.T @ U / network.n
    h_dir = np.linalg.solve(H, e1)
    w = J.apply(rz @ h_dir)
    coef = spectrum.vectors.T @ w
    resid_full = w - spectrum.vectors @ coef
    sigma2_v = float(resid_full @ resid_full) / network.n

    eps_hat = whitened_residual(network, rho_tilde, data.y, Z, delta_tilde)
    sigma2_eps = float(eps_hat @ eps_hat) / network.n

    # squared norm of D iota, averaged over observations: the raw sum grows
    # like n and would make the bias proxy drown the fit terms for every
    # alpha, contradicting the 1/(n alpha^2) order of the term it estimates
    t = J.apply(apply_D(network, float(delta_tilde[0]), rho_tilde,
                        np.ones(network.n)))
    bias_factor = float(t @ t) / network.n

    return SelectionContext(
        spectrum=spectrum, w=w, coef=coef, sigma2_eps=sigma2_eps,
        sigma2_v=sigma2_v, bias_factor=bias_factor,
        criterion=criterion, min_components=Z.shape[1],
    )


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def _first_stage_residual_norm2(ctx: SelectionContext, q: np.ndarray) -> float:
    """||(I - P^alpha) w||^2 using the cached spectral coefficients."""
    w_norm2 = float(ctx.w @ ctx.w)
    return w_norm2 - float(((2.0 - q) * q) @ (ctx.coef ** 2))


def criterion_value(ctx: SelectionContext, scheme: Scheme) -> float:
    """Goodness-of-fit value of the context's criterion at one scheme.

    Mallows Cp:  v'v/n + 2 s2_v tr(P)/n
    GCV:         (v'v/n) / (1 - tr(P)/n)^2, rejected when tr(P) >= n
    LOO:         mean of squared leave-one-out residuals, computed through
                 the linear-smoother identity r_i / (1 - P_ii) (``_loo_refit``
                 is the literal delete-one reference it is tested against).
    """
    q = q_weights(scheme, ctx.spectrum)
    n = ctx.n
    tr_P = float(q.sum())
    if ctx.criterion == "cp":
        return _first_stage_residual_norm2(ctx, q) / n + 2.0 * ctx.sigma2_v * tr_P / n
    if ctx.criterion == "gcv":
        if tr_P >= n:
            raise ValueError(f"GCV undefined: tr(P) = {tr_P:.3g} >= n = {n}")
        return (_first_stage_residual_norm2(ctx, q) / n) / (1.0 - tr_P / n) ** 2
    resid = ctx.w - ctx.spectrum.vectors @ (q * ctx.coef)
    denom = 1.0 - projector_diagonal(ctx.spectrum, scheme)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(np.abs(denom) > 1e-12, resid / denom, np.inf)
    return float(np.mean(r ** 2))


def _loo_refit(ctx: SelectionContext, scheme: Scheme) -> float:
    """Literal delete-one cross-validation.

    The full-sample damping is a penalized least-squares fit on the spectral
    features U = Psi diag(sqrt(n nu)) with per-component penalty
    nu (1 - q)/q (zero-weight components dropped).  For each i the fit is
    re-solved without row i, holding that penalty fixed, and the held-out
    point is predicted.  Quadratic per observation: the slow reference
    that the linear-smoother identity of ``criterion_value`` is tested against.
    """
    q = q_weights(scheme, ctx.spectrum)
    keep = q > 0.0
    if not np.any(keep):
        resid = ctx.w
        return float(np.mean(resid ** 2))
    nu = ctx.spectrum.eigenvalues[keep]
    qk = q[keep]
    n = ctx.n
    U = ctx.spectrum.vectors[:, keep] * np.sqrt(n * nu)
    penalty = np.diag(nu * (1.0 - qk) / qk)
    B = U.T @ U / n + penalty
    Uw = U.T @ ctx.w / n
    total = 0.0
    for i in range(n):
        Bi = B - np.outer(U[i], U[i]) / n
        ci = np.linalg.solve(Bi, Uw - U[i] * ctx.w[i] / n)
        pred = float(U[i] @ ci)
        total += (ctx.w[i] - pred) ** 2
    return total / n


def s_hat(ctx: SelectionContext, scheme: Scheme) -> float:
    """Plug-in estimate of the dominant MSE term of the endogenous effect."""
    return _s_hat_from_fit(ctx, scheme, criterion_value(ctx, scheme))


def _s_hat_from_fit(ctx: SelectionContext, scheme: Scheme, fit: float) -> float:
    """S_hat given the criterion value ``fit`` already computed at ``scheme``."""
    q = q_weights(scheme, ctx.spectrum)
    n = ctx.n
    tr_P = float(q.sum())
    tr_P2 = float((q ** 2).sum())
    return ctx.sigma2_eps * (
        fit
        - ctx.sigma2_v * tr_P2 / n
        + ctx.sigma2_eps * tr_P ** 2 * ctx.bias_factor / n
    )


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectionResult:
    """Chosen parameter plus the full audit curve (in grid order)."""

    alpha_star: float
    scheme: Scheme
    kind: str
    criterion: str
    curve: tuple[tuple[float, float, float], ...]  # (alpha, criterion, S_hat)

    def curve_array(self) -> np.ndarray:
        return np.asarray(self.curve, dtype=float)


def _schemes_for_grid(kind: str, grid: Iterable[float]) -> list[Scheme]:
    schemes = []
    for g in grid:
        if kind == "T":
            schemes.append(Scheme.tikhonov(float(g)))
        elif kind == "LF":
            schemes.append(Scheme.landweber(int(round(g))))
        elif kind == "PC":
            schemes.append(Scheme.principal_components(int(round(g))))
        else:
            raise ValueError(f"unknown scheme kind {kind!r}")
    return schemes


def select_from_context(ctx: SelectionContext, kind: str) -> SelectionResult:
    """Minimize S_hat over ``default_grid``; ties go to the more regularized point."""
    grid = default_grid(kind, ctx.spectrum, ctx.min_components)
    schemes = _schemes_for_grid(kind, grid)
    crits = np.array([criterion_value(ctx, sc) for sc in schemes])
    values = np.array([_s_hat_from_fit(ctx, sc, c) for sc, c in zip(schemes, crits)])
    finite = np.isfinite(values)
    if not np.any(finite):
        raise ValueError("selection curve has no finite values")
    # more regularization = larger Tikhonov penalty, fewer iterations/components
    order = np.argsort(grid)[::-1] if kind == "T" else np.argsort(grid)
    best = None
    for idx in order:
        if finite[idx] and (best is None or values[idx] < values[best]):
            best = idx
    scheme = schemes[best]
    alphas = grid if kind == "T" else 1.0 / grid
    curve = tuple((float(a), float(c), float(v))
                  for a, c, v in zip(alphas, crits, values))
    return SelectionResult(alpha_star=float(scheme.alpha), scheme=scheme,
                           kind=kind, criterion=ctx.criterion, curve=curve)


def select_alpha(data: PanelData, network: GroupedNetwork,
                 instruments: InstrumentSet, kind: str, criterion: str = "cp", *,
                 rho_tilde: float, delta_tilde: np.ndarray) -> SelectionResult:
    """End-to-end alpha selection for one scheme kind.

    Deterministic given the data: no randomness enters the search, and the
    returned curve follows the grid order for audit and export.
    """
    ctx = prepare_selection(data, network, instruments, rho_tilde, delta_tilde,
                            criterion)
    return select_from_context(ctx, kind)


def curve_to_csv(result: SelectionResult) -> str:
    """The audit curve as CSV text with columns (alpha, criterion, S_hat)."""
    rows = ["alpha,criterion,S_hat"]
    rows += [f"{a:.6g},{c:.6g},{s:.6g}" for a, c, s in result.curve]
    return "\n".join(rows) + "\n"
