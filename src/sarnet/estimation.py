"""2SLS estimators for the network model: preliminary, regularized, bias-corrected.

All estimators work on the transformed structural equation (fixed effects
swept by J, disturbances whitened by R(rho) at a preliminary rho) with
Z = (W Y, X) as the regressor block, X = (X1, W X2).  The regularized
estimator solves

    delta_hat = (Z' R' P^alpha R Z)^{-1} Z' R' P^alpha R Y,

where P^alpha is the damped projection on the instrument space; with the
undamped projection this is classical 2SLS.  The bias-corrected variant is
the many-instrument estimator minus a plug-in estimate of its leading
instrument-count bias, in the spirit of Liu and Lee (2010).

Every fit on one instrument roster shares its first stage: ``first_stage``
decomposes the roster's spectrum, whitens [Z y] at rho_tilde and projects
it on that spectrum once, and ``regularized_2sls``, ``classical_2sls`` and
``bias_corrected_2sls`` take that ``FirstStage`` and differ only in their
damping weights; the bias trace is the spectrum's ``weighted_trace``.  At
rho_tilde = 0, R is the identity and the whitening does no work.
``preliminary_delta`` is one more such fit, on the small roster at rho = 0.
``NumericalFailure`` is re-exported from ``instruments``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .graphs import GroupedNetwork, PanelData
from .instruments import InstrumentSet, NumericalFailure
from .regularization import Scheme, Spectrum, q_weights
from .transforms import apply_D, assemble_z, whiten, whitened_residual

__all__ = [
    "EstimationResult",
    "FirstStage",
    "NumericalFailure",
    "SingularSystemError",
    "assemble_z",
    "preliminary_delta",
    "preliminary_rho",
    "first_stage",
    "regularized_2sls",
    "classical_2sls",
    "bias_corrected_2sls",
]

#: condition number beyond which a normal-equations solve is refused
CONDITION_LIMIT = 1e12
#: interval searched by the method-of-moments rho
RHO_BOUNDS = (-0.99, 0.99)


class SingularSystemError(np.linalg.LinAlgError):
    """A (near-)singular linear system, carrying its condition number."""

    def __init__(self, what: str, condition_number: float):
        self.condition_number = float(condition_number)
        super().__init__(
            f"{what} is numerically singular (condition number {condition_number:.3e})"
        )


@dataclass(frozen=True)
class EstimationResult:
    """Point estimates plus the diagnostics that produced them.

    ``std_errors`` come from the asymptotic form sigma2 * (Z'R'P R Z)^{-1}
    and do not account for the data-driven choice of the regularization
    parameter; treat them as indicative when alpha was selected.
    """

    delta: np.ndarray
    std_errors: np.ndarray
    rho_tilde: float
    sigma2_hat: float
    scheme: Scheme
    tr_P: float
    condition_number: float
    k1: int
    k2: int
    n: int

    @property
    def lambda_hat(self) -> float:
        return float(self.delta[0])

    @property
    def beta1_hat(self) -> np.ndarray:
        return self.delta[1:1 + self.k1]

    @property
    def beta2_hat(self) -> np.ndarray:
        return self.delta[1 + self.k1:]


def _checked_solve(A: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularSystemError(what, cond)
    return np.linalg.solve(A, b)


# ---------------------------------------------------------------------------
# Preliminary estimators
# ---------------------------------------------------------------------------

def preliminary_delta(data: PanelData, network: GroupedNetwork,
                      q1: InstrumentSet) -> np.ndarray:
    """Classical 2SLS of q1's first stage at rho = 0: delta_tilde = [Z'P Z]^{-1} Z'P Y.

    Seeds the method-of-moments rho and the selection plug-ins.  Collinear
    roster columns (M proportional to W on a regular graph) drop out of the
    spectrum; the second-stage normal equations must still be invertible.
    """
    return classical_2sls(first_stage(data, network, q1, 0.0)).delta


def preliminary_rho(data: PanelData, network: GroupedNetwork,
                    delta_tilde: np.ndarray) -> float:
    """Method-of-moments rho: the exact minimizer of ||g(rho)||^2 on [-0.99, 0.99].

    g(rho) stacks eps(rho)' M_i eps(rho) for the three recentered quadratic
    moment matrices built from W, M and MW, with eps(rho) = J R(rho)(Y - Z
    delta_tilde).  Each moment is quadratic in rho, g_k(rho) = c_k0 +
    c_k1 rho + c_k2 rho^2, so the objective is the quartic whose
    coefficients a (ascending powers) are sum_k conv(c_k, c_k); its
    derivative's are j a_j, j = 1..4.  A moment with no rho^2 term leaves
    rounding noise (~1e-16 of the other coefficients) on top, and the
    companion matrix of such a cubic loses the genuine roots, so the
    derivative's top coefficients at most 1e-12 times its largest in
    absolute value are dropped first.  The candidates are the real parts of
    the remaining roots (``np.roots``, the companion matrix's eigenvalues,
    sorted) clipped to the interval.  They can be 1e-8 off, so each one
    inside takes two Newton steps on f'/2 = sum_k g_k g_k' with
    f''/2 = sum_k (g_k'^2 + 2 c_k2 g_k) from the moments, only where
    f'' > 0 and stopping at a bound.  Those and both bounds are evaluated;
    the first smallest value wins.
    A numerically zero residual (squared norm at most 1e-24 y'y, a threshold
    that scales with the data) makes the objective flat; by convention that
    returns 0 with a warning.
    """
    J = network.J
    Z = assemble_z(data, network)
    e = data.y - Z @ np.asarray(delta_tilde, dtype=float)
    # eps(rho) = a - rho b with a = J e and b = J M e, both in J's range, so
    # a'(J A J - cI)b = a'A b - c a'b: each moment is one 2x2 form of [a b]
    ab = J.apply(np.column_stack([e, network.lag_M(e)]))
    gram = ab.T @ ab
    if np.trace(gram) <= 1e-24 * float(data.y @ data.y):
        warnings.warn("rho objective is degenerate (residual ~ 0); returning 0")
        return 0.0
    moments = np.empty((3, 3))
    for k, A in enumerate((network.stacks_W(), network.stacks_M(), network.stacks_MW())):
        c = J.trace_product(A) / J.trace       # tr(J A J) = tr(J A), J idempotent
        F = ab.T @ A.matmul(ab) - c * gram
        moments[k] = F[0, 0], -(F[0, 1] + F[1, 0]), F[1, 1]
    return _rho_argmin(moments)


def _rho_argmin(moments: np.ndarray) -> float:
    """The rho in [-0.99, 0.99] minimizing sum_k (moments[k] @ (1, rho, rho^2))^2,
    by the convention ``preliminary_rho`` states."""
    lo, hi = RHO_BOUNDS
    quartic = sum(np.convolve(g, g) for g in moments)
    slopes = quartic[1:] * np.arange(1, quartic.size)
    kept = np.flatnonzero(np.abs(slopes) > 1e-12 * np.abs(slopes).max())
    slopes = slopes[:kept[-1] + 1 if kept.size else 1]
    rho = np.clip(np.sort(np.roots(slopes[::-1])).real, lo, hi)
    c0, c1, c2 = moments[:, :1], moments[:, 1:2], moments[:, 2:]
    for _ in range(2):
        g, dg = (c2 * rho + c1) * rho + c0, 2.0 * c2 * rho + c1
        slope, curvature = (g * dg).sum(axis=0), (dg * dg + 2.0 * c2 * g).sum(axis=0)
        step = (rho > lo) & (rho < hi) & (curvature > 0.0)
        rho[step] = np.clip(rho[step] - slope[step] / curvature[step], lo, hi)
    candidates = np.concatenate([rho, [lo, hi]])
    g = (c2 * candidates + c1) * candidates + c0
    return float(candidates[np.argmin((g * g).sum(axis=0))])


# ---------------------------------------------------------------------------
# Regularized and classical 2SLS
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FirstStage:
    """One instrument roster's first stage, shared by every fit on it.

    Holds the roster's spectrum, Z = (W Y, X1, W X2) and the spectrum
    coordinates U = psi'R Z and uy = psi'R y of the whitened data at
    ``rho_tilde``; ``first_stage`` builds it.  The fits differ only in their
    damping weights, so any number of them read one stage.

    D at (lambda, rho_tilde) is applied through ``apply_D``, which solves
    for iota alongside and keeps D iota; the selection context at the same
    lambda reads it from ``D_iota`` instead of solving again.  Each fit made
    on the stage is kept too, keyed by its scheme, so the bias correction
    starts from the classical fit instead of refitting it.
    """

    data: PanelData
    network: GroupedNetwork
    instruments: InstrumentSet
    spectrum: Spectrum
    rho_tilde: float
    Z: np.ndarray
    U: np.ndarray
    uy: np.ndarray
    _D_iota: dict = field(default_factory=dict, repr=False, compare=False)
    _fits: dict = field(default_factory=dict, repr=False, compare=False)

    def apply_D(self, lam: float, V: np.ndarray) -> np.ndarray:
        """D V at (lam, rho_tilde), iota solved as one more column and D iota kept."""
        DV = apply_D(self.network, lam, self.rho_tilde,
                     np.column_stack([V, np.ones(self.network.n)]))
        self._D_iota[lam] = DV[:, -1].copy()
        return DV[:, :-1]

    def D_iota(self, lam: float) -> np.ndarray:
        """D iota at (lam, rho_tilde): kept by ``apply_D``, or solved on iota alone."""
        if lam not in self._D_iota:
            self._D_iota[lam] = apply_D(self.network, lam, self.rho_tilde,
                                        np.ones(self.network.n))
        return self._D_iota[lam]


def first_stage(data: PanelData, network: GroupedNetwork, instruments: InstrumentSet,
                rho_tilde: float) -> FirstStage:
    """Decompose the instruments' spectrum and project R(rho_tilde)[Z y] on it."""
    spectrum = Spectrum.from_instruments(instruments)
    Z = assemble_z(data, network)
    Uy = spectrum.coords(whiten(network, rho_tilde, np.column_stack([Z, data.y])))
    return FirstStage(data, network, instruments, spectrum, rho_tilde, Z,
                      Uy[:, :-1], Uy[:, -1])


def _fit(stage: FirstStage, scheme: Scheme) -> tuple[EstimationResult, np.ndarray, np.ndarray]:
    """The one (regularized) 2SLS fit per scheme, kept on the stage: (result, q, A).

    The damping weights q are computed once, from the stage's spectrum, and
    serve the normal equations A delta = U'(q uy), with A = U' diag(q) U
    formed from the stage's coordinates psi'R[Z y], and tr P.  The result's
    arrays are read-only, since every caller of the scheme shares them.
    """
    if scheme in stage._fits:
        return stage._fits[scheme]
    data, network, rho_tilde = stage.data, stage.network, stage.rho_tilde
    spectrum = stage.spectrum
    q = q_weights(scheme, spectrum)
    U = stage.U
    A = U.T @ (q[:, None] * U)
    delta = _checked_solve(A, U.T @ (q * stage.uy), "regularized 2SLS normal equations")
    eps_hat = whitened_residual(network, rho_tilde, data.y, stage.Z, delta)
    sigma2 = float(eps_hat @ eps_hat) / network.n
    se = np.sqrt(np.maximum(np.diag(sigma2 * np.linalg.inv(A)), 0.0))
    delta.flags.writeable = se.flags.writeable = False
    result = EstimationResult(
        delta=delta, std_errors=se, rho_tilde=float(rho_tilde),
        sigma2_hat=sigma2, scheme=scheme,
        tr_P=float(q.sum()), condition_number=spectrum.condition_number,
        k1=data.k1, k2=data.k2, n=network.n,
    )
    stage._fits[scheme] = result, q, A
    return stage._fits[scheme]


def regularized_2sls(stage: FirstStage, scheme: Scheme) -> EstimationResult:
    """Damped-projection 2SLS of the transformed structural equation.

    The instrument projection is applied through the spectrum of Q Q'/n, so
    P^alpha is never materialized; the normal equations reduce to a
    (1 + k1 + k2) square solve.  sigma2 comes from the structural residuals
    at (delta_hat, rho_tilde) divided by n.
    """
    return _fit(stage, scheme)[0]


def classical_2sls(stage: FirstStage) -> EstimationResult:
    """Ordinary-projection 2SLS: the principal-components scheme kept in full."""
    return regularized_2sls(stage, Scheme.principal_components(stage.spectrum.rank))


def bias_corrected_2sls(stage: FirstStage, lambda_tilde: float) -> EstimationResult:
    """Classical (many-instrument) 2SLS minus the plug-in estimate of its leading bias.

    The correction targets the endogenous-effect coordinate:

        b_hat = sigma2_hat * tr(P R W S^{-1} R^{-1}) * (Z'R'P R Z)^{-1} e_1,

    evaluated at the preliminary (rho_tilde, lambda_tilde) and the fitted
    sigma2 of the uncorrected estimator.  P keeps every principal component,
    so tr P is the instrument rank, at least 1.  The uncorrected fit is the
    stage's classical fit, made once whichever of the two is asked for first.
    """
    fit, q, A = _fit(stage, Scheme.principal_components(stage.spectrum.rank))
    tr_PD = stage.spectrum.weighted_trace(q, lambda V: stage.apply_D(lambda_tilde, V))
    e1 = np.zeros(fit.delta.size)
    e1[0] = 1.0
    correction = fit.sigma2_hat * tr_PD * _checked_solve(A, e1, "bias-correction sandwich")
    return replace(fit, delta=fit.delta - correction)
