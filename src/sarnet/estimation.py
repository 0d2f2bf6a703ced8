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
whitens [Z y] at rho_tilde and projects it on the roster's spectrum once,
and ``regularized_2sls``, ``classical_2sls`` and ``bias_corrected_2sls``
take that ``FirstStage`` and differ only in their damping weights.  At
rho_tilde = 0, R is the identity and the whitening does no work.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .graphs import BlockStacks, GroupedNetwork, PanelData
from .instruments import InstrumentSet
from .regularization import Scheme, Spectrum, q_weights
from .transforms import apply_D, assemble_z, gram_D, whiten, whitened_residual

__all__ = [
    "EstimationResult",
    "FirstStage",
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
    scheme: Scheme | None
    alpha_star: float | None
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
    """Classical IV with a small fixed instrument set (no rho transform).

    delta_tilde = [Z'Q(Q'Q)^- Q'Z]^{-1} Z'Q(Q'Q)^- Q'Y, used to seed the
    method-of-moments rho estimate and the regularization plug-ins.  The
    instrument Gram is inverted in the generalized sense (regular graphs
    make M proportional to W and hence some roster columns exactly
    collinear, which is harmless for the projection); the second-stage
    sandwich must still be invertible.
    """
    Z = assemble_z(data, network)
    Q = q1.Q
    coeffs, *_ = np.linalg.lstsq(Q, np.column_stack([Z, data.y]), rcond=None)
    proj = Q @ coeffs
    A = Z.T @ proj[:, :-1]
    b = Z.T @ proj[:, -1]
    return _checked_solve(A, b, "2SLS sandwich")


def _build_moment_ops(network: GroupedNetwork):
    """Operators for M1 = JWJ - cI, M2 = JMJ - cI, M3 = JMWJ - cI.

    Each c is tr(J A J)/tr(J); the recentering makes eps' M_i eps a valid
    moment at the true rho.  Returned as closures acting block by block.
    """
    J = network.J
    W, M = network.stacks_W(), network.stacks_M()
    MW = BlockStacks(network.group_sizes,
                     [M_s @ W_s for M_s, W_s in zip(M.stacks(), W.stacks())])
    ops = []
    specs = [
        (network.lag_W, W),
        (network.lag_M, M),
        (lambda V: network.lag_M(network.lag_W(V)), MW),
    ]
    for lag, A in specs:
        c = J.trace_product(A) / J.trace       # tr(J A J) = tr(J A), J idempotent

        def apply_op(v, lag=lag, c=c):
            return J.apply(lag(J.apply(v))) - c * v

        ops.append(apply_op)
    return ops


def preliminary_rho(data: PanelData, network: GroupedNetwork,
                    delta_tilde: np.ndarray) -> float:
    """Method-of-moments rho: the exact minimizer of ||g(rho)||^2 on [-0.99, 0.99].

    g(rho) stacks eps(rho)' M_i eps(rho) for the three recentered quadratic
    moment matrices built from W, M and MW, with eps(rho) = J R(rho)(Y - Z
    delta_tilde).  Each moment is quadratic in rho, so the objective is a
    quartic polynomial; its minimum over the interval lies at a bound or at
    a real root of the cubic derivative.  Every such candidate (the real
    parts of all three roots, clipped to the interval, and both bounds) is
    evaluated and the smallest objective value wins.  A numerically zero
    residual makes the objective flat; by convention that returns 0 with a
    warning.
    """
    J = network.J
    Z = assemble_z(data, network)
    e = data.y - Z @ np.asarray(delta_tilde, dtype=float)
    a = J.apply(e)
    b = J.apply(network.lag_M(e))
    if float(a @ a + b @ b) < 1e-24 * network.n:
        warnings.warn("rho objective is degenerate (residual ~ 0); returning 0")
        return 0.0
    # each moment is quadratic in rho: eps(rho) = a - rho b
    moments = []
    for op in _build_moment_ops(network):
        Ma, Mb = op(a), op(b)
        moments.append(Polynomial([float(a @ Ma), -float(a @ Mb + b @ Ma),
                                   float(b @ Mb)]))
    lo, hi = RHO_BOUNDS
    slopes = sum(g * g for g in moments).deriv()
    # a moment with no rho^2 term leaves rounding noise (~1e-16 of the other
    # coefficients) on top; the companion matrix of such a cubic loses the
    # genuine roots, so negligible top coefficients are dropped first
    slopes = slopes.trim(1e-12 * np.abs(slopes.coef).max())
    candidates = np.concatenate([np.clip(slopes.roots().real, lo, hi), [lo, hi]])
    values = sum(g(candidates) ** 2 for g in moments)
    return float(candidates[np.argmin(values)])


# ---------------------------------------------------------------------------
# Regularized and classical 2SLS
# ---------------------------------------------------------------------------

def _bias_trace(network: GroupedNetwork, spectrum: Spectrum, q: np.ndarray,
                lam: float, rho: float) -> float:
    """tr(P D) = sum_j q_j psi_j' D psi_j for psi = F C, D never materialized.

    With psi held as Q Phi diag(n nu)^(-1/2) this is the k x k contraction
    tr(C diag(q) C' F'DF), F'DF summed over each group's support
    (``gram_D``).  With an explicit psi only the diagonal of psi'D psi
    enters.
    """
    F = spectrum.factor
    if spectrum.basis is None:
        return float(np.einsum("ij,ij,j->", F, apply_D(network, lam, rho, F), q))
    B = (spectrum.basis * (q / spectrum.scale ** 2)) @ spectrum.basis.T
    return float(np.vdot(B, gram_D(network, lam, rho, F)))     # B is symmetric


@dataclass(frozen=True)
class FirstStage:
    """One instrument roster's first stage, shared by every fit on it.

    Holds Z = (W Y, X1, W X2) and the spectrum coordinates U = psi'R Z and
    uy = psi'R y of the whitened data at ``rho_tilde``; ``first_stage``
    builds it.  The fits differ only in their damping weights, so any
    number of them read one stage.
    """

    data: PanelData
    network: GroupedNetwork
    instruments: InstrumentSet
    rho_tilde: float
    Z: np.ndarray
    U: np.ndarray
    uy: np.ndarray

    @property
    def spectrum(self) -> Spectrum:
        return self.instruments.spectrum


def first_stage(data: PanelData, network: GroupedNetwork, instruments: InstrumentSet,
                rho_tilde: float) -> FirstStage:
    """Project R(rho_tilde)[Z y] on the instruments' spectrum, once per roster.

    Decomposes the instruments' spectrum if nothing has read it yet.
    """
    Z = assemble_z(data, network)
    Uy = instruments.spectrum.coords(whiten(network, rho_tilde, np.column_stack([Z, data.y])))
    return FirstStage(data, network, instruments, rho_tilde, Z, Uy[:, :-1], Uy[:, -1])


def _fit(stage: FirstStage, scheme: Scheme,
         lambda_tilde: float | None = None) -> EstimationResult:
    """The one (regularized) 2SLS fit; bias-corrected when ``lambda_tilde`` is set.

    The damping weights q are computed once, from the instruments' cached
    spectrum, and serve the normal equations, tr P and the bias trace.
    The normal equations are formed from the stage's coordinates psi'R[Z y].
    """
    data, network, rho_tilde = stage.data, stage.network, stage.rho_tilde
    spectrum = stage.spectrum
    q = q_weights(scheme, spectrum)
    tr_P = float(q.sum())
    U = stage.U
    A = U.T @ (q[:, None] * U)
    delta = _checked_solve(A, U.T @ (q * stage.uy), "regularized 2SLS normal equations")
    eps_hat = whitened_residual(network, rho_tilde, data.y, stage.Z, delta)
    sigma2 = float(eps_hat @ eps_hat) / network.n
    se = np.sqrt(np.maximum(np.diag(sigma2 * np.linalg.inv(A)), 0.0))
    if lambda_tilde is not None:
        tr_PD = _bias_trace(network, spectrum, q, lambda_tilde, rho_tilde)
        e1 = np.zeros(delta.size)
        e1[0] = 1.0
        delta = delta - sigma2 * tr_PD * _checked_solve(A, e1, "bias-correction sandwich")
    return EstimationResult(
        delta=delta, std_errors=se, rho_tilde=float(rho_tilde),
        sigma2_hat=sigma2, scheme=scheme, alpha_star=scheme.alpha,
        tr_P=tr_P, condition_number=spectrum.condition_number,
        k1=data.k1, k2=data.k2, n=network.n,
    )


def regularized_2sls(stage: FirstStage, scheme: Scheme) -> EstimationResult:
    """Damped-projection 2SLS of the transformed structural equation.

    The instrument projection is applied through the spectrum of Q Q'/n, so
    P^alpha is never materialized; the normal equations reduce to a
    (1 + k1 + k2) square solve.  sigma2 comes from the structural residuals
    at (delta_hat, rho_tilde) divided by n.
    """
    return _fit(stage, scheme)


def classical_2sls(stage: FirstStage) -> EstimationResult:
    """Ordinary-projection 2SLS: the principal-components scheme kept in full."""
    return regularized_2sls(stage, Scheme.principal_components(stage.spectrum.rank))


def bias_corrected_2sls(stage: FirstStage, lambda_tilde: float) -> EstimationResult:
    """Classical (many-instrument) 2SLS minus the plug-in estimate of its leading bias.

    The correction targets the endogenous-effect coordinate:

        b_hat = sigma2_hat * tr(P R W S^{-1} R^{-1}) * (Z'R'P R Z)^{-1} e_1,

    evaluated at the preliminary (rho_tilde, lambda_tilde) and the fitted
    sigma2 of the uncorrected estimator.  P keeps every principal component,
    so tr P is the instrument rank, at least 1.
    """
    return _fit(stage, Scheme.principal_components(stage.spectrum.rank), lambda_tilde)
