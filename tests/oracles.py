"""Dense forms and literal refits that the fast code is tested against.

Each one materializes an n x n matrix or the n x G centrality block, or
refits once per observation, so they serve small fixtures only.
"""

import numpy as np

from sarnet.instruments import InstrumentSet, _drop_zero_columns
from sarnet.regularization import Scheme, Spectrum, q_weights
from sarnet.selection import SelectionContext
from sarnet.transforms import r_matrix, s_matrix


def projector_matrix(spectrum: Spectrum, scheme: Scheme) -> np.ndarray:
    """Dense P^alpha = sum_j q_j psi_j psi_j'."""
    q = q_weights(scheme, spectrum)
    return (spectrum.vectors * q) @ spectrum.vectors.T


def projector_diagonal(spectrum: Spectrum, scheme: Scheme) -> np.ndarray:
    """Diagonal entries P^alpha_ii = sum_j q_j psi_ji^2 (smoother leverages)."""
    q = q_weights(scheme, spectrum)
    return (spectrum.vectors ** 2) @ q


def q2_roster_dense(network, q1: InstrumentSet) -> InstrumentSet:
    """q1 extended by the n x G centrality block J W iota, formed whole."""
    V = network.J.apply(network.lag_W(network.group_ones()))
    labels = list(q1.labels) + [f"J.W.iota[{r}]" for r in range(V.shape[1])]
    return _drop_zero_columns(np.column_stack([q1.Q, V]), labels)


def d_matrix(network, lam: float, rho: float) -> np.ndarray:
    """Dense D = R(rho) W S(lambda)^{-1} R(rho)^{-1} from explicit inverses."""
    R = r_matrix(rho, network.M)
    return R @ network.W @ np.linalg.inv(s_matrix(lam, network.W)) @ np.linalg.inv(R)


def loo_refit(ctx: SelectionContext, scheme: Scheme) -> float:
    """Literal delete-one cross-validation.

    The full-sample damping is a penalized least-squares fit on the spectral
    features U = Psi diag(sqrt(n nu)) with per-component penalty
    nu (1 - q)/q (zero-weight components dropped).  For each i the fit is
    re-solved without row i, holding that penalty fixed, and the held-out
    point is predicted.  Quadratic per observation: the slow reference
    that the linear-smoother identity of ``criterion_value`` is tested
    against.
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
