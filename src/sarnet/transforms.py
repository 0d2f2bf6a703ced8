"""Linear transforms of the network model.

The structural model is

    Y = lambda W Y + X beta + iota gamma + u,      u = rho M u + eps,

with X = (X1, W X2).  Estimation works on the transformed equation

    J R(rho) Y = lambda J R(rho) W Y + J R(rho) X beta + J eps,

where R(rho) = I - rho M whitens the spatially correlated disturbance
(Cochrane-Orcutt style) and the block-diagonal projector J (``network.J``,
a ``graphs.JProjector``) sweeps out the group fixed effects by annihilating
span{iota, M iota} within each group.
Everything here is computed block by block; no n x n inverse is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import BlockStacks, GroupedNetwork, PanelData

__all__ = [
    "ModelParams",
    "assemble_z",
    "whiten",
    "apply_D",
    "whitened_residual",
    "reduced_form",
    "solve_blockwise",
]


def _require_stable(lam: float, network: GroupedNetwork, what: str) -> None:
    """Refuse ||lambda W|| >= 1 in the row-sum norm, the largest over the blocks."""
    norm = abs(lam) * network.stacks_W().row_sum_norm
    if norm >= 1.0:
        raise ValueError(f"||lambda W|| = {norm:.3f} >= 1: {what}")


@dataclass(frozen=True)
class ModelParams:
    """Structural parameters (lambda, beta1, beta2, rho, gamma, sigma2)."""

    lam: float
    beta1: np.ndarray
    beta2: np.ndarray
    rho: float
    gamma: np.ndarray
    sigma2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta1", np.atleast_1d(np.asarray(self.beta1, dtype=float)))
        object.__setattr__(self, "beta2", np.atleast_1d(np.asarray(self.beta2, dtype=float)))
        object.__setattr__(self, "gamma", np.atleast_1d(np.asarray(self.gamma, dtype=float)))
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")

    @property
    def beta(self) -> np.ndarray:
        return np.concatenate([self.beta1, self.beta2])

    @classmethod
    def checked(cls, network: GroupedNetwork, **kwargs) -> "ModelParams":
        """Construct and verify the stability condition ||lambda W|| < 1."""
        params = cls(**kwargs)
        _require_stable(params.lam, network, "outside the stable operating regime")
        return params


def _plus_identity(A: np.ndarray) -> np.ndarray:
    """A + I for a (g, m, m) stack, in place: the factors are formed in one array."""
    A.reshape(A.shape[0], -1)[:, ::A.shape[1] + 1] += 1.0
    return A


def solve_blockwise(coef: float, A: BlockStacks, B: np.ndarray,
                    label: str) -> np.ndarray:
    """Solve (I - coef * A) X = B for a network's ``stacks_W()`` or ``stacks_M()``.

    The solve is one batched LAPACK call per block size.  ``label`` names
    the factor ("S(lambda)" or "R(rho)") in error messages, with the network
    index of the first singular block.  At coef = 0 the factor is I and B
    itself is returned, without a LAPACK call: solving I X = B gives B exactly.
    """
    if coef == 0.0:
        return B
    try:
        return A.map(lambda S, V: np.linalg.solve(_plus_identity(np.multiply(S, -coef)), V), B)
    except np.linalg.LinAlgError:
        for r, A_r in enumerate(A.blocks()):
            m = A_r.shape[0]
            try:
                np.linalg.solve(np.eye(m) - coef * A_r, np.zeros(m))
            except np.linalg.LinAlgError:
                raise np.linalg.LinAlgError(
                    f"{label} is singular on group block {r}") from None
        raise


def _solve_rs(network: GroupedNetwork, lam: float, rho: float,
              B: np.ndarray) -> np.ndarray:
    """Solve R(rho) S(lambda) X = B, one batched LAPACK call per block size.

    Where ||rho M|| < 1 and ||lambda W|| < 1 in the row-sum norm, neither
    factor can be singular, and X is one solve with the product
    R S = I - rho M - lambda W + rho lambda M W (``stacks_MW()``).
    Otherwise, and at rho = 0 or lambda = 0 where the product is one
    factor, ``solve_blockwise`` solves R, then S: it names a singular
    factor and its network block, and skips a factor that is I.
    """
    W, M = network.stacks_W(), network.stacks_M()
    if (rho == 0.0 or lam == 0.0 or abs(rho) * M.row_sum_norm >= 1.0
            or abs(lam) * W.row_sum_norm >= 1.0):
        return solve_blockwise(lam, W, solve_blockwise(rho, M, B, "R(rho)"), "S(lambda)")
    stacks = []
    for M_s, W_s, MW_s in zip(M.stacks(), W.stacks(), network.stacks_MW().stacks()):
        RS = np.multiply(MW_s, rho * lam)
        scaled = np.multiply(M_s, rho)
        RS -= scaled
        RS -= np.multiply(W_s, lam, out=scaled)
        stacks.append(_plus_identity(RS))
    return BlockStacks(network.group_sizes, stacks).map(np.linalg.solve, B)


# ---------------------------------------------------------------------------
# Structural and reduced forms
# ---------------------------------------------------------------------------

def assemble_z(data: PanelData, network: GroupedNetwork) -> np.ndarray:
    """Structural regressor block Z = (W Y, X1, W X2)."""
    return np.column_stack([network.lag_W(data.y), data.regressors(network)])


def whiten(network: GroupedNetwork, rho: float, V: np.ndarray) -> np.ndarray:
    """R(rho) V = V - rho M V, the Cochrane-Orcutt whitening.

    R(0) = I, so at rho = 0 V itself is returned without the M lag:
    V - 0 * M V equals V exactly.
    """
    if rho == 0.0:
        return V
    return V - rho * network.lag_M(V)


def apply_D(network: GroupedNetwork, lam: float, rho: float,
            V: np.ndarray) -> np.ndarray:
    """D V = R(rho) W (R(rho) S(lambda))^{-1} V through per-group solves.

    D = R W S^{-1} R^{-1} is the bias operator of the many-instruments
    correction (Liu and Lee 2010): the endogenous regressor R W Y has the
    component D eps.  Its blocks are never formed: V's columns are the
    right-hand sides of one batched solve with R S per group size, then
    lagged by W and whitened.
    """
    return whiten(network, rho, network.lag_W(_solve_rs(network, lam, rho, V)))


def whitened_residual(network: GroupedNetwork, rho: float, y: np.ndarray,
                      Z: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """J R(rho) (y - Z delta); its mean square is the sigma2 plug-in."""
    return network.J.apply(whiten(network, rho, y - Z @ np.asarray(delta, dtype=float)))


def reduced_form(params: ModelParams, X: np.ndarray, gamma: np.ndarray | None,
                 eps: np.ndarray, network: GroupedNetwork) -> np.ndarray:
    """Equilibrium outcome Y = S^{-1}(X beta + iota gamma) + S^{-1} R^{-1} eps.

    R S Y = R (X beta + iota gamma) + eps, so Y is one batched solve with
    R(rho) S(lambda) per group size; S(lambda) or R(rho) being singular on
    some block raises an error naming the offending factor.  Requires the
    stable regime ||lambda W|| < 1.
    """
    _require_stable(params.lam, network, "reduced form not defined")
    gamma = params.gamma if gamma is None else np.asarray(gamma, dtype=float)
    mean_part = X @ params.beta + network.expand_group_values(gamma)
    return _solve_rs(network, params.lam, params.rho,
                     whiten(network, params.rho, mean_part) + eps)
