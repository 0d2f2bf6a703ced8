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
    "row_sum_norm",
    "solve_blockwise",
]


def row_sum_norm(A: np.ndarray) -> float:
    """Maximum absolute row sum (the operator infinity-norm), over a whole stack."""
    return float(np.abs(A).sum(axis=-1).max())


def _require_stable(lam: float, network: GroupedNetwork, what: str) -> None:
    """Refuse ||lambda W|| >= 1 in the row-sum norm, the largest over the blocks."""
    norm = abs(lam) * max(row_sum_norm(S) for S in network.stacks_W().stacks())
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
        return A.map(lambda S, V: np.linalg.solve(np.eye(S.shape[1]) - coef * S, V), B)
    except np.linalg.LinAlgError:
        for r, A_r in enumerate(A.blocks()):
            m = A_r.shape[0]
            try:
                np.linalg.solve(np.eye(m) - coef * A_r, np.zeros(m))
            except np.linalg.LinAlgError:
                raise np.linalg.LinAlgError(
                    f"{label} is singular on group block {r}") from None
        raise


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
    """D V = R(rho) W S(lambda)^{-1} R(rho)^{-1} V through per-group solves.

    D is the bias operator of the many-instruments correction (Liu and Lee
    2010): the endogenous regressor R W Y has the component D eps.  Its
    blocks are never formed: V's columns are the right-hand sides of one
    batched R(rho) solve and one batched S(lambda) solve per group size.
    """
    t = solve_blockwise(rho, network.stacks_M(), V, "R(rho)")
    t = solve_blockwise(lam, network.stacks_W(), t, "S(lambda)")
    return whiten(network, rho, network.lag_W(t))


def whitened_residual(network: GroupedNetwork, rho: float, y: np.ndarray,
                      Z: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """J R(rho) (y - Z delta); its mean square is the sigma2 plug-in."""
    return network.J.apply(whiten(network, rho, y - Z @ np.asarray(delta, dtype=float)))


def reduced_form(params: ModelParams, X: np.ndarray, gamma: np.ndarray | None,
                 eps: np.ndarray, network: GroupedNetwork) -> np.ndarray:
    """Equilibrium outcome Y = S^{-1}(X beta + iota gamma) + S^{-1} R^{-1} eps.

    Computed with per-group linear solves; S(lambda) or R(rho) being singular
    on some block raises an error naming the offending factor.  Requires the
    stable regime ||lambda W|| < 1.
    """
    _require_stable(params.lam, network, "reduced form not defined")
    gamma = params.gamma if gamma is None else np.asarray(gamma, dtype=float)
    mean_part = X @ params.beta + network.expand_group_values(gamma)
    u = solve_blockwise(params.rho, network.stacks_M(), eps, "R(rho)")
    return solve_blockwise(params.lam, network.stacks_W(), mean_part + u, "S(lambda)")
