"""Linear transforms of the network model.

The structural model is

    Y = lambda W Y + X beta + iota gamma + u,      u = rho M u + eps,

with X = (X1, W X2).  Estimation works on the transformed equation

    J R(rho) Y = lambda J R(rho) W Y + J R(rho) X beta + J eps,

where R(rho) = I - rho M whitens the spatially correlated disturbance
(Cochrane-Orcutt style) and the block-diagonal projector J sweeps out the
group fixed effects by annihilating span{iota, M iota} within each group.
Everything here is computed block by block; no n x n inverse is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import GroupedNetwork, PanelData, _group_slices

__all__ = [
    "ModelParams",
    "JProjector",
    "s_matrix",
    "r_matrix",
    "assemble_z",
    "whiten",
    "apply_D",
    "whitened_residual",
    "structural_residual",
    "reduced_form",
    "row_sum_norm",
    "solve_blockwise",
]


def row_sum_norm(A: np.ndarray) -> float:
    """Maximum absolute row sum (the operator infinity-norm)."""
    return float(np.abs(A).sum(axis=1).max())


def _require_stable(lam: float, network: GroupedNetwork, what: str) -> None:
    """Refuse ||lambda W|| >= 1 in the row-sum norm, the largest over the blocks."""
    norm = abs(lam) * max(row_sum_norm(B) for B in network.blocks_W())
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


def s_matrix(lam: float, W: np.ndarray) -> np.ndarray:
    """S(lambda) = I - lambda W."""
    W = np.asarray(W, dtype=float)
    return np.eye(W.shape[0]) - lam * W


def r_matrix(rho: float, M: np.ndarray) -> np.ndarray:
    """R(rho) = I - rho M."""
    M = np.asarray(M, dtype=float)
    return np.eye(M.shape[0]) - rho * M


def solve_blockwise(coef: float, blocks: Sequence[np.ndarray], B: np.ndarray,
                    label: str) -> np.ndarray:
    """Solve (I - coef * A) X = B for the block-diagonal A with these blocks.

    ``label`` names the factor ("S(lambda)" or "R(rho)") in error messages.
    """
    B = np.asarray(B, dtype=float)
    out = np.empty_like(B)
    slices = _group_slices([A.shape[0] for A in blocks])
    for r, (A, sl) in enumerate(zip(blocks, slices)):
        block = np.eye(A.shape[0]) - coef * A
        try:
            out[sl] = np.linalg.solve(block, B[sl])
        except np.linalg.LinAlgError:
            raise np.linalg.LinAlgError(
                f"{label} is singular on group block {r}"
            ) from None
    return out


# ---------------------------------------------------------------------------
# Fixed-effect annihilator J
# ---------------------------------------------------------------------------

class JProjector:
    """Block-diagonal orthogonal projector annihilating span{iota, M_r iota}.

    Within each group the basis of the annihilated space is iota alone when
    M_r iota is (numerically) collinear with iota -- e.g. a row-normalized M
    with no zero rows, where the block reduces to the deviation-from-group-
    mean projector I - iota iota'/m -- and {iota, M_r iota} otherwise.

    The generalized inverse in the textbook formula
    I - A (A'A)^- A' with A = (iota, M_r iota) is realized spectrally with a
    relative singular-value cutoff of 1e-10.  Built from the diagonal blocks
    M_r of M; a network holds its own as ``network.J``.
    """

    #: relative residual of M iota on iota below which the two are treated
    #: as collinear and the group-mean projector is used
    collinearity_tol = 1e-8
    #: relative singular-value cutoff for the generalized inverse
    sv_cutoff = 1e-10

    def __init__(self, M_blocks: Sequence[np.ndarray]):
        self.group_sizes = tuple(B.shape[0] for B in M_blocks)
        self.slices = _group_slices(self.group_sizes)
        self._bases: list[np.ndarray] = []
        for M_r in M_blocks:
            m = M_r.shape[0]
            iota = np.ones(m)
            mi = M_r @ iota
            resid = mi - (mi.sum() / m) * iota
            scale = max(np.linalg.norm(mi), 1e-300)
            if np.linalg.norm(resid) / scale < self.collinearity_tol:
                A = iota[:, None]
            else:
                A = np.column_stack([iota, mi])
            U, s, _ = np.linalg.svd(A, full_matrices=False)
            keep = s > self.sv_cutoff * s[0]
            self._bases.append(U[:, keep])

    @property
    def n(self) -> int:
        return sum(self.group_sizes)

    @property
    def trace(self) -> float:
        """tr J = n - sum of annihilated dimensions (J is a projector)."""
        return float(self.n - sum(b.shape[1] for b in self._bases))

    @property
    def rank(self) -> int:
        return int(round(self.trace))

    def apply(self, V: np.ndarray) -> np.ndarray:
        """J V for a vector or matrix V, block by block."""
        V = np.asarray(V, dtype=float)
        out = V.copy()
        for sl, B in zip(self.slices, self._bases):
            out[sl] = out[sl] - B @ (B.T @ out[sl])
        return out

    def block(self, r: int) -> np.ndarray:
        m = self.group_sizes[r]
        B = self._bases[r]
        return np.eye(m) - B @ B.T

    def as_matrix(self) -> np.ndarray:
        """Dense n x n form; intended for small problems and tests."""
        out = np.zeros((self.n, self.n))
        for r, sl in enumerate(self.slices):
            out[sl, sl] = self.block(r)
        return out


# ---------------------------------------------------------------------------
# Structural and reduced forms
# ---------------------------------------------------------------------------

def assemble_z(data: PanelData, network: GroupedNetwork) -> np.ndarray:
    """Structural regressor block Z = (W Y, X1, W X2)."""
    return np.column_stack([network.lag_W(data.y), data.regressors(network)])


def whiten(network: GroupedNetwork, rho: float, V: np.ndarray) -> np.ndarray:
    """R(rho) V = V - rho M V, the Cochrane-Orcutt whitening."""
    return V - rho * network.lag_M(V)


def apply_D(network: GroupedNetwork, lam: float, rho: float,
            V: np.ndarray) -> np.ndarray:
    """D V = R(rho) W S(lambda)^{-1} R(rho)^{-1} V through per-group solves.

    D is the bias operator of the many-instruments correction (Liu and Lee
    2010): the endogenous regressor R W Y has the component D eps.
    """
    t = solve_blockwise(rho, network.blocks_M(), V, "R(rho)")
    t = solve_blockwise(lam, network.blocks_W(), t, "S(lambda)")
    return whiten(network, rho, network.lag_W(t))


def whitened_residual(network: GroupedNetwork, rho: float, y: np.ndarray,
                      Z: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """J R(rho) (y - Z delta); its mean square is the sigma2 plug-in."""
    return network.J.apply(whiten(network, rho, y - Z @ np.asarray(delta, dtype=float)))


def structural_residual(params: ModelParams, data, network: GroupedNetwork,
                        ) -> np.ndarray:
    """J R(rho) (Y - lambda W Y - X beta); equals J eps at the true values."""
    Z = assemble_z(data, network)
    delta = np.concatenate([[params.lam], params.beta])
    if Z.shape[1] != delta.size:
        raise ValueError(f"X has {Z.shape[1] - 1} columns but beta has "
                         f"{delta.size - 1} entries")
    return whitened_residual(network, params.rho, data.y, Z, delta)


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
    u = solve_blockwise(params.rho, network.blocks_M(), eps, "R(rho)")
    return solve_blockwise(params.lam, network.blocks_W(), mean_part + u, "S(lambda)")
