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

import numpy as np

from .graphs import BlockStacks, GroupedNetwork, PanelData, _group_rows, _map_stacked

__all__ = [
    "ModelParams",
    "JProjector",
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
        return _map_stacked(lambda S, V: np.linalg.solve(np.eye(S.shape[1]) - coef * S, V),
                            A.parts, B)
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
    M_r of M (a ``BlockStacks``); a network holds its own as ``network.J``.

    J is stored only as its orthonormal bases B_r, J_r = I - B_r B_r': one
    (g, m, w) stack per pair of group size m and basis width w (1 or 2),
    with the rows of those groups, so ``apply`` is one batched
    V - B (B' V) per pair.
    """

    #: relative residual of M iota on iota below which the two are treated
    #: as collinear and the group-mean projector is used
    collinearity_tol = 1e-8
    #: relative singular-value cutoff for the generalized inverse
    sv_cutoff = 1e-10

    def __init__(self, M: BlockStacks):
        self.group_sizes = M.group_sizes
        self._groups: list[np.ndarray] = []
        self._parts: list[tuple[slice | np.ndarray, np.ndarray]] = []
        for groups, M_s in zip(M.groups, M.stacks()):
            m = M_s.shape[1]
            iota = np.ones(m)
            mi = M_s @ iota
            resid = mi - (mi.sum(axis=1, keepdims=True) / m) * iota
            scale = np.maximum(np.linalg.norm(mi, axis=1), 1e-300)
            wide = ~(np.linalg.norm(resid, axis=1) / scale < self.collinearity_tol)
            A = np.stack([np.broadcast_to(iota, mi.shape), mi], axis=2)
            for cols in (1, 2):
                sel = wide == (cols == 2)
                if not sel.any():
                    continue
                U, s, _ = np.linalg.svd(A[sel, :, :cols], full_matrices=False)
                width = (s > self.sv_cutoff * s[:, :1]).sum(axis=1)
                for w in np.unique(width):
                    keep = width == w
                    self._add_part(groups[sel][keep], U[keep][:, :, :w])

    def _add_part(self, groups: np.ndarray, bases: np.ndarray) -> None:
        # each m x w basis is kept column-major, the layout of U[:, keep]
        # from one group's own SVD: BLAS picks its kernels by the operands'
        # layout, so J V then rounds exactly as a per-group loop does
        self._groups.append(groups)
        self._parts.append((_group_rows(self.group_sizes, groups),
                            np.ascontiguousarray(bases.transpose(0, 2, 1)).transpose(0, 2, 1)))

    @property
    def n(self) -> int:
        return sum(self.group_sizes)

    @property
    def trace(self) -> float:
        """tr J = n - sum of annihilated dimensions (J is a projector)."""
        return float(self.n - sum(B.shape[0] * B.shape[2] for _, B in self._parts))

    def apply(self, V: np.ndarray) -> np.ndarray:
        """J V for a vector or matrix V, one batched product per (size, width).

        V is made C-contiguous first: BLAS picks its kernels, and with them
        the rounding, by the operands' strides.
        """
        return _map_stacked(lambda B, V: V - B @ (B.transpose(0, 2, 1) @ V), self._parts,
                            np.ascontiguousarray(V, dtype=float))

    def trace_product(self, A: BlockStacks) -> float:
        """tr(J A) for a block-diagonal A with this projector's group sizes.

        Per group, tr(J_r A_r) = tr(A_r) - tr(B_r' A_r B_r): O(m^2 w) from
        the basis, one batched product per (size, width).  The per-group
        traces are summed in network order.
        """
        stacks = {S.shape[1]: (groups, S) for groups, S in zip(A.groups, A.stacks())}
        traces = np.empty(len(self.group_sizes))
        for groups, (_, B) in zip(self._groups, self._parts):
            by_size, S = stacks[B.shape[1]]
            A_g = S[np.searchsorted(by_size, groups)]
            traces[groups] = (np.trace(A_g, axis1=1, axis2=2)
                              - ((A_g @ B) * B).sum(axis=(1, 2)))
        return sum(traces.tolist())


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
    u = solve_blockwise(params.rho, network.stacks_M(), eps, "R(rho)")
    return solve_blockwise(params.lam, network.stacks_W(), mean_part + u, "S(lambda)")
