"""Regularized first-stage projection built on the instrument spectrum.

Let nu_1 >= nu_2 >= ... be the eigenvalues of Q Q'/n with orthonormal
eigenvectors psi_j.  The damped projector replaces the ordinary projection
onto col(Q) by

    P^alpha e = sum_j q(alpha, nu_j^2) <e, psi_j> psi_j,

with scheme-specific weights in [0, 1]:

    Tikhonov (ridge)      q = nu^2 / (nu^2 + alpha)
    Landweber-Fridman     q = 1 - (1 - c nu^2)^(1/alpha),  1/alpha iterations
    Principal components  q = 1{j <= 1/alpha}

The convention is that the weights damp nu_j^2, the squared eigenvalues of
Q Q'/n (Tikhonov at nu = 2, alpha = 1 gives 4/5, not 2/3); Carrasco (2012)
may damp the eigenvalues of K_n itself, which would put nu_j in their place.

The Landweber-Fridman step is fixed at c = LF_STEP / nu_1^2 with
LF_STEP = 0.9, inside the convergence bound c < 1/nu_1^2 (Carrasco 2012),
so every factor 1 - c nu_j^2 lies in [0.1, 1).

Small alpha means light damping; the PC scheme with all components (and the
LF scheme in its many-iteration limit) recovers the ordinary projection, so
classical 2SLS is the undamped special case.

Everything downstream of the eigendecomposition works in the rank-dimensional
coordinates <e, psi_j>, the dual form of Carrasco (2012).  ``Spectrum`` gets
them one of two ways, and both keep the same nonzero spectrum.

The Gram route takes only a roster that the arrowhead deflation fits: one
per-group power, fewer than n/4 columns, and per-group columns of one sum
of squares to ``DIAGONAL_ULPS`` (the unit-variance q2, and the CLI's
normalized roster at order 1 without the M copy).  F = [Q | V] holds the
per-group columns as one n-vector, and K = F'F/n is the arrowhead
[[A, B'], [B, d I]] that ``InstrumentSet.arrowhead`` assembles from Q'Q
and segment sums.  A thin SVD of the G x c border B of rank r deflates it
(Golub 1973): d is an eigenvalue of multiplicity G - r, one damping
weight, whose eigenvectors are the complement of B's column space, held
as r Householder reflectors, and only the (c + r)^2 core goes to
``eigh``.  psi_j = F phi_j / sqrt(n nu_j) is kept as that product, so
F'x, F c, the bias trace tr(P D) (``Spectrum.weighted_trace``) and the
leverages (``Spectrum.weighted_diagonal``) cost O(n c) plus O(G c^2).

The block route takes every other roster: q1 or a bare matrix (one thin
SVD of Q, so a fit loses about eps cond(Q), not the eps cond(Q)^2 of an
eigendecomposition of Q'Q), an unnormalized one, and the CLI's, whose
per-group part holds o > 1 powers (one column of V per centrality power
and M copy).  Each group's columns live on its rows, so col(F) has the
basis [blockdiag(U) | U_q]: a thin SVD V_r = U_r S_r W_r' of each group's
rows, batched per group size, and a thin SVD of the residual of the
global columns Q off blockdiag(U), taken with classical Gram-Schmidt
twice.  In that basis F F'/n is the core (C C' + diag(S^2, 0))/n with
C = [blockdiag(U) | U_q]'Q, one ``eigh`` whose order is F's rank, not n,
and psi = blockdiag(U) phi_V + U_q phi_q is held whole.  Both rank cuts
before the core use one tolerance, max(n, m) eps sigma_max(F), the
convention of ``numpy.linalg.matrix_rank`` applied to F, with sigma_max(F)
bounded by sqrt(max_r sigma_1(V_r)^2 + ||Q||_F^2), which needs no SVD of
Q of its own.  After either route's ``eigh``, eigenvalues at or below
``EIGENVALUE_CUTOFF`` times the largest are dropped, so the retained rank
counts the singular values of F above 1e-6 sigma_max(F).

A roster's spectrum belongs to its first stage: ``estimation.first_stage``
decomposes it once per stage, and an instrument set holds none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .instruments import InstrumentSet, NumericalFailure

__all__ = ["Spectrum", "Scheme", "q_weights", "apply_projector", "projector_traces"]

#: eigenvalues below this times the largest are treated as zero and excluded
EIGENVALUE_CUTOFF = 1e-12
#: Landweber-Fridman step as a fraction of the bound 1/nu_1^2
LF_STEP = 0.9
#: per-group Gram diagonal entries within this many ulps of their largest are one value
DIAGONAL_ULPS = 64
#: segments whose rows of psi the block route assembles in one batched product
_SEGMENTS_PER_PRODUCT = 16

_KINDS = ("T", "LF", "PC")


class Spectrum:
    """Nonzero eigenpairs (nu_j, psi_j) of F F'/n, psi held as a product F C.

    ``eigenvalues`` are descending and strictly positive after the relative
    cutoff.  On the block route ``factor`` is psi itself, n x rank, and
    C = I (``basis`` is None).  On the Gram route ``factor`` is the
    ``InstrumentSet`` F = [Q | V] and C = Phi diag(n nu)^(-1/2), Phi the
    eigenvectors of the arrowhead K = F'F/n = [[A, B'], [B, d I]], one row
    of B per column of V.  ``_deflate`` finds an orthogonal H = I - Y T Y'
    (``reflectors`` = (Y, T)) on the per-group coordinates whose first r
    columns span B's columns; its other G - r columns are eigenvectors of
    the eigenvalue d, the cluster, which sits at ``cluster_start`` in the
    descending order with ``cluster_size`` entries and is never formed: per
    unit weight, its part of the leverages and bias trace is
    ``cluster_diagonal`` = 1 - ||H[g, :r]||^2.
    ``basis`` holds the other eigenvectors in the instrument coordinates.
    Consumers go through ``coords(x)`` = psi'x, ``expand(c)`` = psi c,
    ``weighted_trace`` and ``weighted_diagonal``; only this class reads the representation.
    """

    def __init__(self, eigenvalues, factor, basis: np.ndarray | None, n: int,
                 reflectors: tuple[np.ndarray, np.ndarray] | None = None,
                 cluster: tuple[int, int] = (0, 0)) -> None:
        vals = np.asarray(eigenvalues, dtype=float)
        if np.any(np.diff(vals) > 0):
            raise ValueError("eigenvalues must be sorted descending")
        self.eigenvalues, self.factor, self.basis, self.n = vals, factor, basis, int(n)
        self.scale = None if basis is None else np.sqrt(self.n * vals)
        self.reflectors = reflectors
        self.cluster_start, self.cluster_size = cluster
        self.cluster_diagonal = None
        if self.cluster_size:
            turned = _turn(*reflectors, np.eye(*reflectors[0].shape))     # H[:, :r]
            self.cluster_diagonal = 1.0 - np.einsum("gi,gi->g", turned, turned)

    @property
    def rank(self) -> int:
        return self.eigenvalues.size

    @property
    def nu_max(self) -> float:
        return float(self.eigenvalues[0]) if self.rank else 0.0

    @property
    def condition_number(self) -> float:
        """nu_1 / nu_min over the retained (nonzero) spectrum."""
        if self.rank == 0:
            return math.inf
        return float(self.eigenvalues[0] / self.eigenvalues[-1])

    @property
    def cluster(self) -> tuple[float, int]:
        """(eigenvalue, multiplicity) of the cluster split off in closed form."""
        if self.cluster_size == 0:
            return 0.0, 0
        return float(self.eigenvalues[self.cluster_start]), self.cluster_size

    def _scaled(self, c: np.ndarray) -> np.ndarray:
        """diag(n nu)^(-1/2) c for a rank-length vector or matrix c."""
        return c / (self.scale if c.ndim == 1 else self.scale[:, None])

    def _split(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of a rank-row c on ``basis``'s components and on the cluster."""
        p, g = self.cluster_start, self.cluster_size
        return np.concatenate([c[:p], c[p + g:]]), c[p:p + g]

    def coords(self, x: np.ndarray) -> np.ndarray:
        """psi'x = C'(F'x) for an n-vector or an n-row matrix x."""
        if self.basis is None:
            return self.factor.T @ x
        y = self.factor.tdot(x)
        core = self.basis.T @ y
        p, g = self.cluster_start, self.cluster_size
        if g:
            Y, T = self.reflectors
            tail = _turn(Y, T.T, y[-Y.shape[0]:])[Y.shape[1]:]      # H'y, past r
            core = np.concatenate([core[:p], tail, core[p:]])
        return self._scaled(core)

    def expand(self, c: np.ndarray) -> np.ndarray:
        """psi c = F(C c) for a rank-length vector or a rank-row matrix c."""
        if self.basis is None:
            return self.factor @ c
        core, tail = self._split(self._scaled(c))
        coef = self.basis @ core
        if self.cluster_size:
            Y, T = self.reflectors
            z = np.zeros((Y.shape[0],) + tail.shape[1:])
            z[Y.shape[1]:] = tail
            coef[-Y.shape[0]:] += _turn(Y, T, z)
        return self.factor.dot(coef)

    def _weights(self, q: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
        """q / (n nu), rank on the rows, on ``basis``'s part and the cluster's one weight.

        The cluster's weights must agree (per row of a (grid x rank) q): a
        component count inside it would keep a subspace that the basis picks.
        """
        core, cluster = self._split((q / self.scale ** 2).T)
        if np.any(cluster != cluster[:1]):
            raise ValueError("weights must be constant on the eigenvalue cluster")
        return core, cluster[0] if cluster.size else 0.0

    def weighted_trace(self, q: np.ndarray,
                       apply: Callable[[np.ndarray], np.ndarray]) -> float:
        """sum_j q_j psi_j' A psi_j, A block diagonal and ``apply`` V -> A V.

        The Gram route contracts the columns of ``basis``, split into their
        global rows a and per-group rows b, with the arrowhead blocks of
        F'AF (``InstrumentSet.arrowhead``, A applied to c + 1 columns); the
        cluster adds its one weight times ``cluster_diagonal`` against the
        per-group block.  The block route takes only the diagonal of
        psi'A psi.  A = D gives tr(P^alpha D).
        """
        if self.basis is None:
            return float(np.einsum("ij,ij,j->", self.factor, apply(self.factor), q))
        w, w_cluster = self._weights(q)
        head, left, right, diagonal = self.factor.arrowhead(apply)
        k = head.shape[0]
        a, b = self.basis[:k], self.basis[k:]
        total = float(np.vdot((a * w) @ a.T, head))
        total += float((((left + right) @ a + diagonal[:, None] * b) * b).sum(axis=0) @ w)
        if self.cluster_size:
            total += float(w_cluster * (diagonal @ self.cluster_diagonal))
        return total

    def weighted_diagonal(self, q: np.ndarray) -> np.ndarray:
        """sum_j q_j psi_ij^2 for every row i, the diagonal of psi diag(q) psi'.

        A (grid x rank) q gives n x grid.  The Gram route squares only the
        n-vectors of ``basis``'s components; the cluster adds its weight
        times v_i^2 times ``cluster_diagonal`` of row i's group.
        """
        if self.basis is None:
            return self.factor ** 2 @ q.T
        w, w_cluster = self._weights(q)
        out = self.factor.dot(self.basis) ** 2 @ w
        if self.cluster_size:
            out += np.multiply.outer(self.factor.per_group_squares(self.cluster_diagonal),
                                     w_cluster)
        return out

    @classmethod
    def from_instruments(cls, inst: InstrumentSet | np.ndarray) -> "Spectrum":
        """Eigendecompose F F'/n in a basis of F's column space.

        A roster of m < n/4 columns with one per-group power whose squared
        norms (K's diagonal) agree to ``DIAGONAL_ULPS`` takes the Gram
        route: ``_deflate`` splits off the cluster of K = F'F/n's per-group
        block, and only the (c + r)^2 core goes to ``eigh``.  Every other
        roster takes the block route, ``_block_eigenpairs``, whose core has
        the order of F's rank, and psi is held whole.  Both routes share
        their nonzero spectrum.  Every fit gets its roster's spectrum from
        here, through ``first_stage``; a bare matrix is taken as the global
        columns of an ``InstrumentSet``.
        """
        if not isinstance(inst, InstrumentSet):
            Q = np.atleast_2d(np.asarray(inst, dtype=float))
            inst = InstrumentSet(Q, tuple(map(str, range(Q.shape[1]))))
        n, eps = inst.n, np.finfo(float).eps
        arrow = inst.arrowhead() if inst.powers == 1 and inst.n_columns < n / 4 else None
        if arrow is None or np.ptp(arrow[3]) > DIAGONAL_ULPS * eps * arrow[3].max():
            return cls(*_block_eigenpairs(inst), None, n)
        head, border, _, diagonal = arrow
        core, Y, T, value, size = _deflate(head, border, diagonal)
        vals, vecs = np.linalg.eigh(core / n)
        value /= n
        vals, vecs = vals[::-1], vecs[:, ::-1]
        cut = EIGENVALUE_CUTOFF * max(vals.max(initial=0.0), value if size else 0.0)
        keep = vals > cut
        vals, vecs = vals[keep], vecs[:, keep]
        size = size if value > cut else 0
        if vals.size + size == 0:
            raise NumericalFailure("instrument matrix has no nonzero spectrum")
        k, G = head.shape[0], diagonal.size
        z = np.zeros((G, vecs.shape[1]))
        z[:core.shape[0] - k] = vecs[k:]                 # the core's r per-group rows
        basis = np.concatenate([vecs[:k], _turn(Y, T, z)])
        start = int(np.count_nonzero(vals > value))
        eigenvalues = np.concatenate([vals[:start], np.full(size, value), vals[start:]])
        return cls(eigenvalues, inst, basis, n, (Y, T), (start, size))


def _block_eigenpairs(inst: InstrumentSet) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero eigenpairs (nu, psi) of F F'/n from the basis [blockdiag(U) | U_q].

    The block route of the module docstring, U_r per segment of V.  Q is
    projected off blockdiag(U) twice: one pass leaves components of size
    eps ||Q|| along U, which U_q, the residual over its small singular
    values, would magnify.  The sigma_max(F) of the rank tolerance is its
    upper bound with Q's Frobenius norm, at most sqrt(c + 1) above it; a
    residual cut relative to the residual's own largest singular value
    would keep rounding noise.  The core's rows on U_q are the residual's
    S_q W_q'.  No n x n or n x m array is formed.
    """
    n, m, Q = inst.n, inst.n_columns, inst.Q
    stacks = [(rows, *np.linalg.svd(V, full_matrices=False)[:2]) for rows, V in inst.blocks()]
    peak = max((float(S.max(initial=0.0)) for *_, S in stacks), default=0.0)
    top = float(np.linalg.norm(Q))
    tol = max(n, m) * np.finfo(float).eps * math.hypot(peak, top)
    residual, coefs, squares = Q.copy(), [], []
    for i, (rows, U, S) in enumerate(stacks):
        kept = S > tol
        U = U * kept[:, None, :]                        # cut directions project to zero
        coef = 0.0
        for _ in range(2):
            step = np.swapaxes(U, 1, 2) @ residual[rows]
            residual[rows] -= U @ step
            coef = coef + step
        stacks[i] = rows, U, kept
        coefs.append(coef[kept])
        squares.append(S[kept] ** 2)
    Uq, s, Wt = np.linalg.svd(residual, full_matrices=False)
    Uq, C = Uq[:, s > tol], np.concatenate(coefs + [s[s > tol, None] * Wt[s > tol]])
    if C.shape[0] == 0:
        raise NumericalFailure("instrument matrix has no nonzero spectrum")
    core = C @ C.T
    squares = np.concatenate(squares + [np.zeros(0)])
    core[np.diag_indices(squares.size)] += squares
    core /= n
    vals, vecs = np.linalg.eigh(core)
    del core
    rank = int(np.count_nonzero(vals > EIGENVALUE_CUTOFF * vals[-1]))
    vals, phi = vals[::-1][:rank], vecs[:, ::-1][:, :rank]
    psi = Uq @ phi[squares.size:]
    # the per-group rows, a few segments at a time to keep the temporaries small
    first = 0
    for rows, U, kept in stacks:
        for lo in range(0, len(rows), _SEGMENTS_PER_PRODUCT):
            part = slice(lo, lo + _SEGMENTS_PER_PRODUCT)
            last = first + int(kept[part].sum())
            coef = np.zeros(kept[part].shape + (rank,))
            coef[kept[part]] = phi[first:last]
            psi[rows[part]] += U[part] @ coef
            first = last
    return vals, psi


def _turn(Y: np.ndarray, T: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(I - Y T Y') z; with T' in place of T, the transpose of that product."""
    return z - Y @ (T @ (Y.T @ z))


def _reflectors(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Compact WY form (Y, T) of the Householder QR of an orthonormal G x r U.

    H = I - Y T Y' is orthogonal and its first r columns are U's up to sign
    (LAPACK's reflectors, accumulated as in its ``dlarft``).
    """
    G, r = U.shape
    h, tau = np.linalg.qr(U, mode="raw")
    Y = np.tril(h.T, -1) + np.eye(G, r)
    T = np.zeros((r, r))
    for i in range(r):
        T[:i, i] = -tau[i] * (T[:i, :i] @ (Y[:, :i].T @ Y[:, i]))
        T[i, i] = tau[i]
    return Y, T


def _deflate(head: np.ndarray, border: np.ndarray, diagonal: np.ndarray):
    """Split the arrowhead K = [[head, border'], [border, diag(diagonal)]].

    The G diagonal entries agree to ``DIAGONAL_ULPS`` (a unit-variance
    roster: each column has sum of squares n - 1) and are taken as their
    mean d.  A thin SVD border = U S W' of rank r gives H (as
    ``_reflectors`` of U), and diag(I, H)' K diag(I, H) is the core
    [[head, B'H_r], [H_r'B, d I_r]] plus d on the other G - r coordinates
    (Golub 1973).  Returns (core, Y, T, d, G - r).
    """
    G, k = border.shape
    value = float(diagonal.mean())
    U, s, _ = np.linalg.svd(border, full_matrices=False)
    # matrix_rank's tolerance
    r = int(np.count_nonzero(s > s.max(initial=0.0) * max(G, k) * np.finfo(float).eps))
    Y, T = _reflectors(U[:, :r])
    turned = _turn(Y, T.T, border)[:r]                   # H_r'B; the rest vanishes
    core = np.zeros((k + r, k + r))
    core[:k, :k] = head
    core[k:, :k] = turned
    core[:k, k:] = turned.T
    np.fill_diagonal(core[k:, k:], value)
    return core, Y, T, value, G - r


@dataclass(frozen=True)
class Scheme:
    """Damping scheme: kind in {T, LF, PC} plus its tuning parameter.

    ``alpha`` is the Tikhonov penalty for T and the reciprocal of the
    iteration / component count for LF / PC.
    """

    kind: str
    alpha: float

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.kind in ("LF", "PC"):
            inv = 1.0 / self.alpha
            if abs(inv - round(inv)) > 1e-9 or round(inv) < 1:
                raise ValueError(f"1/alpha must be a positive integer for {self.kind}")

    @property
    def steps(self) -> int:
        """Iteration count (LF) or component count (PC)."""
        if self.kind == "T":
            raise ValueError("Tikhonov has no integer step count")
        return int(round(1.0 / self.alpha))

    @property
    def grid_value(self) -> float:
        """What a search grid holds: the penalty for T, the step count otherwise."""
        return self.alpha if self.kind == "T" else float(self.steps)

    @classmethod
    def tikhonov(cls, alpha: float) -> "Scheme":
        return cls("T", float(alpha))

    @classmethod
    def landweber(cls, iterations: int) -> "Scheme":
        return cls("LF", 1.0 / int(iterations))

    @classmethod
    def principal_components(cls, count: int) -> "Scheme":
        return cls("PC", 1.0 / int(count))


def q_weights(scheme: Scheme, spectrum: Spectrum) -> np.ndarray:
    """Damping weights q(alpha, nu_j^2) in [0, 1] over the retained spectrum.

    PC weights depend on the rank position j (descending eigenvalue order)
    rather than on nu_j itself.  LF steps with c = LF_STEP / nu_1^2.  The
    one-point case of ``_grid_weights``.
    """
    return _grid_weights(scheme.kind, [scheme.grid_value], spectrum)[0]


def _grid_weights(kind: str, grid, spectrum: Spectrum) -> np.ndarray:
    """The (grid x rank) weights of one kind, row i at grid value ``grid[i]``.

    Grid values are Tikhonov penalties for T and iteration / component
    counts for LF / PC (``Scheme.grid_value``).  Each entry is the same
    closed form a single scheme evaluates, so a row equals that scheme's
    ``q_weights`` bit for bit.
    """
    g = np.asarray(grid, dtype=float)[:, None]
    nu2 = spectrum.eigenvalues ** 2
    if kind == "T":
        return nu2 / (nu2 + g)
    if kind == "LF":
        c = LF_STEP / spectrum.nu_max ** 2
        return 1.0 - (1.0 - c * nu2) ** g
    return (np.arange(1, spectrum.rank + 1) <= g).astype(float)


def apply_projector(spectrum: Spectrum, scheme: Scheme, e: np.ndarray) -> np.ndarray:
    """P^alpha e = sum_j q_j <e, psi_j> psi_j for a vector or matrix e."""
    e = np.asarray(e, dtype=float)
    if e.shape[0] != spectrum.n:
        raise ValueError(f"e must have length {spectrum.n}")
    q = q_weights(scheme, spectrum)
    coef = spectrum.coords(e)
    return spectrum.expand(q * coef if coef.ndim == 1 else q[:, None] * coef)


def projector_traces(spectrum: Spectrum, scheme: Scheme) -> tuple[float, float]:
    """(tr P^alpha, tr (P^alpha)^2) = (sum q_j, sum q_j^2)."""
    q = q_weights(scheme, spectrum)
    return float(q.sum()), float((q ** 2).sum())
