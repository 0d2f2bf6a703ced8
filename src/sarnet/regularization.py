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
coordinates <e, psi_j>, the dual form of Carrasco (2012): with few
instruments the psi_j are F phi_j / sqrt(n nu_j) for the eigenpairs
(nu_j, phi_j) of K = F'F/n, F the instrument set, and ``Spectrum`` keeps
them as that product, so the n x rank matrix psi is formed only where an
n-vector per component is needed (the leave-one-out leverages).  For the
large roster F = [Q | V], V one column per group held as one n-vector, K is
assembled from Q'Q and segment sums (``InstrumentSet.gram``), and F'x and
F c cost O(n c) plus a segment sum, never a product with an n x G block.
The bias trace tr(P D) is ``Spectrum.weighted_trace`` on the same product.
A roster's spectrum belongs to its first stage: ``estimation.first_stage``
decomposes it once per stage, and an instrument set holds none.
"""

from __future__ import annotations

import functools
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

_KINDS = ("T", "LF", "PC")


class Spectrum:
    """Nonzero eigenpairs (nu_j, psi_j) of F F'/n, psi held as a product F C.

    ``eigenvalues`` are descending and strictly positive after the relative
    cutoff.  The orthonormal eigenvectors are psi = F C: on the Gram route
    ``factor`` is the ``InstrumentSet`` F and C = Phi diag(n nu)^(-1/2), with
    Phi (``basis``) the matching eigenvectors of K = F'F/n; on the dense
    route ``factor`` is psi itself and C = I (``basis`` is None).  Consumers
    go through ``coords(x)`` = psi'x = C'(F'x), ``expand(c)`` = psi c =
    F(C c) and ``weighted_trace``; ``vectors`` forms psi itself on first
    access and caches it.  Only this class reads the representation.
    """

    def __init__(self, eigenvalues, factor, basis: np.ndarray | None, n: int) -> None:
        vals = np.asarray(eigenvalues, dtype=float)
        if np.any(np.diff(vals) > 0):
            raise ValueError("eigenvalues must be sorted descending")
        self.eigenvalues, self.factor, self.basis, self.n = vals, factor, basis, int(n)
        self.scale = None if basis is None else np.sqrt(self.n * vals)

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

    def _scaled(self, c: np.ndarray) -> np.ndarray:
        """diag(n nu)^(-1/2) c for a rank-length vector or matrix c."""
        return c / (self.scale if c.ndim == 1 else self.scale[:, None])

    def coords(self, x: np.ndarray) -> np.ndarray:
        """psi'x = C'(F'x) for an n-vector or an n-row matrix x."""
        if self.basis is None:
            return self.factor.T @ x
        return self._scaled(self.basis.T @ self.factor.tdot(x))

    def expand(self, c: np.ndarray) -> np.ndarray:
        """psi c = F(C c) for a rank-length vector or a rank-row matrix c."""
        if self.basis is None:
            return self.factor @ c
        return self.factor.dot(self.basis @ self._scaled(c))

    def weighted_trace(self, q: np.ndarray,
                       apply: Callable[[np.ndarray], np.ndarray]) -> float:
        """sum_j q_j psi_j' A psi_j, A block diagonal and ``apply`` V -> A V.

        The Gram route contracts C diag(q) C' with F'AF, the instrument
        set's ``gram``, in which A acts on c + 1 columns; the dense route
        takes only the diagonal of psi'A psi.  A = D gives tr(P^alpha D).
        """
        if self.basis is None:
            return float(np.einsum("ij,ij,j->", self.factor, apply(self.factor), q))
        B = (self.basis * (q / self.scale ** 2)) @ self.basis.T
        return float(np.vdot(B, self.factor.gram(apply)))     # B is symmetric

    @functools.cached_property
    def vectors(self) -> np.ndarray:
        """psi as an n x rank matrix, (F Phi) / sqrt(n nu) on the Gram route."""
        if self.basis is None:
            return self.factor
        return self.factor.dot(self.basis) / self.scale

    @classmethod
    def from_instruments(cls, inst: InstrumentSet | np.ndarray) -> "Spectrum":
        """Eigendecompose F F'/n, working in whichever dimension is smaller.

        For m < n/4 instruments the m x m Gram K = F'F/n is decomposed and
        psi is kept as F Phi diag(n nu)^(-1/2); otherwise F F'/n is
        decomposed directly, with F written out in full, and psi is its
        eigenvectors.  Both routes share their nonzero spectrum.  Every fit
        gets its roster's spectrum from here, through ``first_stage``; a bare
        matrix is taken as the global columns of an ``InstrumentSet``.
        """
        if not isinstance(inst, InstrumentSet):
            Q = np.atleast_2d(np.asarray(inst, dtype=float))
            inst = InstrumentSet(Q, tuple(map(str, range(Q.shape[1]))))
        n, m = inst.n, inst.n_columns
        gram_route = m < n / 4
        if gram_route:
            vals, vecs = np.linalg.eigh(inst.gram() / n)
        else:
            F = inst.dense()
            vals, vecs = np.linalg.eigh(F @ F.T / n)
        vals, vecs = vals[::-1], vecs[:, ::-1]
        keep = vals > max(EIGENVALUE_CUTOFF * max(vals[0], 0.0), 0.0)
        vals, vecs = vals[keep], vecs[:, keep]
        if vals.size == 0:
            raise NumericalFailure("instrument matrix has no nonzero spectrum")
        if gram_route:
            return cls(vals, inst, vecs, n)
        return cls(vals, vecs, None, n)


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
