"""Regularized first-stage projection built on the instrument spectrum.

Let nu_1 >= nu_2 >= ... be the eigenvalues of Q Q'/n with orthonormal
eigenvectors psi_j.  The damped projector replaces the ordinary projection
onto col(Q) by

    P^alpha e = sum_j q(alpha, nu_j^2) <e, psi_j> psi_j,

with scheme-specific weights in [0, 1]:

    Tikhonov (ridge)      q = nu^2 / (nu^2 + alpha)
    Landweber-Fridman     q = 1 - (1 - c nu^2)^(1/alpha),  1/alpha iterations
    Principal components  q = 1{j <= 1/alpha}

The Landweber-Fridman step is fixed at c = LF_STEP / nu_1^2 with
LF_STEP = 0.9, inside the convergence bound c < 1/nu_1^2 (Carrasco 2012),
so every factor 1 - c nu_j^2 lies in [0.1, 1).

Small alpha means light damping; the PC scheme with all components (and the
LF scheme in its many-iteration limit) recovers the ordinary projection, so
classical 2SLS is the undamped special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instruments import InstrumentSet

__all__ = ["Spectrum", "Scheme", "q_weights", "apply_projector",
           "projector_traces", "projector_matrix", "projector_diagonal"]

#: eigenvalues below this times the largest are treated as zero and excluded
EIGENVALUE_CUTOFF = 1e-12
#: Landweber-Fridman step as a fraction of the bound 1/nu_1^2
LF_STEP = 0.9

_KINDS = ("T", "LF", "PC")


@dataclass(frozen=True)
class Spectrum:
    """Nonzero eigenpairs of Q Q'/n.

    ``eigenvalues`` are descending and strictly positive after the relative
    cutoff; ``vectors`` holds the matching orthonormal psi_j as columns.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    n: int

    def __post_init__(self) -> None:
        vals = np.asarray(self.eigenvalues, dtype=float)
        vecs = np.asarray(self.vectors, dtype=float)
        if vecs.shape != (self.n, vals.size):
            raise ValueError("vectors must be n x (number of eigenvalues)")
        if np.any(np.diff(vals) > 0):
            raise ValueError("eigenvalues must be sorted descending")
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "vectors", vecs)

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

    @classmethod
    def from_instruments(cls, inst: InstrumentSet | np.ndarray) -> "Spectrum":
        """Eigendecompose Q Q'/n, working in whichever dimension is smaller.

        For m < n/4 instruments the m x m Gram K = Q'Q/n is decomposed and
        the n-dimensional eigenvectors recovered through psi = Q phi /
        sqrt(n nu); otherwise Q Q'/n is decomposed directly.  Both routes
        share their nonzero spectrum.  Callers with an ``InstrumentSet`` read
        its cached ``inst.spectrum``, which is built here.
        """
        Q = inst.Q if isinstance(inst, InstrumentSet) else np.asarray(inst, dtype=float)
        Q = np.atleast_2d(Q)
        n, m = Q.shape
        gram_route = m < n / 4
        vals, vecs = np.linalg.eigh(Q.T @ Q / n if gram_route else Q @ Q.T / n)
        vals, vecs = vals[::-1], vecs[:, ::-1]
        keep = vals > max(EIGENVALUE_CUTOFF * max(vals[0], 0.0), 0.0)
        vals, vecs = vals[keep], vecs[:, keep]
        psi = (Q @ vecs) / np.sqrt(n * vals) if gram_route else vecs
        if vals.size == 0:
            raise ValueError("instrument matrix has no nonzero spectrum")
        return cls(eigenvalues=vals, vectors=psi, n=n)


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
    coef = spectrum.vectors.T @ e
    if coef.ndim == 1:
        return spectrum.vectors @ (q * coef)
    return spectrum.vectors @ (q[:, None] * coef)


def projector_traces(spectrum: Spectrum, scheme: Scheme) -> tuple[float, float]:
    """(tr P^alpha, tr (P^alpha)^2) = (sum q_j, sum q_j^2)."""
    q = q_weights(scheme, spectrum)
    return float(q.sum()), float((q ** 2).sum())


def projector_diagonal(spectrum: Spectrum, scheme: Scheme) -> np.ndarray:
    """Diagonal entries P^alpha_ii = sum_j q_j psi_ji^2 (smoother leverages)."""
    q = q_weights(scheme, spectrum)
    return (spectrum.vectors ** 2) @ q


def projector_matrix(spectrum: Spectrum, scheme: Scheme) -> np.ndarray:
    """Dense n x n P^alpha; for small fixtures and tests only."""
    q = q_weights(scheme, spectrum)
    return (spectrum.vectors * q) @ spectrum.vectors.T
