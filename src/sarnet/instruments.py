"""Instrument matrices for the network 2SLS estimators.

The exogenous variation lives in network lags of the covariates (peers' and
peers-of-peers' characteristics), the Bonacich-type centrality columns
W^j iota, and, when disturbances are spatially correlated, the M-lagged copy
of all of the above.  The infinite family is truncated at a chosen lag order;
the fixed-effect annihilator J is always applied last so the instruments are
orthogonal to the swept-out group effects by construction (J Q = Q).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .graphs import GroupedNetwork, _as_rows
from .identification import labelled_stack

__all__ = ["InstrumentSet", "build_instruments", "normalize_columns",
           "q1_roster", "q2_roster"]

#: columns whose largest absolute entry falls below this times the largest
#: entry of any column are dropped as numerically zero (underflowed high
#: powers, covariates constant within groups after the J projection)
ZERO_COLUMN_RTOL = 1e-13

_NORMALIZATIONS = ("none", "unit-variance")
_SD_BLOCK = 16      # columns that normalize_columns transposes and reduces at a time


@dataclass(frozen=True)
class InstrumentSet:
    """Instrument matrix with per-column provenance labels.

    The set owns the spectrum of its Q Q'/n as ``spectrum``, decomposed once
    on first access; every estimator and selector reads it from there.
    """

    Q: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        if Q.shape[1] != len(self.labels):
            raise ValueError("one label per column required")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def n_columns(self) -> int:
        return self.Q.shape[1]

    @functools.cached_property
    def spectrum(self):
        """Nonzero eigenpairs of Q Q'/n (a ``regularization.Spectrum``)."""
        from .regularization import Spectrum    # regularization imports this module
        return Spectrum.from_instruments(self)


def _keep_nonzero(peaks: np.ndarray, labels: list[str]) -> np.ndarray:
    """Which columns to keep, given each column's largest absolute entry.

    A column is numerically zero when its peak falls below
    ``ZERO_COLUMN_RTOL`` times the largest peak; each one is dropped with a
    warning carrying its label.
    """
    scale = float(peaks.max()) if peaks.size else 0.0
    if scale <= 0.0:
        from .estimation import NumericalFailure     # estimation imports this module
        raise NumericalFailure("all instrument columns are numerically zero")
    keep = peaks > ZERO_COLUMN_RTOL * scale
    for lab, kept in zip(labels, keep):
        if not kept:
            warnings.warn(f"dropping numerically zero instrument column {lab!r}")
    return keep


def _drop_zero_columns(Q: np.ndarray, labels: list[str]) -> InstrumentSet:
    keep = _keep_nonzero(np.abs(Q).max(axis=0), labels)
    # a boolean index copies even when it keeps every column
    return InstrumentSet(Q if keep.all() else Q[:, keep],
                         tuple(lab for lab, k in zip(labels, keep) if k))


def build_instruments(network: GroupedNetwork, X: np.ndarray, order: int,
                      include_bonacich: bool = True,
                      include_M_lags: bool = True) -> InstrumentSet:
    """Truncated instrument family J [lags of X, centrality columns, X, M copy].

    Columns, before J: W X, ..., W^order X, then (optionally) W iota, ...,
    W^order iota, then X itself, then (optionally) the M-premultiplied copy
    of everything so far, as built by ``identification.labelled_stack``.
    iota is the block-diagonal matrix of per-group ones vectors, so every
    power contributes one centrality column per group.  Numerically zero
    columns (underflowed high powers, covariates constant within groups) are
    dropped with a warning carrying their label.
    """
    X = _as_rows(X, network.n)
    if X.shape[0] != network.n:
        raise ValueError("X rows must match the network order")
    stack, labels = labelled_stack(network, X, order, include_bonacich, include_M_lags)
    return _drop_zero_columns(network.J.apply(stack), [f"J.{lab}" for lab in labels])


def normalize_columns(inst: InstrumentSet, mode: str) -> InstrumentSet:
    """Rescale columns to unit sample variance (``unit-variance``) or not (``none``).

    Tikhonov-style damping is not scale invariant, so columns with very
    different variances (a squared network lag versus a centrality count)
    would be regularized unevenly without this.  Zero-variance columns are
    dropped with their label.
    """
    if mode == "none":
        return inst
    if mode not in _NORMALIZATIONS:
        raise ValueError(f"unknown normalization {mode!r}")
    if inst.n_columns == 0:
        raise ValueError("empty instrument set")
    # each column reduced as one contiguous row, in the order a per-column
    # np.std sums it, so the normalized roster is bit for bit the loop's; a
    # block of columns at a time, so that the transposed copy stays small
    sd = np.empty(inst.n_columns)
    for j in range(0, inst.n_columns, _SD_BLOCK):
        cols = slice(j, j + _SD_BLOCK)
        rows = np.ascontiguousarray(inst.Q[:, cols].T)
        sd[cols] = np.std(rows, axis=1, ddof=1)
    keep = (sd > 0.0) & np.isfinite(sd)
    for lab, kept in zip(inst.labels, keep):
        if not kept:
            warnings.warn(f"dropping zero-variance instrument column {lab!r}")
    if not np.any(keep):
        from .estimation import NumericalFailure     # estimation imports this module
        raise NumericalFailure("all instrument columns had zero variance")
    # one n x k result, in C order as the Gram's bits need
    Q = inst.Q if keep.all() else inst.Q.compress(keep, axis=1)
    out = np.empty(Q.shape)
    return InstrumentSet(np.divide(Q, sd[keep], out=out),
                         tuple(lab for lab, k in zip(inst.labels, keep) if k))


def q1_roster(network: GroupedNetwork, base: np.ndarray) -> InstrumentSet:
    """Small roster J [base, W base, M base, M W base], duplicates dropped.

    ``base`` is normally the regressor block (X1, W X2); when own and
    contextual characteristics share columns the blocks overlap, so exact
    duplicate columns are removed (keeping the first occurrence) to keep the
    Gram matrix invertible.
    """
    base = _as_rows(base, network.n)
    Wb = network.lag_W(base)
    blocks = [base, Wb, network.lag_M(base), network.lag_M(Wb)]
    tags = ["X", "W.X", "M.X", "M.W.X"]
    cols, labels = [], []

    def is_duplicate(col: np.ndarray) -> bool:
        scale = float(np.linalg.norm(col))
        for kept in cols:
            if np.linalg.norm(col - kept) <= 1e-12 * max(scale, np.linalg.norm(kept)):
                return True
        return False

    for blk, tag in zip(blocks, tags):
        for c in range(blk.shape[1]):
            col = blk[:, c]
            if is_duplicate(col):
                continue
            cols.append(col)
            labels.append(f"J.{tag}[{c}]")
    # J goes column by column so each column's rounding is independent of the
    # others; PC selection inside a repeated eigenvalue turns a last-bit
    # change into a different component count
    return _drop_zero_columns(np.column_stack([network.J.apply(c) for c in cols]),
                              labels)


def q2_roster(network: GroupedNetwork, q1: InstrumentSet) -> InstrumentSet:
    """The small roster ``q1`` extended by the centrality block J W iota.

    ``q1`` is the network's ``q1_roster``, whose columns come first.  iota is
    the block-diagonal matrix of per-group ones vectors, so this adds one
    out-degree column per group; the instrument count grows with the number
    of groups (the many-instruments regime).

    Group r's column J_r W_r iota_r is nonzero only on that group's rows, and
    there it equals the n-vector v = J W 1.  So v is computed once and its
    entries are scattered into the roster, one per row; no n x G block is
    formed.  Numerically zero columns (groups without links, or whose W_r
    iota_r J annihilates) are dropped by the same rule as everywhere else.
    """
    n, c = q1.n, q1.n_columns
    sizes = np.asarray(network.group_sizes)
    v = network.J.apply(network.lag_W(np.ones(n)))
    peaks = np.concatenate([np.abs(q1.Q).max(axis=0),
                            np.maximum.reduceat(np.abs(v), np.cumsum(sizes) - sizes)])
    labels = list(q1.labels) + [f"J.W.iota[{r}]" for r in range(sizes.size)]
    keep = _keep_nonzero(peaks, labels)
    column = np.cumsum(keep) - 1                    # each kept column's place
    owner = c + np.repeat(np.arange(sizes.size), sizes)     # each row's own column
    rows = np.flatnonzero(keep[owner])
    Q = np.zeros((n, column[-1] + 1))
    Q[:, column[:c][keep[:c]]] = q1.Q[:, keep[:c]]
    Q[rows, column[owner[rows]]] = v[rows]
    return InstrumentSet(Q, tuple(lab for lab, k in zip(labels, keep) if k))
