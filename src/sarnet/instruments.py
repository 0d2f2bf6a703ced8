"""Instrument matrices for the network 2SLS estimators.

The exogenous variation lives in network lags of the covariates (peers' and
peers-of-peers' characteristics), the Bonacich-type centrality columns
W^j iota, and, when disturbances are spatially correlated, the M-lagged copy
of all of the above.  The infinite family is truncated at a chosen lag order;
the fixed-effect annihilator J is always applied last so the instruments are
orthogonal to the swept-out group effects by construction (J Q = Q).

An ``InstrumentSet`` holds its global columns as a dense n x c matrix ``Q``.
The large roster ``q2_roster`` adds one centrality column per group, J_r W_r
iota_r, which is nonzero only on group r's rows; those columns are held as
one n-vector ``v`` (column r is v on group r's rows) and the first row of
each group that has a column, never as an n x G block.  Products with the
roster, its Gram and its normalization then cost O(n c) plus segment sums
of v.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graphs import GroupedNetwork, _as_rows
from .identification import labelled_stack

__all__ = ["InstrumentSet", "NumericalFailure", "build_instruments",
           "normalize_columns", "q1_roster", "q2_roster"]

#: columns whose largest absolute entry falls below this times the largest
#: entry of any column are dropped as numerically zero (underflowed high
#: powers, covariates constant within groups after the J projection)
ZERO_COLUMN_RTOL = 1e-13

_NORMALIZATIONS = ("none", "unit-variance")
_SD_BLOCK = 16      # columns that normalize_columns transposes and reduces at a time


class NumericalFailure(ValueError):
    """Valid input on which a stage has nothing to work with.

    No nonzero spectrum, no usable instrument column, or an undefined or
    non-finite selection criterion.  Any other ``ValueError`` is bad input
    or a bug.  Defined here, the lowest module that raises it.
    """


@dataclass(frozen=True)
class InstrumentSet:
    """Instrument matrix F = [Q | V] with per-column provenance labels.

    ``Q`` holds the global columns.  The optional per-group part V has one
    column per entry of ``starts``: column r is ``v`` on the rows from
    ``starts[r]`` up to the next start (or n) and zero elsewhere.  ``v`` is
    zero on every row of a group without a column, so those rows add exact
    zeros.  Without a per-group part F is Q, and every product below does
    exactly the arithmetic of Q itself.
    """

    Q: np.ndarray
    labels: tuple[str, ...]
    v: np.ndarray | None = None
    starts: np.ndarray | None = None

    def __post_init__(self) -> None:
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "labels", tuple(self.labels))
        if (self.v is None) != (self.starts is None):
            raise ValueError("a per-group part needs both v and starts")
        if self.v is not None:
            v = np.asarray(self.v, dtype=float)
            starts = np.asarray(self.starts, dtype=np.intp)
            if v.shape != (Q.shape[0],) or starts.ndim != 1 or starts.size == 0 \
                    or starts[0] < 0 or starts[-1] >= v.size or np.any(np.diff(starts) <= 0):
                raise ValueError("v needs one entry per row and starts ascending row indices")
            object.__setattr__(self, "v", v)
            object.__setattr__(self, "starts", starts)
        if self.n_columns != len(self.labels):
            raise ValueError("one label per column required")

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def n_columns(self) -> int:
        return self.Q.shape[1] + (0 if self.starts is None else self.starts.size)

    def _segment_sums(self, x: np.ndarray) -> np.ndarray:
        """Row sums of x over each per-group column's rows, one row per column."""
        return np.add.reduceat(x, self.starts, axis=0)

    def _rows(self, values: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """Each per-group column's row of ``values`` on its rows, ``fill`` above them."""
        out = np.full((self.n,) + values.shape[1:], fill)
        out[self.starts[0]:] = np.repeat(values, np.diff(self.starts, append=self.n), axis=0)
        return out

    def _per_row(self, c: np.ndarray) -> np.ndarray:
        """V c for a vector or matrix c with one row per per-group column."""
        return (self.v if c.ndim == 1 else self.v[:, None]) * self._rows(c)

    def tdot(self, x: np.ndarray) -> np.ndarray:
        """F'x for an n-vector or an n-row matrix x."""
        head = self.Q.T @ x
        if self.v is None:
            return head
        vx = (self.v if x.ndim == 1 else self.v[:, None]) * x
        return np.concatenate([head, self._segment_sums(vx)])

    def dot(self, c: np.ndarray) -> np.ndarray:
        """F c for an m-vector or an m-row matrix c."""
        k = self.Q.shape[1]
        if self.v is None:
            return self.Q @ c
        return self.Q @ c[:k] + self._per_row(c[k:])

    def gram(self, apply: Callable[[np.ndarray], np.ndarray] | None = None) -> np.ndarray:
        """F'AF for a block-diagonal A given by ``apply`` (V -> A V); F'F without.

        A acts on the c + 1 columns [Q, v] once.  Being block diagonal, it
        maps the per-group column r to (A v) on group r's rows, so every
        block of F'AF is a product of those columns or a segment sum of
        their entrywise products; the per-group block is diagonal.
        """
        Q, v = self.Q, self.v
        if v is None:
            return Q.T @ (Q if apply is None else apply(Q))
        if apply is None:
            AQ, Av = Q, v
        else:
            AF = apply(np.column_stack([Q, v]))
            AQ, Av = AF[:, :-1], AF[:, -1]
        k = Q.shape[1]
        out = np.zeros((self.n_columns, self.n_columns))
        out[:k, :k] = Q.T @ AQ
        out[:k, k:] = self._segment_sums(Q * Av[:, None]).T
        out[k:, :k] = self._segment_sums(v[:, None] * AQ)
        np.fill_diagonal(out[k:, k:], self._segment_sums(v * Av))
        return out

    def dense(self) -> np.ndarray:
        """F as one n x m matrix, the per-group columns written out in full."""
        if self.v is None:
            return self.Q
        out = np.zeros((self.n, self.n_columns))
        k = self.Q.shape[1]
        out[:, :k] = self.Q
        out[:, k:] = self._per_row(np.eye(self.starts.size))
        return out


def _keep_nonzero(peaks: np.ndarray, labels: list[str]) -> np.ndarray:
    """Which columns to keep, given each column's largest absolute entry.

    A column is numerically zero when its peak falls below
    ``ZERO_COLUMN_RTOL`` times the largest peak; each one is dropped with a
    warning carrying its label.
    """
    scale = float(peaks.max()) if peaks.size else 0.0
    if scale <= 0.0:
        raise NumericalFailure("all instrument columns are numerically zero")
    keep = peaks > ZERO_COLUMN_RTOL * scale
    for lab, kept in zip(labels, keep):
        if not kept:
            warnings.warn(f"dropping numerically zero instrument column {lab!r}")
    return keep


def _group_subset(Q: np.ndarray, labels, v: np.ndarray, starts: np.ndarray,
                  keep: np.ndarray) -> InstrumentSet:
    """Q and the per-group columns ``keep`` selects; v is zero on the others' rows."""
    if not keep.any():
        return InstrumentSet(Q, labels)
    return InstrumentSet(Q, labels, v, starts[keep])


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
    dropped with their label.  A per-group column is v on its group's rows
    and zero elsewhere, so its variance comes from the segment sums of v and
    v^2, and the rescaled set keeps the layout: v divided row by row.
    """
    if mode == "none":
        return inst
    if mode not in _NORMALIZATIONS:
        raise ValueError(f"unknown normalization {mode!r}")
    if inst.n_columns == 0:
        raise ValueError("empty instrument set")
    n, k = inst.n, inst.Q.shape[1]
    # each column reduced as one contiguous row, in the order a per-column
    # np.std sums it, so the normalized roster is bit for bit the loop's; a
    # block of columns at a time, so that the transposed copy stays small
    sd = np.empty(inst.n_columns)
    for j in range(0, k, _SD_BLOCK):
        cols = slice(j, min(j + _SD_BLOCK, k))
        rows = np.ascontiguousarray(inst.Q[:, cols].T)
        sd[cols] = np.std(rows, axis=1, ddof=1)
    if inst.v is not None:
        # sum over all n rows of (x - mean)^2 = s2 - s1^2/n; J sweeps each
        # group's mean, so s1 is rounding noise and nothing cancels.  A
        # group that spans all n rows can round below zero: NaN, dropped
        s1 = inst._segment_sums(inst.v)
        s2 = inst._segment_sums(inst.v * inst.v)
        with np.errstate(invalid="ignore"):
            sd[k:] = np.sqrt((s2 - s1 * s1 / n) / (n - 1))
    keep = (sd > 0.0) & np.isfinite(sd)
    for lab, kept in zip(inst.labels, keep):
        if not kept:
            warnings.warn(f"dropping zero-variance instrument column {lab!r}")
    if not np.any(keep):
        raise NumericalFailure("all instrument columns had zero variance")
    labels = tuple(lab for lab, kp in zip(inst.labels, keep) if kp)
    # one n x c result, in C order as the Gram's bits need
    Q = inst.Q if keep[:k].all() else inst.Q.compress(keep[:k], axis=1)
    Q = np.divide(Q, sd[:k][keep[:k]], out=np.empty(Q.shape))
    if inst.v is None:
        return InstrumentSet(Q, labels)
    # a dropped column's rows are divided by inf, which zeroes them
    scale = inst._rows(np.where(keep[k:], sd[k:], np.inf), fill=np.inf)
    return _group_subset(Q, labels, inst.v / scale, inst.starts, keep[k:])


def _distinct_columns(columns) -> list[int]:
    """Indices of the columns that repeat no earlier kept column, first ones kept.

    A column repeats another when their difference has norm at most 1e-12
    times the larger of the two norms.
    """
    kept: list[int] = []
    for i, col in enumerate(columns):
        scale = float(np.linalg.norm(col))
        if not any(np.linalg.norm(col - columns[j])
                   <= 1e-12 * max(scale, np.linalg.norm(columns[j])) for j in kept):
            kept.append(i)
    return kept


def q1_roster(network: GroupedNetwork, base: np.ndarray) -> InstrumentSet:
    """Small roster J [base, W base, M base, M W base], duplicates dropped.

    ``base`` is normally the regressor block (X1, W X2); when own and
    contextual characteristics share columns the blocks overlap, so exact
    duplicate columns are removed by ``_distinct_columns`` to keep the Gram
    matrix invertible.
    """
    base = _as_rows(base, network.n)
    Wb = network.lag_W(base)
    blocks = [base, Wb, network.lag_M(base), network.lag_M(Wb)]
    tags = ["X", "W.X", "M.X", "M.W.X"]
    cols = [blk[:, c] for blk in blocks for c in range(blk.shape[1])]
    labels = [f"J.{tag}[{c}]" for blk, tag in zip(blocks, tags) for c in range(blk.shape[1])]
    keep = _distinct_columns(cols)
    # J goes column by column so each column's rounding is independent of the
    # others; PC selection inside a repeated eigenvalue turns a last-bit
    # change into a different component count
    return _drop_zero_columns(np.column_stack([network.J.apply(cols[i]) for i in keep]),
                              [labels[i] for i in keep])


def q2_roster(network: GroupedNetwork, q1: InstrumentSet) -> InstrumentSet:
    """The small roster ``q1`` extended by the centrality block J W iota.

    ``q1`` is the network's ``q1_roster``, whose columns come first.  iota is
    the block-diagonal matrix of per-group ones vectors, so this adds one
    out-degree column per group; the instrument count grows with the number
    of groups (the many-instruments regime).

    Group r's column J_r W_r iota_r is nonzero only on that group's rows, and
    there it equals the n-vector v = J W 1.  So v is computed once and the
    roster holds it as its per-group part; no n x G block is formed, and
    q1's columns are shared, not copied, when all of them are kept.
    Numerically zero columns (groups without links, or whose W_r iota_r J
    annihilates) are dropped by the same rule as everywhere else, and v is
    zeroed on their rows.
    """
    c = q1.n_columns
    sizes = np.asarray(network.group_sizes)
    starts = np.cumsum(sizes) - sizes
    v = network.J.apply(network.lag_W(np.ones(q1.n)))
    peaks = np.concatenate([np.abs(q1.Q).max(axis=0), np.maximum.reduceat(np.abs(v), starts)])
    labels = list(q1.labels) + [f"J.W.iota[{r}]" for r in range(sizes.size)]
    keep = _keep_nonzero(peaks, labels)
    Q = q1.Q if keep[:c].all() else q1.Q[:, keep[:c]]
    kept = tuple(lab for lab, k in zip(labels, keep) if k)
    if not keep[c:].all():
        v = np.where(np.repeat(keep[c:], sizes), v, 0.0)
    return _group_subset(Q, kept, v, starts, keep[c:])
