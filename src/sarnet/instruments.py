"""Instrument matrices for the network 2SLS estimators.

The exogenous variation lives in network lags of the covariates (peers' and
peers-of-peers' characteristics), the Bonacich-type centrality columns
W^j iota, and, when disturbances are spatially correlated, the M-lagged copy
of all of the above.  The infinite family is truncated at a chosen lag order;
the fixed-effect annihilator J is always applied last so the instruments are
orthogonal to the swept-out group effects by construction (J Q = Q).

An ``InstrumentSet`` holds its global columns as a dense n x c matrix ``Q``.
Every power j of a centrality column adds one column per group, J_r W_r^j
iota_r, which is nonzero only on group r's rows; those columns are held as
one n-vector per power (column r is the vector on group r's rows), the
columns of the n x o matrix ``V``, and the first row of each group that has
a column, never as an n x G block.  ``q2_roster`` is the one-power case
(J W 1); ``build_instruments`` holds o = order powers, twice that with the
M copy.  Products with the roster and its normalization then cost O(n c)
plus segment sums of V.  With one power its Gram F'F/n is an arrowhead,
handed over as blocks (``arrowhead``), which the spectrum deflates in
closed form when the per-group columns share one sum of squares (unit
variance); every other roster the spectrum reads group by group
(``blocks``).  Only ``InstrumentSet`` reads that layout, so its methods
are the column rule of every roster: ``nonzero``, ``column_sds``,
``select`` and ``rescaled``.
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
#: each column rule's failure when it leaves no column, keyed by its drop warning's word
_NOTHING_LEFT = {"numerically zero": "all instrument columns are numerically zero",
                 "zero-variance": "all instrument columns had zero variance"}


class NumericalFailure(ValueError):
    """Valid input on which a stage has nothing to work with.

    No nonzero spectrum, no usable instrument column, or an undefined or
    non-finite selection criterion.  Any other ``ValueError`` is bad input
    or a bug.  Defined here, the lowest module that raises it.
    """


@dataclass(frozen=True)
class InstrumentSet:
    """Instrument matrix F = [Q | per-group columns] with per-column provenance labels.

    ``Q`` holds the global columns.  The optional per-group part splits the
    rows into segments at ``starts`` (segment s runs from ``starts[s]`` up
    to the next start, or n) and holds one column of the n x o matrix ``V``
    per power p: the per-group column (s, p) is V[:, p] on segment s's rows
    and zero elsewhere.  It exists where ``mask[s, p]``; ``mask`` is None
    when all of them do, as they do for one power.  V[:, p] is zero on the
    segment's rows where a column does not exist, as it is on every row of
    a group without a column, so those rows add exact zeros.  The per-group
    columns follow Q power by power, segments in order within a power.
    Without a per-group part F is Q, and every product below does exactly
    the arithmetic of Q itself; with one power (o = 1) it does that of the
    one n-vector V[:, 0].
    """

    Q: np.ndarray
    labels: tuple[str, ...]
    V: np.ndarray | None = None
    starts: np.ndarray | None = None
    mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "labels", tuple(self.labels))
        if (self.V is None) != (self.starts is None) or (self.V is None and self.mask is not None):
            raise ValueError("a per-group part needs both V and starts")
        if self.V is not None:
            V = np.asarray(self.V, dtype=float)
            starts = np.asarray(self.starts, dtype=np.intp)
            if V.ndim != 2 or V.shape[0] != Q.shape[0] or starts.ndim != 1 or starts.size == 0 \
                    or starts[0] < 0 or starts[-1] >= V.shape[0] or np.any(np.diff(starts) <= 0):
                raise ValueError("V needs one row per row of Q and starts ascending row indices")
            if self.mask is not None:
                mask = np.asarray(self.mask, dtype=bool)
                if mask.shape != (starts.size, V.shape[1]) or not mask.any(axis=1).all():
                    raise ValueError("mask needs one row per segment, each with a column")
                object.__setattr__(self, "mask", None if mask.all() else mask)
            object.__setattr__(self, "V", V)
            object.__setattr__(self, "starts", starts)
        if self.n_columns != len(self.labels):
            raise ValueError("one label per column required")

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def powers(self) -> int:
        """o, the number of columns of V; 0 without a per-group part."""
        return 0 if self.V is None else self.V.shape[1]

    @property
    def n_columns(self) -> int:
        if self.V is None:
            return self.Q.shape[1]
        per_group = self.powers * self.starts.size if self.mask is None else int(self.mask.sum())
        return self.Q.shape[1] + per_group

    def _segment_sums(self, x: np.ndarray) -> np.ndarray:
        """Row sums of x over each segment's rows, one row per segment."""
        return np.add.reduceat(x, self.starts, axis=0)

    def _rows(self, values: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """Each segment's row of ``values`` on its rows, ``fill`` above the first."""
        out = np.full((self.n,) + values.shape[1:], fill)
        out[self.starts[0]:] = np.repeat(values, np.diff(self.starts, append=self.n), axis=0)
        return out

    def _by_power(self, per_segment: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """``per_segment(v)`` for each column v of V, in column order: one row per column."""
        parts = [per_segment(v) for v in self.V.T]
        if self.mask is not None:
            parts = [part[kept] for part, kept in zip(parts, self.mask.T)]
        return np.concatenate(parts)

    def _scatter(self, values: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """``values``, one row per per-group column, as a (segments, powers, ...) array.

        Where a segment has no column of a power the entry is ``fill``.
        """
        by_power = (self.powers, self.starts.size) + values.shape[1:]
        if self.mask is None:
            return np.swapaxes(values.reshape(by_power), 0, 1)
        out = np.full(by_power, fill)
        out[self.mask.T] = values
        return np.swapaxes(out, 0, 1)

    def _single(self) -> np.ndarray:
        """V's one column; the Gram's per-group block is diagonal only then."""
        if self.powers != 1:
            raise ValueError("an arrowhead needs a per-group part of one power")
        return self.V[:, 0]

    def tdot(self, x: np.ndarray) -> np.ndarray:
        """F'x for an n-vector or an n-row matrix x."""
        head = self.Q.T @ x
        if self.V is None:
            return head
        return np.concatenate([head, self._by_power(
            lambda v: self._segment_sums((v if x.ndim == 1 else v[:, None]) * x))])

    def dot(self, c: np.ndarray) -> np.ndarray:
        """F c for an m-vector or an m-row matrix c."""
        k = self.Q.shape[1]
        if self.V is None:
            return self.Q @ c
        out = self.Q @ c[:k]
        for v, coef in zip(self.V.T, np.swapaxes(self._scatter(c[k:]), 0, 1)):
            out += (v if c.ndim == 1 else v[:, None]) * self._rows(coef)
        return out

    def arrowhead(self, apply: Callable[[np.ndarray], np.ndarray] | None = None,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The blocks (head, left, right, diagonal) of F'AF for a block-diagonal A.

        F'AF = [[head, right'], [left, diag(diagonal)]]: head = Q'AQ, and
        ``left`` and ``right`` have one row per per-group column.  ``apply``
        maps V -> A V; without it A = I, F'F is symmetric and ``right`` is
        ``left``.  A acts on the c + 1 columns [Q, v] once, v the one column
        of V.  Being block diagonal, it maps the per-group column s to (A v)
        on segment s's rows, so both borders and the diagonal are segment
        sums of entrywise products of those columns.  Without exactly one
        power F'AF is no arrowhead.
        """
        Q, v = self.Q, self._single()
        if apply is None:
            AQ, Av = Q, v
        else:
            AF = apply(np.column_stack([Q, v]))
            AQ, Av = AF[:, :-1], AF[:, -1]
        left = self._segment_sums(v[:, None] * AQ)
        right = left if apply is None else self._segment_sums(Q * Av[:, None])
        return Q.T @ AQ, left, right, self._segment_sums(v * Av)

    def per_group_squares(self, values: np.ndarray) -> np.ndarray:
        """v_i^2 times row i's segment's entry of ``values``, v the one column of V."""
        v = self._single()
        return v * v * self._rows(values)

    def blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The per-group part as (rows, V[rows]) per segment length L, rows g x L.

        Each segment's rows of V, zero in the powers it has no column for,
        stacked with the other segments of its length; empty without a
        per-group part.  Together the blocks hold every per-group column.
        """
        if self.V is None:
            return []
        lengths = np.diff(self.starts, append=self.n)
        return [(rows, self.V[rows]) for rows in
                (self.starts[lengths == m][:, None] + np.arange(m) for m in np.unique(lengths))]

    def dense(self) -> np.ndarray:
        """F as one n x m matrix, the per-group columns written out in full."""
        if self.V is None:
            return self.Q
        segments = self._rows(np.eye(self.starts.size))
        return np.column_stack([self.Q, self._by_power(lambda v: (v[:, None] * segments).T).T])

    def peaks(self) -> np.ndarray:
        """Each column's largest absolute entry."""
        peaks = np.abs(self.Q).max(axis=0)
        if self.V is None:
            return peaks
        return np.concatenate([peaks, self._by_power(
            lambda v: np.maximum.reduceat(np.abs(v), self.starts))])

    def column_sds(self) -> np.ndarray:
        """Each column's sample SD (ddof 1), NaN where rounding leaves no variance."""
        n, k = self.n, self.Q.shape[1]
        sd = np.empty(self.n_columns)
        sd[:k] = np.std(self.Q, axis=0, ddof=1)
        if self.V is not None:
            # sum over all n rows of (x - mean)^2 = s2 - s1^2/n; J sweeps each
            # group's mean, so s1 is rounding noise and nothing cancels.  A
            # group that spans all n rows can round below zero: NaN
            s1 = self._by_power(self._segment_sums)
            s2 = self._by_power(lambda v: self._segment_sums(v * v))
            with np.errstate(invalid="ignore"):
                sd[k:] = np.sqrt((s2 - s1 * s1 / n) / (n - 1))
        return sd

    def select(self, keep: np.ndarray, why: str) -> InstrumentSet:
        """The columns marked by ``keep``, the dropped ones named in one warning."""
        dropped = [lab for lab, kept in zip(self.labels, keep) if not kept]
        if len(dropped) == 1:
            warnings.warn(f"dropping {why} instrument column {dropped[0]!r}")
        elif dropped:
            warnings.warn(f"dropping {len(dropped)} {why} instrument columns: "
                          + ", ".join(map(repr, dropped)))
        if not keep.any():
            raise NumericalFailure(_NOTHING_LEFT[why])
        k = self.Q.shape[1]
        # a boolean index copies even when it keeps every column, and into
        # F order; compress keeps C order, so column_sds rounds one way
        Q = self.Q if keep[:k].all() else np.compress(keep[:k], self.Q, axis=1)
        labels = tuple(lab for lab, kept in zip(self.labels, keep) if kept)
        if self.V is None or not keep[k:].any():
            return InstrumentSet(Q, labels)
        if keep[k:].all():
            return InstrumentSet(Q, labels, self.V, self.starts, self.mask)
        # V is zeroed where a column goes, and a segment left without one merges
        # into the one before it
        mask = self._scatter(keep[k:], fill=False)
        V = np.where(self._rows(mask, fill=False), self.V, 0.0)
        segments = mask.any(axis=1)
        return InstrumentSet(Q, labels, V, self.starts[segments], mask[segments])

    def nonzero(self) -> InstrumentSet:
        """The columns whose peak is above ``ZERO_COLUMN_RTOL`` times the largest."""
        peaks = self.peaks()
        scale = float(peaks.max()) if peaks.size else 0.0
        if scale <= 0.0:
            raise NumericalFailure(_NOTHING_LEFT["numerically zero"])
        return self.select(peaks > ZERO_COLUMN_RTOL * scale, "numerically zero")

    def rescaled(self, sd: np.ndarray) -> InstrumentSet:
        """Each column divided by its entry of ``sd``; V is divided row by row."""
        k = self.Q.shape[1]
        # one n x c result, in C order as the Gram's bits need
        Q = np.divide(self.Q, sd[:k], out=np.empty(self.Q.shape))
        V = None if self.V is None else self.V / self._rows(self._scatter(sd[k:], 1.0), 1.0)
        return InstrumentSet(Q, self.labels, V, self.starts, self.mask)


def build_instruments(network: GroupedNetwork, X: np.ndarray, order: int,
                      include_bonacich: bool = True,
                      include_M_lags: bool = True) -> InstrumentSet:
    """Truncated instrument family J [lags of X, X, centrality columns, M copy].

    Columns, before J: W X, ..., W^order X, X itself, then (optionally) the
    M-premultiplied copy of those, as built by
    ``identification.labelled_stack``; then (optionally) the centrality
    columns W iota, ..., W^order iota and their M copies.  iota is the
    block-diagonal matrix of per-group ones vectors, so every power
    contributes one column per group, held as the per-group part V.
    Numerically zero columns (underflowed high powers, covariates constant
    within groups) are dropped by ``InstrumentSet.nonzero``.
    """
    X = _as_rows(X, network.n)
    if X.shape[0] != network.n:
        raise ValueError("X rows must match the network order")
    stack, V, labels = labelled_stack(network, X, order, include_bonacich, include_M_lags)
    labels = [f"J.{lab}" for lab in labels]
    if V is None:
        return InstrumentSet(network.J.apply(stack), labels).nonzero()
    return InstrumentSet(network.J.apply(stack), labels, network.J.apply(V),
                         _group_starts(network)).nonzero()


def _group_starts(network: GroupedNetwork) -> np.ndarray:
    """Each group's first row."""
    sizes = np.asarray(network.group_sizes)
    return np.cumsum(sizes) - sizes


def normalize_columns(inst: InstrumentSet, mode: str) -> InstrumentSet:
    """Rescale columns to unit sample variance (``unit-variance``) or not (``none``).

    Tikhonov-style damping is not scale invariant, so columns with very
    different variances (a squared network lag versus a centrality count)
    would be regularized unevenly without this.  Zero-variance columns are
    dropped with their label, and the rescaled set keeps the per-group layout.
    """
    if mode == "none":
        return inst
    if mode not in _NORMALIZATIONS:
        raise ValueError(f"unknown normalization {mode!r}")
    if inst.n_columns == 0:
        raise ValueError("empty instrument set")
    sd = inst.column_sds()
    keep = (sd > 0.0) & np.isfinite(sd)
    return inst.select(keep, "zero-variance").rescaled(sd[keep])


def _distinct_columns(columns) -> list[int]:
    """Indices of the rows of ``columns`` (one column per row) that repeat no
    earlier kept one, first ones kept.

    A column repeats another when their difference has norm at most 1e-12
    times the larger of the two norms.  One Gram matrix screens the pairs:
    |a|^2 + |b|^2 - 2 a'b is within about n eps max(|a|, |b|)^2 of
    |a - b|^2, far below the 1e-6 max(|a|, |b|)^2 it is held against, so
    every repeat passes the screen, and only the pairs that pass are
    differenced.
    """
    columns = np.ascontiguousarray(columns, dtype=float)
    gram = columns @ columns.T
    sq = gram.diagonal()
    larger = np.maximum.outer(sq, sq)
    near = sq[:, None] + sq - 2.0 * gram <= 1e-6 * larger
    kept: list[int] = []
    for i, col in enumerate(columns):
        close = [j for j in kept if near[i, j]]
        if not close or not (np.linalg.norm(columns[close] - col, axis=1)
                             <= 1e-12 * np.sqrt(larger[i, close])).any():
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
    stack = np.column_stack(blocks)
    labels = [f"J.{tag}[{c}]" for blk, tag in zip(blocks, tags) for c in range(blk.shape[1])]
    keep = _distinct_columns(stack.T)
    return InstrumentSet(network.J.apply(stack[:, keep]), [labels[i] for i in keep]).nonzero()


def q2_roster(network: GroupedNetwork, q1: InstrumentSet) -> InstrumentSet:
    """The small roster ``q1`` extended by the centrality block J W iota.

    ``q1`` is the network's ``q1_roster``, whose columns come first.  iota is
    the block-diagonal matrix of per-group ones vectors, so this adds one
    out-degree column per group; the instrument count grows with the number
    of groups (the many-instruments regime).

    Group r's column J_r W_r iota_r is nonzero only on that group's rows, and
    there it equals the n-vector v = J W 1, which the roster holds as the one
    column of its per-group part next to q1's shared columns.  Numerically
    zero columns (groups without links, or whose W_r iota_r J annihilates)
    are dropped by ``InstrumentSet.nonzero``.
    """
    v = network.J.apply(network.lag_W(np.ones(q1.n)))
    labels = q1.labels + tuple(f"J.W.iota[{r}]" for r in range(network.group_count))
    return InstrumentSet(q1.Q, labels, v[:, None], _group_starts(network)).nonzero()
