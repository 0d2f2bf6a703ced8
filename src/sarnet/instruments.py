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
of v; its Gram F'F/n is an arrowhead, handed over as blocks (``arrowhead``).
Only ``InstrumentSet`` reads that layout, so its methods are the column
rule of every roster: ``nonzero``, ``column_sds``, ``select`` and ``rescaled``.
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

    def arrowhead(self, apply: Callable[[np.ndarray], np.ndarray] | None = None,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The blocks (head, left, right, diagonal) of F'AF for a block-diagonal A.

        F'AF = [[head, right'], [left, diag(diagonal)]]: head = Q'AQ, and
        ``left`` and ``right`` have one row per per-group column.  ``apply``
        maps V -> A V; without it A = I, F'F is symmetric and ``right`` is
        ``left``.  A acts on the c + 1 columns [Q, v] once.  Being block
        diagonal, it maps the per-group column r to (A v) on group r's rows,
        so both borders and the diagonal are segment sums of entrywise
        products of those columns.  Without a per-group part they are empty.
        """
        Q, v = self.Q, self.v
        if v is None:
            empty = np.empty((0, Q.shape[1]))
            return Q.T @ (Q if apply is None else apply(Q)), empty, empty, np.empty(0)
        if apply is None:
            AQ, Av = Q, v
        else:
            AF = apply(np.column_stack([Q, v]))
            AQ, Av = AF[:, :-1], AF[:, -1]
        left = self._segment_sums(v[:, None] * AQ)
        right = left if apply is None else self._segment_sums(Q * Av[:, None])
        return Q.T @ AQ, left, right, self._segment_sums(v * Av)

    def per_group_squares(self, values: np.ndarray) -> np.ndarray:
        """(V * V) values: v_i^2 times the entry of row i's per-group column."""
        return self.v * self.v * self._rows(values)

    def dense(self) -> np.ndarray:
        """F as one n x m matrix, the per-group columns written out in full."""
        if self.v is None:
            return self.Q
        out = np.zeros((self.n, self.n_columns))
        k = self.Q.shape[1]
        out[:, :k] = self.Q
        out[:, k:] = self._per_row(np.eye(self.starts.size))
        return out

    def peaks(self) -> np.ndarray:
        """Each column's largest absolute entry."""
        peaks = np.abs(self.Q).max(axis=0)
        if self.v is None:
            return peaks
        return np.concatenate([peaks, np.maximum.reduceat(np.abs(self.v), self.starts)])

    def column_sds(self) -> np.ndarray:
        """Each column's sample SD (ddof 1), NaN where rounding leaves no variance."""
        n, k = self.n, self.Q.shape[1]
        sd = np.empty(self.n_columns)
        sd[:k] = np.std(self.Q, axis=0, ddof=1)
        if self.v is not None:
            # sum over all n rows of (x - mean)^2 = s2 - s1^2/n; J sweeps each
            # group's mean, so s1 is rounding noise and nothing cancels.  A
            # group that spans all n rows can round below zero: NaN
            s1 = self._segment_sums(self.v)
            s2 = self._segment_sums(self.v * self.v)
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
        if self.v is None or not keep[k:].any():
            return InstrumentSet(Q, labels)
        v = self.v if keep[k:].all() else np.where(self._rows(keep[k:], fill=False), self.v, 0.0)
        return InstrumentSet(Q, labels, v, self.starts[keep[k:]])

    def nonzero(self) -> InstrumentSet:
        """The columns whose peak is above ``ZERO_COLUMN_RTOL`` times the largest."""
        peaks = self.peaks()
        scale = float(peaks.max()) if peaks.size else 0.0
        if scale <= 0.0:
            raise NumericalFailure(_NOTHING_LEFT["numerically zero"])
        return self.select(peaks > ZERO_COLUMN_RTOL * scale, "numerically zero")

    def rescaled(self, sd: np.ndarray) -> InstrumentSet:
        """Each column divided by its entry of ``sd``; v is divided row by row."""
        k = self.Q.shape[1]
        # one n x c result, in C order as the Gram's bits need
        Q = np.divide(self.Q, sd[:k], out=np.empty(self.Q.shape))
        v = None if self.v is None else self.v / self._rows(sd[k:], fill=1.0)
        return InstrumentSet(Q, self.labels, v, self.starts)


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
    dropped by ``InstrumentSet.nonzero``.
    """
    X = _as_rows(X, network.n)
    if X.shape[0] != network.n:
        raise ValueError("X rows must match the network order")
    stack, labels = labelled_stack(network, X, order, include_bonacich, include_M_lags)
    return InstrumentSet(network.J.apply(stack), [f"J.{lab}" for lab in labels]).nonzero()


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
    return InstrumentSet(network.J.apply(np.column_stack([cols[i] for i in keep])),
                         [labels[i] for i in keep]).nonzero()


def q2_roster(network: GroupedNetwork, q1: InstrumentSet) -> InstrumentSet:
    """The small roster ``q1`` extended by the centrality block J W iota.

    ``q1`` is the network's ``q1_roster``, whose columns come first.  iota is
    the block-diagonal matrix of per-group ones vectors, so this adds one
    out-degree column per group; the instrument count grows with the number
    of groups (the many-instruments regime).

    Group r's column J_r W_r iota_r is nonzero only on that group's rows, and
    there it equals the n-vector v = J W 1, which the roster holds as its
    per-group part next to q1's shared columns.  Numerically zero columns
    (groups without links, or whose W_r iota_r J annihilates) are dropped by
    ``InstrumentSet.nonzero``.
    """
    sizes = np.asarray(network.group_sizes)
    v = network.J.apply(network.lag_W(np.ones(q1.n)))
    labels = q1.labels + tuple(f"J.W.iota[{r}]" for r in range(sizes.size))
    return InstrumentSet(q1.Q, labels, v, np.cumsum(sizes) - sizes).nonzero()
