"""Grouped sociomatrices: construction, validation, random generation, CSV input.

A sample is a collection of disjoint groups.  Interactions only happen within
a group, so the full-sample interaction matrices W (outcome spillovers) and M
(disturbance spillovers) are block diagonal with one block per group, and a
``GroupedNetwork`` stores only those blocks, as one stack per group size.  The
fixed-effect annihilator J is held on the same layout.  This module is the
only one that knows which rows a size's stack covers.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "BlockStacks",
    "GroupedNetwork",
    "JProjector",
    "PanelData",
    "build_block_diagonal",
    "row_normalize",
    "generate_mc_network",
    "lee_group_network",
    "load_edge_csv",
    "load_node_csv",
    "load_network",
]


def _as_rows(A: np.ndarray, n: int) -> np.ndarray:
    """``A`` as a 2-D float array with n rows, transposing a row-major input."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return A.T if A.shape[0] != n else A


def _size_groups(group_sizes: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Indices of the groups of each distinct size, sizes ascending."""
    sizes = np.asarray(group_sizes, dtype=int)
    return tuple(np.flatnonzero(sizes == m) for m in np.unique(sizes))


def _group_rows(group_sizes: Sequence[int], groups: np.ndarray) -> slice | np.ndarray:
    """The rows of these equal-size groups (ascending indices), group after group.

    A plain slice when the groups are consecutive, so that a stacked kernel
    reshapes its input instead of gathering it; an index array otherwise.
    """
    sizes = np.asarray(group_sizes, dtype=int)
    m, start = int(sizes[groups[0]]), int(sizes[:groups[0]].sum())
    if groups[-1] - groups[0] + 1 == groups.size:
        return slice(start, start + groups.size * m)
    starts = np.cumsum(sizes) - sizes
    return (starts[groups][:, None] + np.arange(m)).ravel()


def _map_stacked(fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 parts: Sequence[tuple[slice | np.ndarray, np.ndarray]],
                 V: np.ndarray) -> np.ndarray:
    """Apply a block-diagonal operator with one batched call per part.

    Each part pairs the rows it covers with a (g, m, ...) stack of per-group
    operands.  V's rows of those g groups go to ``fn(stack, V_g)`` as a
    (g, m, k) stack, and the (g, m, k) result fills the same rows of the
    output.  A vector V is treated as one column.  When one stack covers
    every row, its result is the output, without a copy.
    """
    V = np.asarray(V, dtype=float)
    k = math.prod(V.shape[1:])
    if len(parts) == 1:
        stack = parts[0][1]
        return fn(stack, V.reshape(stack.shape[0], stack.shape[1], k)).reshape(V.shape)
    out = np.empty_like(V)
    for rows, stack in parts:
        part = V[rows]
        out[rows] = fn(stack, part.reshape(stack.shape[0], stack.shape[1], k)
                       ).reshape(part.shape)
    return out


class BlockStacks:
    """A block-diagonal matrix stored as one read-only (g, m, m) stack per block size.

    ``parts`` holds one ``(rows, stack)`` pair per distinct block size,
    sizes ascending.  The stack's g blocks are those of the groups
    ``groups[p]`` (network indices, ascending), and ``rows`` are their rows,
    group after group, as given by ``_group_rows``: a slice whenever one size
    covers the whole matrix.  ``blocks()`` lists the blocks in network order
    as read-only views into the stacks.  Instances with the same group sizes
    share one layout, so their parts line up.
    """

    def __init__(self, group_sizes: Sequence[int], stacks: Sequence[np.ndarray]):
        self.group_sizes = tuple(int(m) for m in group_sizes)
        self.groups = _size_groups(self.group_sizes)
        shapes = [(g.size,) + (self.group_sizes[g[0]],) * 2 for g in self.groups]
        if [S.shape for S in stacks] != shapes:
            raise ValueError("need one (g, m, m) stack per distinct block size")
        for S in stacks:
            S.setflags(write=False)
        self.parts = tuple((_group_rows(self.group_sizes, g), S)
                           for g, S in zip(self.groups, stacks))

    @classmethod
    def from_blocks(cls, blocks: Iterable[np.ndarray] | np.ndarray,
                    name: str) -> "BlockStacks":
        """Float copies of nonempty square blocks: a sequence, or one (G, m, m) array.

        A ``BlockStacks`` is read-only and is returned as it is.
        """
        if isinstance(blocks, BlockStacks):
            return blocks
        if isinstance(blocks, np.ndarray) and blocks.ndim == 3 and blocks.shape[0] \
                and blocks.shape[1] == blocks.shape[2] > 0:
            return cls((blocks.shape[1],) * blocks.shape[0], [np.array(blocks, dtype=float)])
        blocks = [np.asarray(B, dtype=float) for B in blocks]
        for r, B in enumerate(blocks):
            if B.ndim != 2 or B.shape[0] != B.shape[1] or B.shape[0] < 1:
                raise ValueError(f"{name} block {r} is not a nonempty square "
                                 f"(shape {B.shape})")
        sizes = [B.shape[0] for B in blocks]
        return cls(sizes, [np.array([blocks[r] for r in g]) for g in _size_groups(sizes)])

    def stacks(self) -> tuple[np.ndarray, ...]:
        return tuple(S for _, S in self.parts)

    @functools.cached_property
    def row_sum_norm(self) -> float:
        """The largest absolute row sum over all blocks (the infinity-norm), formed once."""
        return max(float(np.abs(S).sum(axis=2).max()) for S in self.stacks())

    def blocks(self) -> tuple[np.ndarray, ...]:
        """The blocks in network order, as read-only views into the stacks."""
        out: list = [None] * len(self.group_sizes)
        for g, S in zip(self.groups, self.stacks()):
            for r, B in zip(g.tolist(), S):
                out[r] = B
        return tuple(out)

    def map(self, fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
            V: np.ndarray) -> np.ndarray:
        """``fn(stack, V_g)`` on every size's stack and its (g, m, k) rows of V."""
        return _map_stacked(fn, self.parts, V)

    def matmul(self, V: np.ndarray) -> np.ndarray:
        """This matrix times V, one batched product per block size."""
        return self.map(np.matmul, V)


#: relative residual of M iota on iota below which the two are treated as
#: collinear, and iota alone spans the annihilated space
COLLINEARITY_TOL = 1e-8
#: relative singular-value cutoff of J's generalized inverse
SV_CUTOFF = 1e-10


class JProjector:
    """Block-diagonal orthogonal projector annihilating span{iota, M_r iota}.

    Within each group the basis of the annihilated space is iota alone when
    M_r iota is (numerically) collinear with iota -- e.g. a row-normalized M
    with no zero rows, where the block reduces to the deviation-from-group-
    mean projector I - iota iota'/m -- and {iota, M_r iota} otherwise.

    The generalized inverse in the textbook formula
    I - A (A'A)^- A' with A = (iota, M_r iota) keeps A's second singular
    direction only when s_2 > ``SV_CUTOFF`` s_1.  Built from the diagonal
    blocks M_r of M (a ``BlockStacks``); a network holds its own as
    ``network.J``.

    J is stored only as its bases B_r, J_r = I - B_r B_r': ``parts`` holds
    one ``(rows, stack)`` pair per group size, on the rows of M's stacks,
    the stack (g, m, min(m, 2)).  The bases are built in closed form, with
    no decomposition: the first column is iota/sqrt(m), the second
    r = M_r iota - mean * iota, taken off iota a second time (classical
    Gram-Schmidt with one re-orthogonalization pass) and normalized.  It is
    zeroed where M_r iota is collinear with iota, or where s_2 <= cutoff s_1,
    with s_1 s_2 = sqrt(m) ||r|| and s_1^2 + s_2^2 = m + ||M_r iota||^2;
    so a basis of width 1 carries a zero column, and a singleton's basis
    is iota alone.  ``apply`` is one batched V - B (B' V) per size.
    """

    def __init__(self, M: BlockStacks):
        self.group_sizes = M.group_sizes
        parts, kept = [], 0
        for rows, M_s in M.parts:
            g, m = M_s.shape[:2]
            B = np.zeros((g, m, min(m, 2)))
            B[:, :, 0] = 1.0 / math.sqrt(m)
            kept += g
            if m > 1:
                mi = M_s.sum(axis=2)
                r = mi - mi.sum(axis=1, keepdims=True) / m
                norm_mi = np.sqrt((mi * mi).sum(axis=1))
                norm_r = np.sqrt((r * r).sum(axis=1))
                collinear = norm_r / np.maximum(norm_mi, 1e-300) < COLLINEARITY_TOL
                r -= r.sum(axis=1, keepdims=True) / m
                norm_r = np.sqrt((r * r).sum(axis=1))
                # s_1^2 is the larger root of s^4 - (m + ||M iota||^2) s^2 + m ||r||^2
                total, det = m + norm_mi ** 2, math.sqrt(m) * norm_r
                s1_sq = (total + np.sqrt(np.maximum(total ** 2 - 4.0 * det ** 2, 0.0))) / 2.0
                keep = ~collinear & (det > SV_CUTOFF * s1_sq)
                np.divide(r, norm_r[:, None], out=B[:, :, 1], where=keep[:, None])
                kept += int(keep.sum())
            parts.append((rows, B))
        self.parts = tuple(parts)
        #: tr J = n - the annihilated dimensions (J is a projector)
        self.trace = float(sum(self.group_sizes) - kept)

    def apply(self, V: np.ndarray) -> np.ndarray:
        """J V for a vector or matrix V, one batched product per group size.

        V is made C-contiguous first: BLAS picks its kernels, and with them
        the rounding, by the operands' strides.
        """
        return _map_stacked(lambda B, V: V - B @ (B.transpose(0, 2, 1) @ V), self.parts,
                            np.ascontiguousarray(V, dtype=float))

    def trace_product(self, A: BlockStacks) -> float:
        """tr(J A) for a block-diagonal A with this projector's group sizes.

        Per group, tr(J_r A_r) = tr(A_r) - tr(B_r' A_r B_r): O(m^2) from the
        basis, one batched product and one reduction per size.
        """
        if A.group_sizes != self.group_sizes:
            raise ValueError("A's group sizes differ from the projector's")
        return float(sum(np.trace(S, axis1=1, axis2=2).sum() - ((S @ B) * B).sum()
                         for S, (_, B) in zip(A.stacks(), self.parts)))


class GroupedNetwork:
    """Block-diagonal pair of sociomatrices, stored as per-size stacks of group blocks.

    W (outcome spillovers) and M (disturbance spillovers, possibly W itself
    or its row-normalization) share the group partition and have zero
    diagonals.  ``GroupedNetwork(group_sizes, W, M, m_row_normalized)``
    validates dense n x n input (zero outside the diagonal blocks) and splits
    it; ``from_blocks(W_blocks, M_blocks, m_row_normalized)`` takes the
    blocks directly, as sequences, as (G, m, m) arrays or as ``BlockStacks``.
    ``m_row_normalized`` declares, and is checked, that every nonzero row of
    M sums to one.

    W and M are stored as ``BlockStacks`` (``stacks_W()``, ``stacks_M()``):
    one read-only (g, m, m) stack per distinct group size, copied from the
    input.  The block-wise kernels (lags, solves, and ``J``, a ``JProjector``
    on the same rows) make one batched call per size.  ``blocks_W()`` and
    ``blocks_M()`` are read-only views into the stacks, one per group.
    """

    def __init__(self, group_sizes: Sequence[int], W: np.ndarray, M: np.ndarray,
                 m_row_normalized: bool = False) -> None:
        sizes = tuple(int(m) for m in group_sizes)
        if not sizes or any(m < 1 for m in sizes):
            raise ValueError("group_sizes must be positive integers")
        n, ends = sum(sizes), np.cumsum(sizes).tolist()
        split = []
        for name, A in (("W", W), ("M", M)):
            A = np.asarray(A, dtype=float)
            if A.shape != (n, n):
                raise ValueError(f"{name} must be {n}x{n}, got {A.shape}")
            blocks = [A[e - m:e, e - m:e] for m, e in zip(sizes, ends)]
            if np.count_nonzero(A) != sum(np.count_nonzero(B) for B in blocks):
                raise ValueError(f"{name} has nonzero entries outside the diagonal blocks")
            split.append(BlockStacks.from_blocks(blocks, name))
        self._set_stacks(*split, m_row_normalized)

    @classmethod
    def from_blocks(cls, W_blocks: Iterable[np.ndarray] | np.ndarray,
                    M_blocks: Iterable[np.ndarray] | np.ndarray,
                    m_row_normalized: bool = False) -> "GroupedNetwork":
        """The network whose W and M have the given square diagonal blocks."""
        net = cls.__new__(cls)
        net._set_stacks(BlockStacks.from_blocks(W_blocks, "W"),
                        BlockStacks.from_blocks(M_blocks, "M"), m_row_normalized)
        return net

    def _set_stacks(self, W: BlockStacks, M: BlockStacks, m_row_normalized: bool) -> None:
        if not W.group_sizes or W.group_sizes != M.group_sizes:
            raise ValueError("W and M need the same nonempty list of group sizes")
        for name, A in (("W", W), ("M", M)):
            if any(np.diagonal(S, axis1=1, axis2=2).any() for S in A.stacks()):
                raise ValueError(f"{name} has nonzero diagonal entries (self-links)")
        if m_row_normalized:
            for S in M.stacks():
                bad = np.abs(S.sum(axis=2) - 1.0) > 1e-10
                if np.any(bad & (np.abs(S).sum(axis=2) > 0)):
                    raise ValueError("M declared row-normalized but some nonzero row "
                                     "does not sum to 1")
        self.group_sizes = W.group_sizes
        self.m_row_normalized = bool(m_row_normalized)
        self._W, self._M = W, M

    # -- basic geometry -----------------------------------------------------

    @property
    def n(self) -> int:
        return int(sum(self.group_sizes))

    @property
    def group_count(self) -> int:
        return len(self.group_sizes)

    def stacks_W(self) -> BlockStacks:
        """W's blocks, one read-only (g, m, m) stack per group size."""
        return self._W

    def stacks_M(self) -> BlockStacks:
        """M's blocks, one read-only (g, m, m) stack per group size."""
        return self._M

    def stacks_MW(self) -> BlockStacks:
        """M W's blocks, one read-only (g, m, m) stack per group size, formed once."""
        return self._MW

    @functools.cached_property
    def _MW(self) -> BlockStacks:
        return BlockStacks(self.group_sizes, [M_s @ W_s for M_s, W_s
                                              in zip(self._M.stacks(), self._W.stacks())])

    def blocks_W(self) -> tuple[np.ndarray, ...]:
        """The diagonal blocks of W, one per group: read-only views into the stacks."""
        return self._W.blocks()

    def blocks_M(self) -> tuple[np.ndarray, ...]:
        """The diagonal blocks of M, one per group: read-only views into the stacks."""
        return self._M.blocks()

    @functools.cached_property
    def J(self) -> JProjector:
        """The fixed-effect annihilator of this network's M."""
        return JProjector(self._M)

    # -- block-wise products ------------------------------------------------

    def lag_W(self, V: np.ndarray) -> np.ndarray:
        """W @ V, one batched product per group size."""
        return self._W.matmul(V)

    def lag_M(self, V: np.ndarray) -> np.ndarray:
        """M @ V, one batched product per group size."""
        return self._M.matmul(V)

    def group_ones(self) -> np.ndarray:
        """The n x r indicator matrix whose columns are the group ι vectors."""
        out = np.zeros((self.n, self.group_count))
        out[np.arange(self.n), np.repeat(np.arange(self.group_count), self.group_sizes)] = 1.0
        return out

    def expand_group_values(self, per_group: np.ndarray) -> np.ndarray:
        """Stack one scalar per group into a length-n vector (ι γ)."""
        per_group = np.asarray(per_group, dtype=float)
        if per_group.shape != (self.group_count,):
            raise ValueError("need one value per group")
        return np.repeat(per_group, self.group_sizes)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def build_block_diagonal(blocks: Iterable[np.ndarray]) -> np.ndarray:
    """Assemble square blocks into one block-diagonal matrix.

    Every off-block entry of the result is exactly zero.  Non-square blocks
    are rejected with the offending index.
    """
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    if not blocks:
        raise ValueError("need at least one block")
    for i, b in enumerate(blocks):
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError(f"block {i} is not square (shape {b.shape})")
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    offset = 0
    for b in blocks:
        m = b.shape[0]
        out[offset:offset + m, offset:offset + m] = b
        offset += m
    return out


def row_normalize(W: np.ndarray) -> np.ndarray:
    """Scale each row with positive sum to sum one; zero rows stay zero.

    Entries must be nonnegative (weights), otherwise a row sum of zero would
    not mean an isolated node.  A (g, m, m) stack is normalized block by block.
    """
    W = np.asarray(W, dtype=float)
    if np.any(W < 0):
        raise ValueError("row_normalize requires nonnegative entries")
    sums = W.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(sums > 0, W / np.where(sums > 0, sums, 1.0), 0.0)
    return out


def lee_group_network(group_sizes: Sequence[int]) -> GroupedNetwork:
    """Equal-weight within-group averaging matrices, w_ij = 1/(m_r - 1).

    The classic group-interaction design where every peer in the group gets
    the same weight; M is taken equal to W (already row-normalized whenever
    m_r >= 2).
    """
    blocks = []
    for m in group_sizes:
        m = int(m)
        if m < 1:
            raise ValueError("group sizes must be >= 1")
        if m == 1:
            blocks.append(np.zeros((1, 1)))
        else:
            blocks.append((np.ones((m, m)) - np.eye(m)) / (m - 1))
    return GroupedNetwork.from_blocks(blocks, blocks, m_row_normalized=True)


def generate_mc_network(group_count: int, group_size: int, max_links: int,
                        seed: int | np.random.SeedSequence | np.random.Generator,
                        ) -> GroupedNetwork:
    """Draw a random grouped network of the wrap-around out-link design.

    For each row i of each group, an out-degree k is drawn uniformly from
    {0, ..., max_links} and the k entries following i (wrapping around inside
    the group, never across groups) are set to 1.  k = 0 leaves the row all
    zeros (an individual with no successors).  M is the row-normalized W.

    Draw order is fixed for reproducibility: groups in index order, each
    group's rows top to bottom, all drawn by one call whose stream equals
    one uniform-integer vector per group drawn in turn.  The generator is
    numpy's default (PCG64) when an integer or SeedSequence is given, so
    identical seeds give bit-identical networks.  All groups are then built
    at once as one (G, m, m) array.
    """
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    if not 0 <= max_links < group_size:
        raise ValueError(
            f"max_links must lie in [0, group_size), got {max_links} with group_size {group_size}"
        )
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    degrees = rng.integers(0, max_links + 1, size=(group_count, group_size, 1))
    # row i links to i+1 .. i+k (mod m): step t of the ring is on while t <= k
    steps = np.arange(1, max_links + 1)
    cols = (np.arange(group_size)[:, None] + steps) % group_size
    W = np.zeros((group_count, group_size, group_size))
    np.put_along_axis(W, np.broadcast_to(cols, (group_count, *cols.shape)),
                      steps <= degrees, axis=2)
    return GroupedNetwork.from_blocks(W, row_normalize(W), m_row_normalized=True)


# ---------------------------------------------------------------------------
# Panel data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PanelData:
    """Stacked outcomes and covariates aligned with a GroupedNetwork.

    ``x1`` holds own characteristics (enter directly), ``x2`` the
    characteristics whose network lags enter as contextual regressors.
    """

    y: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    group_sizes: tuple[int, ...]
    node_ids: tuple = field(default=(), compare=False)

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float).ravel()
        x1, x2 = _as_rows(self.x1, y.size), _as_rows(self.x2, y.size)
        n = sum(self.group_sizes)
        if y.size != n or x1.shape[0] != n or x2.shape[0] != n:
            raise ValueError("y, x1, x2 must all have one row per individual")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)
        object.__setattr__(self, "group_sizes", tuple(int(m) for m in self.group_sizes))

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def k1(self) -> int:
        return self.x1.shape[1]

    @property
    def k2(self) -> int:
        return self.x2.shape[1]

    def regressors(self, network: GroupedNetwork) -> np.ndarray:
        """Exogenous regressor block [X1, W X2] (own plus contextual)."""
        return np.column_stack([self.x1, network.lag_W(self.x2)])


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------
#
# Edge lists: columns (group_id, src, dst, weight).  Node files: columns
# (group_id, node_id, x1..., x2..., y).  Node ordering is always sorted by
# (group_id, node_id) so repeated loads give identical stacking.  A file is
# read once and converted a column at a time; line numbers are found only
# for an error message.

def _as_id(cell: str):
    cell = cell.strip()
    try:
        return int(cell)
    except ValueError:
        return cell


class _CsvTable:
    """A CSV file's header (``names`` lower-cased) and nonblank rows, as columns.

    Refused: a short row, a missing column of ``needs``, a file without
    data rows, which would give no group or nodes the other file lacks, and
    a file the csv module cannot parse (a cell over its field limit), named
    with the line it stopped on.
    """

    def __init__(self, path: str | Path, kind: str, needs: tuple[str, ...]):
        self.path = path
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                records = list(reader)
            except csv.Error as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
        if not records:
            raise ValueError(f"{path}: empty CSV")
        self.header = [h.strip() for h in records[0]]
        self.names, width = [h.lower() for h in self.header], len(self.header)
        rows, self.records = records[1:], range(1, len(records))
        self.columns = list(zip(*rows))
        # only a row that is short or starts with a blank cell can be blank
        if min(map(len, rows), default=0) < max(width, 1) or not all(
                map(str.strip, self.columns[0])):
            self.records = [k for k in self.records if any(map(str.strip, records[k]))]
            rows = [records[k] for k in self.records]
            for i, row in enumerate(rows):
                if len(row) < width:
                    raise ValueError(f"{path}, line {self.line(i)}: expected "
                                     f"{width} columns, got {len(row)}")
            self.columns = list(zip(*rows))
        if not rows:
            raise ValueError(f"{path}: no data rows below the header")
        if not set(needs) <= set(self.names):
            raise ValueError(f"{path}: {kind} CSV needs {', '.join(needs)} columns")

    def line(self, i: int) -> int:
        """The 1-based line on which data row i ends."""
        with open(self.path, newline="") as fh:
            reader = csv.reader(fh)
            next(itertools.islice(reader, self.records[i], None))
            return reader.line_num

    def where(self, i: int, j: int) -> str:
        return f"{self.path}, line {self.line(i)}, column {j + 1} ({self.header[j]})"

    def floats(self, cols: Sequence[int], weights: bool = False) -> np.ndarray:
        """Columns ``cols`` as a C-order float array, one row per data row.

        The first cell (in row order) that is not a finite number, or for
        ``weights`` is negative, is named.
        """
        out = np.empty((len(self.records), len(cols)))
        try:
            for c, j in enumerate(cols):
                out[:, c] = list(map(float, self.columns[j]))
            if np.isfinite(out).all() and not (weights and (out < 0).any()):
                return out
        except ValueError:
            pass
        for i, j in itertools.product(range(len(self.records)), cols):
            cell = self.columns[j][i]
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(f"{self.where(i, j)}: not a number: {cell!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{self.where(i, j)}: non-finite value {cell!r}")
            if weights and value < 0:
                raise ValueError(f"{self.where(i, j)}: negative weight {value:g}")

    def ids(self, cols: Sequence[int], one_kind: bool) -> tuple[np.ndarray, np.ndarray]:
        """Codes of the ids in ``cols``, one row per data row, and the sorted ids they index.

        Integers sort numerically, before text, which sorts lexicographically.  With
        ``one_kind`` the first id (in row order) of another kind than the first is refused.
        """
        cells = tuple(itertools.chain(*(self.columns[j] for j in cols)))
        parsed = {s: _as_id(s) for s in dict.fromkeys(cells)}
        ids = sorted(set(parsed.values()), key=lambda v: (isinstance(v, str), v))
        rank = {v: r for r, v in enumerate(ids)}
        code = {s: rank[v] for s, v in parsed.items()}
        codes = np.fromiter(map(code.__getitem__, cells), int, len(cells)).reshape(len(cols), -1).T
        text = np.array([isinstance(v, str) for v in ids])[codes]
        if one_kind and (text != text[0, 0]).any():
            i, c = divmod(int(np.argmax(text != text[0, 0])), len(cols))
            kinds = ("text", "integer") if text[i, c] else ("integer", "text")
            raise ValueError(f"{self.where(i, cols[c])}: {kinds[0]} id "
                             f"{ids[codes[i, c]]!r} among {kinds[1]} ids")
        return codes, np.array(ids, dtype=object)

    def refuse_repeats(self, keys: np.ndarray, what: str) -> None:
        """Refuse a repeated key, naming the first repeat's line and its first one's."""
        _, first, which = np.unique(keys, return_index=True, return_inverse=True)
        later = np.flatnonzero(first[which] != np.arange(keys.size))
        if later.size:
            raise ValueError(f"{self.path}, lines {self.line(first[which[later[0]]])} and "
                             f"{self.line(later[0])}: repeated {what}")


def load_node_csv(path: str | Path) -> tuple[list[tuple], PanelData]:
    """Read a node file and return (ordered node keys, PanelData).

    Column names starting with ``x1`` form the own-characteristics block,
    those starting with ``x2`` the contextual block, and ``y`` the outcome.
    """
    table = _CsvTable(path, "node", ("group_id", "node_id", "y"))
    x1 = [j for j, h in enumerate(table.names) if h.startswith("x1")]
    x2 = [j for j, h in enumerate(table.names) if h.startswith("x2")]
    if not x1 or not x2:
        raise ValueError(f"{path}: node CSV needs at least one x1* and one x2* column")
    gi, ni, yi = map(table.names.index, ("group_id", "node_id", "y"))
    values = table.floats([yi] + x1 + x2)
    (g, gids), (v, nids) = table.ids([gi], True), table.ids([ni], True)
    keys = (g * len(nids) + v)[:, 0]
    table.refuse_repeats(keys, "(group_id, node_id)")
    order = np.argsort(keys)
    node_keys = list(zip(gids[g[order, 0]].tolist(), nids[v[order, 0]].tolist()))
    y, x1, x2 = np.split(values[order], [1, 1 + len(x1)], axis=1)
    sizes = tuple(np.unique(g, return_counts=True)[1].tolist())
    return node_keys, PanelData(y=y, x1=x1, x2=x2, group_sizes=sizes,
                                node_ids=tuple(node_keys))


def _group_layout(keys: Sequence[tuple]) -> tuple[tuple[int, ...], dict]:
    """Group sizes of (group_id, node_id) keys listed group by group; key -> row."""
    firsts = [k for k in range(len(keys)) if not k or keys[k][0] != keys[k - 1][0]]
    if len({keys[k][0] for k in firsts}) != len(firsts):
        raise ValueError("node keys must list each group's nodes together")
    return tuple(np.diff(firsts + [len(keys)]).tolist()), {key: k for k, key in enumerate(keys)}


def load_edge_csv(path: str | Path,
                  node_keys: Sequence[tuple] | None = None,
                  ) -> GroupedNetwork:
    """Read an edge list into a GroupedNetwork (M = row-normalized W).

    When ``node_keys`` is given (from a node file) it fixes the node set and
    ordering, so isolated nodes survive; otherwise the nodes are those that
    appear in the edge list, ordered by (group_id, node_id).  A repeated
    (group_id, src, dst) is refused; self-links are dropped with a warning.
    """
    return _edge_network(path, node_keys)[0]


def _edge_network(path, node_keys) -> tuple[GroupedNetwork, Sequence[tuple]]:
    """``load_edge_csv``'s network and its node keys, one per row."""
    table = _CsvTable(path, "edge", ("group_id", "src", "dst"))
    gi, si, di = map(table.names.index, ("group_id", "src", "dst"))
    w = (table.floats([table.names.index("weight")], weights=True)[:, 0]
         if "weight" in table.names else np.ones(len(table.records)))
    # each endpoint's (group, node) code; one key lookup per distinct endpoint
    one_kind = node_keys is None          # the ids are sorted into the node order
    (g, gids), (v, nids) = table.ids([gi], one_kind), table.ids([si, di], one_kind)
    distinct, which = np.unique(g * len(nids) + v, return_inverse=True)
    which = which.reshape(v.shape)
    found = list(zip(gids[distinct // len(nids)].tolist(), nids[distinct % len(nids)].tolist()))
    keys = found if one_kind else node_keys
    sizes, index = _group_layout(keys)
    pos = np.array([index.get(key, -1) for key in found])[which]
    if (pos < 0).any():
        i, c = divmod(int(np.argmax(pos.ravel() < 0)), 2)
        group, node = found[which[i, c]]
        raise ValueError(f"{table.where(i, (si, di)[c])}: unknown node {node!r} "
                         f"in group {group!r}")
    table.refuse_repeats(pos[:, 0] * sum(sizes) + pos[:, 1], "edge (group_id, src, dst)")
    for i in np.flatnonzero(pos[:, 0] == pos[:, 1]):
        warnings.warn(f"{path}: dropping self-link on node {found[which[i, 0]]}")

    # each link's group and places within it, written into its size's stack
    link = pos[:, 0] != pos[:, 1]
    pos, w = pos[link], w[link]
    group = np.repeat(np.arange(len(sizes)), sizes)[pos[:, 0]]
    i, j = (pos - (np.cumsum(sizes) - sizes)[group][:, None]).T
    stacks = []
    for groups in _size_groups(sizes):
        e = np.isin(group, groups)
        stacks.append(np.zeros((groups.size,) + (sizes[groups[0]],) * 2))
        stacks[-1][np.searchsorted(groups, group[e]), i[e], j[e]] = w[e]
    return GroupedNetwork.from_blocks(
        BlockStacks(sizes, stacks), BlockStacks(sizes, [row_normalize(S) for S in stacks]),
        m_row_normalized=True), keys


def load_network(edges_path: str | Path,
                 nodes_path: str | Path | None = None,
                 m_edges_path: str | Path | None = None,
                 ) -> tuple[GroupedNetwork, PanelData | None]:
    """Load a network plus optional node data, with optional separate M edges on its nodes.

    M defaults to the row-normalized W.  An M edge file gives M's weights as
    they are, not row-normalized, and the network's ``m_row_normalized`` is
    then False.
    """
    node_keys, data = load_node_csv(nodes_path) if nodes_path is not None else (None, None)
    net, keys = _edge_network(edges_path, node_keys)
    if m_edges_path is not None:
        m_net, m_keys = _edge_network(m_edges_path, node_keys)
        if m_keys != keys:
            raise ValueError(f"{m_edges_path}: M edge list does not match "
                             "the W edge list's node set")
        net = GroupedNetwork.from_blocks(net.stacks_W(), m_net.stacks_W())
    return net, data
