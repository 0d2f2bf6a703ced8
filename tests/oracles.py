"""Dense forms and literal refits that the fast code is tested against.

Each one materializes an n x n matrix or the n x G centrality block,
refits once per observation, or parses a CSV file cell by cell, so they
serve small fixtures only.  The package holds the network only as
per-group blocks; the dense W, M, S(lambda), R(rho) and J are built here.
"""

import csv
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from sarnet.graphs import GroupedNetwork, PanelData, build_block_diagonal, row_normalize
from sarnet.instruments import InstrumentSet
from sarnet.regularization import EIGENVALUE_CUTOFF, Scheme, Spectrum, q_weights
from sarnet.selection import SelectionContext


def group_slices(net: GroupedNetwork) -> list[slice]:
    """Each group's rows, in network order."""
    ends = np.cumsum(net.group_sizes).tolist()
    return [slice(end - m, end) for m, end in zip(net.group_sizes, ends)]


def dense_W(net: GroupedNetwork) -> np.ndarray:
    """The n x n block-diagonal W."""
    return build_block_diagonal(net.blocks_W())


def dense_M(net: GroupedNetwork) -> np.ndarray:
    """The n x n block-diagonal M."""
    return build_block_diagonal(net.stacks_M().blocks())


def mc_network_by_group(group_count: int, group_size: int, max_links: int,
                        rng: np.random.Generator) -> GroupedNetwork:
    """The wrap-around design of ``generate_mc_network``, drawn and built group
    by group: one ``integers`` vector of out-degrees per group, in order, and
    row i of a group linked to i+1 .. i+k (mod m) by a loop over its rows."""
    blocks = []
    for _ in range(group_count):
        B = np.zeros((group_size, group_size))
        for i, k in enumerate(rng.integers(0, max_links + 1, size=group_size)):
            B[i, (i + 1 + np.arange(k)) % group_size] = 1.0
        blocks.append(B)
    return GroupedNetwork.from_blocks(blocks, [row_normalize(B) for B in blocks],
                                      m_row_normalized=True)


def dense_distinct_eigenvalues(W: np.ndarray, tol: float = 1e-8,
                               ) -> tuple[int, list[tuple[float, int]]]:
    """Distinct eigenvalues of one dense symmetric W: ``eigvalsh`` of the whole
    matrix, then the package's gap rule (a new cluster opens where the gap to
    the previous eigenvalue, in descending order, exceeds tol * max |nu|).
    """
    vals = np.sort(np.linalg.eigvalsh(W))[::-1]
    scale = max(abs(v) for v in vals)
    clusters = [[vals[0]]]
    for v in vals[1:]:
        if clusters[-1][-1] - v > tol * scale:
            clusters.append([v])
        else:
            clusters[-1].append(v)
    summary = [(float(np.mean(c)), len(c)) for c in clusters]
    return len(summary), summary


def dense_stack(net: GroupedNetwork, X: np.ndarray, order: int,
                centrality: bool = False, m_copy: bool = False) -> np.ndarray:
    """[W X, ..., W^order X, X(, M copy)(, W iota, ..., W^order iota(, M copy))]
    from dense matrix powers of W; iota is the n x G matrix of group
    indicators, so each power's centrality columns are one n x G block."""
    powers = [np.linalg.matrix_power(dense_W(net), j) for j in range(1, order + 1)]
    iota = np.repeat(np.eye(net.group_count), net.group_sizes, axis=0)
    parts = [np.column_stack([P @ X for P in powers] + [X])]
    if centrality:
        parts.append(np.column_stack([P @ iota for P in powers]))
    if m_copy:
        parts = [np.column_stack([part, dense_M(net) @ part]) for part in parts]
    return np.column_stack(parts)


def row_sum_norm(A: np.ndarray) -> float:
    """Maximum absolute row sum (the operator infinity-norm), over a whole stack."""
    return float(np.abs(A).sum(axis=-1).max())


def s_matrix(lam: float, W: np.ndarray) -> np.ndarray:
    """S(lambda) = I - lambda W."""
    W = np.asarray(W, dtype=float)
    return np.eye(W.shape[0]) - lam * W


def r_matrix(rho: float, M: np.ndarray) -> np.ndarray:
    """R(rho) = I - rho M."""
    M = np.asarray(M, dtype=float)
    return np.eye(M.shape[0]) - rho * M


def dense_J(net: GroupedNetwork) -> np.ndarray:
    """The n x n fixed-effect annihilator from the textbook formula, group by group.

    J_r = I - A A^+ with A = (iota, M_r iota): the projector off the column
    space of A, the pseudo-inverse cut at 1e-10 of the largest singular value.
    """
    blocks = []
    for M_r in net.stacks_M().blocks():
        A = np.column_stack([np.ones(len(M_r)), M_r.sum(axis=1)])
        blocks.append(np.eye(len(M_r)) - A @ np.linalg.pinv(A, rcond=1e-10))
    return build_block_diagonal(blocks)


def arrowhead_matrix(head, left, right, diagonal) -> np.ndarray:
    """F'AF written out whole from the blocks of ``InstrumentSet.arrowhead``."""
    k = head.shape[0]
    out = np.zeros((k + diagonal.size, k + diagonal.size))
    out[:k, :k] = head
    out[:k, k:] = right.T
    out[k:, :k] = left
    np.fill_diagonal(out[k:, k:], diagonal)
    return out


def spectrum_dense(inst: InstrumentSet) -> Spectrum:
    """The spectrum of ``inst`` from ``eigh`` of its written-out F F'/n.

    The eigenvalues at or below ``EIGENVALUE_CUTOFF`` times the largest are
    cut, as ``Spectrum.from_instruments`` cuts them; psi is held whole.
    """
    F = inst.dense()
    vals, vecs = np.linalg.eigh(F @ F.T / inst.n)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    keep = vals > EIGENVALUE_CUTOFF * vals[0]
    return Spectrum(vals[keep], vecs[:, keep], None, inst.n)


def psi(spectrum: Spectrum) -> np.ndarray:
    """The n x rank eigenvectors psi of F F'/n, formed whole."""
    return spectrum.expand(np.eye(spectrum.rank))


def projector_matrix(spectrum: Spectrum, scheme: Scheme) -> np.ndarray:
    """Dense P^alpha = sum_j q_j psi_j psi_j'."""
    q, vectors = q_weights(scheme, spectrum), psi(spectrum)
    return (vectors * q) @ vectors.T


def projector_diagonal(spectrum: Spectrum, scheme: Scheme) -> np.ndarray:
    """Diagonal entries P^alpha_ii = sum_j q_j psi_ji^2 (smoother leverages)."""
    q = q_weights(scheme, spectrum)
    return (psi(spectrum) ** 2) @ q


def textbook_iv_oracle(Z: np.ndarray, y: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Classical 2SLS as the explicit pseudo-inverse chain [Z'P Z]^+ Z'P y.

    P = Q (Q'Q)^+ Q' is formed whole; the library fits through the
    instrument spectrum instead.
    """
    P = Q @ np.linalg.pinv(Q.T @ Q) @ Q.T
    return np.linalg.pinv(Z.T @ P @ Z) @ (Z.T @ P @ y)


def q2_roster_dense(network, q1: InstrumentSet) -> InstrumentSet:
    """q1 extended by the n x G centrality block J W iota, formed whole."""
    V = network.J.apply(network.lag_W(network.group_ones()))
    labels = list(q1.labels) + [f"J.W.iota[{r}]" for r in range(V.shape[1])]
    return InstrumentSet(np.column_stack([q1.Q, V]), labels).nonzero()


def d_matrix(network, lam: float, rho: float) -> np.ndarray:
    """Dense D = R(rho) W S(lambda)^{-1} R(rho)^{-1} from explicit inverses."""
    R, W = r_matrix(rho, dense_M(network)), dense_W(network)
    return R @ W @ np.linalg.inv(s_matrix(lam, W)) @ np.linalg.inv(R)


def rho_objective_polynomial(moments, bounds=(-0.99, 0.99)) -> float:
    """The method-of-moments rho through ``numpy.polynomial`` objects and exact polishing.

    Row k of ``moments`` holds g_k's coefficients in ascending powers of
    rho.  The quartic sum_k g_k^2 is built as polynomial products and sums,
    its derivative trimmed of top coefficients at most 1e-12 times its
    largest, and the real parts of its roots are clipped to ``bounds``.
    Each one inside takes two Newton steps on f'/2 = sum_k g_k g_k' with
    f''/2 = sum_k (g_k'^2 + 2 c_k2 g_k), in ``fractions.Fraction`` on the
    moments' exact values, stepping only where f'' > 0 and stopping at a
    bound.  The polished candidates and both bounds are compared by their
    exact objective values; the first smallest wins.
    """
    from fractions import Fraction
    from numpy.polynomial import Polynomial

    moments = np.asarray(moments, dtype=float)
    polys = [Polynomial(g) for g in moments]
    slopes = sum(g * g for g in polys).deriv()
    slopes = slopes.trim(1e-12 * np.abs(slopes.coef).max())
    exact = [tuple(map(Fraction, g)) for g in moments]
    lo, hi = map(Fraction, bounds)

    def parts(r):
        """(g_k(r), g_k'(r), c_k2) for each moment k."""
        return [(c0 + (c1 + c2 * r) * r, c1 + 2 * c2 * r, c2) for c0, c1, c2 in exact]

    candidates = []
    for r in np.clip(slopes.roots().real, *bounds):
        r = Fraction(r)
        for _ in range(2):
            terms = parts(r)
            curvature = sum(dg * dg + 2 * c2 * g for g, dg, c2 in terms)
            if not (lo < r < hi and curvature > 0):
                break
            r = min(max(r - sum(g * dg for g, dg, _ in terms) / curvature, lo), hi)
        candidates.append(r)
    candidates += [lo, hi]
    values = [sum(g * g for g, _, _ in parts(r)) for r in candidates]
    return float(candidates[values.index(min(values))])


def distinct_columns_pairwise(columns) -> list[int]:
    """Indices of the columns that repeat no earlier kept column, compared one
    pair at a time: a repeat differs by at most 1e-12 times the larger norm."""
    kept: list[int] = []
    for i, col in enumerate(columns):
        scale = float(np.linalg.norm(col))
        if not any(np.linalg.norm(col - columns[j])
                   <= 1e-12 * max(scale, np.linalg.norm(columns[j])) for j in kept):
            kept.append(i)
    return kept


def loo_refit(ctx: SelectionContext, scheme: Scheme) -> float:
    """Literal delete-one cross-validation.

    The full-sample damping is a penalized least-squares fit on the spectral
    features U = Psi diag(sqrt(n nu)) with per-component penalty
    nu (1 - q)/q (zero-weight components dropped).  For each i the fit is
    re-solved without row i, holding that penalty fixed, and the held-out
    point is predicted.  Quadratic per observation: the slow reference
    that the linear-smoother identity of ``selection._score_grid`` is tested
    against.
    """
    q = q_weights(scheme, ctx.spectrum)
    keep = q > 0.0
    if not np.any(keep):
        resid = ctx.w
        return float(np.mean(resid ** 2))
    nu = ctx.spectrum.eigenvalues[keep]
    qk = q[keep]
    n = ctx.n
    U = psi(ctx.spectrum)[:, keep] * np.sqrt(n * nu)
    penalty = np.diag(nu * (1.0 - qk) / qk)
    B = U.T @ U / n + penalty
    Uw = U.T @ ctx.w / n
    total = 0.0
    for i in range(n):
        Bi = B - np.outer(U[i], U[i]) / n
        ci = np.linalg.solve(Bi, Uw - U[i] * ctx.w[i] / n)
        pred = float(U[i] @ ci)
        total += (ctx.w[i] - pred) ** 2
    return total / n


# ---------------------------------------------------------------------------
# CSV loading one cell at a time: the column-wise loaders of ``sarnet.graphs``
# must give the same network, data and warnings on every valid input.
# ---------------------------------------------------------------------------

def _read_csv_rows(path: str | Path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Header and the nonblank rows, each with its 1-based line number.

    A file without data rows is refused: it would give a network with no
    group, or one whose nodes the other file does not know.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        rows = []
        for row in reader:
            if not any(cell.strip() for cell in row):
                continue
            if len(row) < len(header):
                raise ValueError(f"{path}, line {reader.line_num}: expected "
                                 f"{len(header)} columns, got {len(row)}")
            rows.append((reader.line_num, row))
    if not rows:
        raise ValueError(f"{path}: no data rows below the header")
    return header, rows


def _number(path: str | Path, line: int, header: list[str], row: list[str],
            j: int) -> float:
    """Cell j of a CSV row as a finite float; errors name file, line and column."""
    where = f"{path}, line {line}, column {j + 1} ({header[j]})"
    try:
        value = float(row[j])
    except ValueError:
        raise ValueError(f"{where}: not a number: {row[j]!r}") from None
    if not np.isfinite(value):
        raise ValueError(f"{where}: non-finite value {row[j]!r}")
    return value


def load_node_csv_by_cell(path: str | Path) -> tuple[list[tuple], PanelData]:
    """Read a node file and return (ordered node keys, PanelData).

    Column names starting with ``x1`` form the own-characteristics block,
    those starting with ``x2`` the contextual block, and ``y`` the outcome.
    """
    header, rows = _read_csv_rows(path)
    lower = [h.lower() for h in header]
    try:
        gi = lower.index("group_id")
        ni = lower.index("node_id")
        yi = lower.index("y")
    except ValueError as exc:
        raise ValueError(f"{path}: node CSV needs group_id, node_id and y columns") from exc
    x1_idx = [j for j, h in enumerate(lower) if h.startswith("x1")]
    x2_idx = [j for j, h in enumerate(lower) if h.startswith("x2")]
    if not x1_idx or not x2_idx:
        raise ValueError(f"{path}: node CSV needs at least one x1* and one x2* column")

    numeric = [yi] + x1_idx + x2_idx

    def parse(line: int, row: list[str]) -> tuple:
        values = [_number(path, line, header, row, j) for j in numeric]
        return (_as_id(row[gi]), _as_id(row[ni])), values

    parsed = sorted((parse(line, row) for line, row in rows), key=lambda p: p[0])
    keys = [k for k, _ in parsed]
    if len(set(keys)) != len(keys):
        raise ValueError(f"{path}: duplicate (group_id, node_id) pairs")
    sizes, _ = _group_layout(keys)
    values = np.array([v for _, v in parsed]).reshape(len(parsed), len(numeric))
    y, x1, x2 = np.split(values, [1, 1 + len(x1_idx)], axis=1)
    data = PanelData(y=y, x1=x1, x2=x2, group_sizes=tuple(sizes))
    return keys, data


def _group_layout(keys: Sequence[tuple]) -> tuple[list[int], dict]:
    """Group sizes of grouped (group_id, node_id) keys; key -> (group, position)."""
    sizes: list[int] = []
    groups: list = []
    index = {}
    for key in keys:
        if not groups or groups[-1] != key[0]:
            groups.append(key[0])
            sizes.append(0)
        index[key] = (len(sizes) - 1, sizes[-1])
        sizes[-1] += 1
    if len(set(groups)) != len(groups):
        raise ValueError("node keys must list each group's nodes together")
    return sizes, index


def _as_id(cell: str):
    cell = cell.strip()
    try:
        return int(cell)
    except ValueError:
        return cell


def load_edge_csv_by_cell(path: str | Path,
                  node_keys: Sequence[tuple] | None = None,
                  ) -> GroupedNetwork:
    """Read an edge list into a GroupedNetwork (M = row-normalized W).

    When ``node_keys`` is given (from a node file) it fixes the node set and
    ordering, so isolated nodes survive; otherwise the nodes are those that
    appear in the edge list, ordered by (group_id, node_id).
    """
    header, rows = _read_csv_rows(path)
    lower = [h.lower() for h in header]
    try:
        gi = lower.index("group_id")
        si = lower.index("src")
        di = lower.index("dst")
    except ValueError as exc:
        raise ValueError(f"{path}: edge CSV needs group_id, src, dst columns") from exc
    wi = lower.index("weight") if "weight" in lower else None

    edges = []
    for line, r in rows:
        g = _as_id(r[gi])
        s, d = _as_id(r[si]), _as_id(r[di])
        w = _number(path, line, header, r, wi) if wi is not None else 1.0
        if w < 0:
            raise ValueError(f"{path}, line {line}, column {wi + 1} ({header[wi]}): "
                             f"negative weight {w:g}")
        edges.append((g, s, d, w))

    if node_keys is None:
        seen = {(g, s) for g, s, _, _ in edges} | {(g, d) for g, _, d, _ in edges}
        node_keys = sorted(seen)
    sizes, index = _group_layout(node_keys)
    blocks = [np.zeros((m, m)) for m in sizes]
    for g, s, d, w in edges:
        try:
            (r, i), (_, j) = index[(g, s)], index[(g, d)]
        except KeyError as exc:
            raise ValueError(f"{path}: edge refers to unknown node {exc} in group {g}") from None
        if i == j:
            warnings.warn(f"{path}: dropping self-link on node {(g, s)}")
            continue
        blocks[r][i, j] = w
    return GroupedNetwork.from_blocks(blocks, [row_normalize(B) for B in blocks],
                                      m_row_normalized=True)


def edge_nodes_by_cell(path: str | Path) -> set[tuple]:
    """The (group_id, node_id) keys at either end of an edge list's links."""
    header, rows = _read_csv_rows(path)
    gi, si, di = map([h.lower() for h in header].index, ("group_id", "src", "dst"))
    return {(_as_id(r[gi]), _as_id(r[j])) for _, r in rows for j in (si, di)}


def load_network_by_cell(edges_path: str | Path,
                 nodes_path: str | Path | None = None,
                 m_edges_path: str | Path | None = None,
                 ) -> tuple[GroupedNetwork, PanelData | None]:
    """Load a network plus optional node data, with optional separate M edges."""
    data = None
    node_keys = None
    if nodes_path is not None:
        node_keys, data = load_node_csv_by_cell(nodes_path)
    net = load_edge_csv_by_cell(edges_path, node_keys)
    if m_edges_path is not None:
        m_net = load_edge_csv_by_cell(m_edges_path, node_keys)
        # a node file fixes both node sets; without one, the two lists must
        # link the same nodes, not merely as many in each group
        if node_keys is None and edge_nodes_by_cell(m_edges_path) != edge_nodes_by_cell(edges_path):
            raise ValueError(f"{m_edges_path}: M edge list does not match "
                             "the W edge list's node set")
        net = GroupedNetwork.from_blocks(net.blocks_W(), m_net.blocks_W())
    return net, data
