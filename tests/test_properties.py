"""Property tests: block-wise code against dense oracles on odd inputs.

Networks have random unequal group sizes, singleton groups and all-zero rows
(isolated individuals), which the fixed simulation designs never produce.
"""

import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sarnet import estimation, montecarlo
from sarnet.estimation import (bias_corrected_2sls, classical_2sls,
                               first_stage, preliminary_delta, preliminary_rho,
                               regularized_2sls)
from sarnet.graphs import (BlockStacks, GroupedNetwork, PanelData, build_block_diagonal,
                           load_network, row_normalize)
from sarnet import identification
from sarnet.identification import (_rank_and_condition, build_report,
                                   distinct_eigenvalues, labelled_stack)
from sarnet.instruments import (InstrumentSet, _distinct_columns, normalize_columns,
                                q1_roster, q2_roster)
from sarnet.montecarlo import ESTIMATORS, McConfig
from sarnet.regularization import (DIAGONAL_ULPS, Scheme, Spectrum, apply_projector,
                                   q_weights)
from sarnet.selection import prepare_selection, select_from_context
from sarnet.transforms import ModelParams, apply_D, assemble_z, reduced_form, solve_blockwise
import oracles
from oracles import (arrowhead_matrix, d_matrix, dense_distinct_eigenvalues, dense_J, dense_M,
                     dense_stack, dense_W, group_slices,
                     load_network_by_cell, projector_matrix, q2_roster_dense, r_matrix,
                     row_sum_norm, s_matrix, textbook_iv_oracle)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def odd_blocks(draw, min_last=1, min_groups=2, max_groups=6):
    """W blocks of sizes 1..7 (the last one at least ``min_last``), zero rows."""
    sizes = draw(st.lists(st.integers(1, 7), min_size=min_groups - 1, max_size=max_groups - 1))
    sizes.append(draw(st.integers(min_last, 7)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    blocks = []
    for m in sizes:
        B = rng.random((m, m)) * (rng.random((m, m)) < 0.6)
        np.fill_diagonal(B, 0.0)
        B[rng.random(m) < 0.25] = 0.0          # isolated individuals
        blocks.append(B)
    return blocks


@st.composite
def odd_networks(draw, min_last=1, min_groups=2, max_groups=6):
    """The dense-constructed network of ``odd_blocks``, M the row-normalized W."""
    blocks = draw(odd_blocks(min_last, min_groups, max_groups))
    W = build_block_diagonal(blocks)
    return GroupedNetwork(tuple(len(B) for B in blocks), W, row_normalize(W),
                          m_row_normalized=True)


@PROPERTY_SETTINGS
@given(net=odd_networks(), order=st.integers(1, 4), k=st.integers(1, 3),
       seed=st.integers(0, 1000))
def test_labelled_stack_matches_dense_oracle(net, order, k, seed):
    # the centrality powers come as the vectors W^j 1, one column of V
    # each; written out per group they are the oracle's n x G blocks
    X = np.random.default_rng(seed).standard_normal((net.n, k))
    stack, V, labels = labelled_stack(net, X, order, centrality=True, m_copy=True)
    assert V.shape == (net.n, 2 * order)
    written = np.column_stack([stack, *(v[:, None] * net.group_ones() for v in V.T)])
    expect = dense_stack(net, X, order, centrality=True, m_copy=True)
    np.testing.assert_allclose(written, expect, rtol=1e-12, atol=1e-12)
    assert len(labels) == expect.shape[1] == len(set(labels))
    assert labels[0] == "W^1.X[0]" and labels[stack.shape[1] - 1] == f"M.X[{k - 1}]"
    assert labels[-1] == f"M.W^{order}.iota[{net.group_count - 1}]"


@st.composite
def repeated_undirected_networks(draw):
    """One or two symmetric blocks, each repeated 1-12 times.

    A block is a weighted complete graph of 2-6 nodes (two eigenvalues) or
    a random one of 1-4 nodes with isolated nodes.  Repeats add rows but no
    distinct eigenvalues, so the identification stack of order d - 1 comes
    out tall as well as wide, with and without the correlated columns.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    blocks = []
    for complete in draw(st.lists(st.booleans(), min_size=1, max_size=2)):
        if complete:
            m = draw(st.integers(2, 6))
            blocks.append(rng.uniform(0.5, 2.0) * (np.ones((m, m)) - np.eye(m)))
            continue
        m = draw(st.integers(1, 4))
        B = np.triu(rng.random((m, m)) * (rng.random((m, m)) < 0.6), 1)
        isolated = rng.random(m) < 0.25
        B[isolated], B[:, isolated] = 0.0, 0.0
        blocks.append(B + B.T)
    repeats = draw(st.lists(st.integers(1, 12), min_size=len(blocks), max_size=len(blocks)))
    sym = [B for B, r in zip(blocks, repeats) for _ in range(r)]
    W = build_block_diagonal(sym)
    return GroupedNetwork(tuple(len(B) for B in sym), W, row_normalize(W),
                          m_row_normalized=True)


@PROPERTY_SETTINGS
@given(net=repeated_undirected_networks(), k=st.integers(1, 3), seed=st.integers(0, 1000))
def test_stack_rank_check_matches_dense_svd_or_is_wide(net, k, seed):
    X = np.random.default_rng(seed).standard_normal((net.n, k))
    for rho_zero in (True, False):
        built, decomposed = [], []

        def recording(*args):
            built.append(args)
            return labelled_stack(*args)

        def decomposing(stack):
            decomposed.append(stack)
            return _rank_and_condition(stack)

        with mock.patch.object(identification, "labelled_stack", recording), \
                mock.patch.object(identification, "_rank_and_condition", decomposing):
            report = build_report(net, X, rho_zero)
        count = report.distinct_eigenvalue_count
        assert count == dense_distinct_eigenvalues(dense_W(net))[0]
        oracle = dense_stack(net, X, max(count - 1, 1), not rho_zero, not rho_zero)
        if oracle.shape[1] > net.n:
            # a wide stack is neither built nor decomposed
            assert built == decomposed == []
            assert (report.rank_flag, report.stack_condition_number) == (False, np.inf)
        else:
            # the per-group columns are written out for the SVD, as blocks
            stack, = decomposed
            assert len(built) == 1
            np.testing.assert_allclose(stack, oracle, rtol=1e-12, atol=1e-12)
            assert (report.rank_flag, report.stack_condition_number) == \
                _rank_and_condition(stack)[1:]


def dense_rho_objective(net, data, delta, rhos):
    """||g(rho)||^2 from explicit n x n matrices, independent of the library."""
    J = dense_J(net)
    e = data.y - assemble_z(data, net) @ delta
    trJ = np.trace(J)
    moments = []
    for A in (dense_W(net), dense_M(net), dense_M(net) @ dense_W(net)):
        JAJ = J @ A @ J
        moments.append(JAJ - np.trace(JAJ) / trJ * np.eye(net.n))
    values = []
    for rho in rhos:
        eps = J @ (e - rho * dense_M(net) @ e)
        values.append(sum((eps @ Mi @ eps) ** 2 for Mi in moments))
    return np.array(values)


@PROPERTY_SETTINGS
@given(net=odd_networks(min_last=4), seed=st.integers(0, 1000))
def test_exact_rho_no_worse_than_fine_grid(net, seed):
    rng = np.random.default_rng(seed)
    data = PanelData(y=rng.standard_normal(net.n), x1=rng.standard_normal(net.n),
                     x2=rng.standard_normal(net.n), group_sizes=net.group_sizes)
    delta = rng.normal(0.2, 0.1, size=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")        # a degenerate objective would warn
        rho = preliminary_rho(data, net, delta)
    assert -0.99 <= rho <= 0.99
    grid = dense_rho_objective(net, data, delta, np.linspace(-0.99, 0.99, 3961))
    exact = dense_rho_objective(net, data, delta, [rho])[0]
    assert exact <= grid.min() + 1e-9 * max(1.0, grid.max())


def test_exact_rho_when_the_quartic_is_only_quadratic():
    # chains 2 <- 1 and 5 <- 3, 6 <- 4: the rho^2 coefficients of the moments
    # are rounding noise, and the minimum sits inside the interval
    A, B = np.zeros((3, 3)), np.zeros((4, 4))
    A[2, 1] = B[2, 0] = B[3, 1] = 1.0
    W = build_block_diagonal([A, B])
    net = GroupedNetwork((3, 4), W, row_normalize(W), m_row_normalized=True)
    rng = np.random.default_rng(0)
    data = PanelData(y=rng.standard_normal(7), x1=rng.standard_normal(7),
                     x2=rng.standard_normal(7), group_sizes=net.group_sizes)
    delta = rng.normal(0.2, 0.1, size=3)
    rho = preliminary_rho(data, net, delta)
    grid = dense_rho_objective(net, data, delta, np.linspace(-0.99, 0.99, 3961))
    assert -0.99 < rho < 0.99
    assert dense_rho_objective(net, data, delta, [rho])[0] <= grid.min()


def generic_moments(seed):
    """The ``generic`` case of ``rho_moments`` drawn from ``np.random.default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 4, size=(3, 1))
    return "generic", rng.uniform(-1, 1, (3, 3)) * scale


@st.composite
def rho_moments(draw):
    """Three moments' coefficients, ascending powers of rho, by shape of objective.

    ``generic``: random coefficients on scales 1e-3..1e3.  ``no_square``: no
    moment has a genuine rho^2 term; each carries rounding noise or an exact
    zero there, so the quartic is a quadratic and its derivative a
    degenerate cubic.  ``below``/``above``: every root of every moment lies
    left/right of the interval, so the minimum sits at the lower/upper
    bound.  ``common_root``: all moments vanish at one rho inside the
    interval, a double root of the quartic and its minimum.
    """
    family = draw(st.sampled_from(["generic", "no_square", "below", "above", "common_root"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if family == "generic":
        return generic_moments(seed)
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 4, size=(3, 1))
    if family == "no_square":
        g = rng.uniform(-1, 1, (3, 3)) * scale
        g[:, 2] = 1e-17 * scale[:, 0] * rng.uniform(-1, 1, 3) * (rng.random(3) < 0.7)
        return family, g
    # g_k = s_k (rho - r_k)(rho - t_k): coefficients (s r t, -s (r + t), s)
    if family == "common_root":
        r = np.full(3, rng.uniform(-0.9, 0.9))
        t = rng.uniform(-3, 3, 3)
    else:
        sign = -1.0 if family == "below" else 1.0
        r, t = sign * rng.uniform(1.5, 4, (2, 3))
    s = rng.choice([-1.0, 1.0], 3) * scale[:, 0]
    return family, np.column_stack([s * r * t, -s * (r + t), s])


@settings(max_examples=200, deadline=None)
@given(case=rho_moments())
@example(case=generic_moments(1526))    # an unpolished root is 1.1e-8 off here
@example(case=generic_moments(4228))    # and 1.8e-10 off here
def test_rho_argmin_matches_polynomial_oracle(case):
    family, moments = case
    want = oracles.rho_objective_polynomial(moments)
    # the minimizer must be unique: no grid point away from it comes within
    # rounding of the smallest objective value
    grid = np.linspace(-0.99, 0.99, 397)
    values = ((moments @ np.vstack([np.ones_like(grid), grid, grid ** 2])) ** 2).sum(axis=0)
    at_want = ((moments @ [1.0, want, want ** 2]) ** 2).sum()
    far = np.abs(grid - want) > 0.02
    assume(not np.any(values[far] <= at_want + 1e-9 * values.max()))
    got = estimation._rho_argmin(moments)
    assert abs(got - want) <= 1e-12, family
    if family == "below":
        assert got == -0.99
    elif family == "above":
        assert got == 0.99


@PROPERTY_SETTINGS
@given(net=odd_networks(min_last=4), seed=st.integers(0, 1000))
def test_preliminary_rho_matches_polynomial_oracle(net, seed):
    rng = np.random.default_rng(seed)
    data = PanelData(y=rng.standard_normal(net.n), x1=rng.standard_normal(net.n),
                     x2=rng.standard_normal(net.n), group_sizes=net.group_sizes)
    delta = rng.normal(0.2, 0.1, size=3)
    seen = []
    argmin = estimation._rho_argmin
    with mock.patch.object(estimation, "_rho_argmin",
                           side_effect=lambda g: seen.append(g.copy()) or argmin(g)):
        rho = preliminary_rho(data, net, delta)
    moments, = seen
    np.testing.assert_allclose(rho, oracles.rho_objective_polynomial(moments),
                               rtol=1e-12, atol=0)


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 60), k=st.integers(1, 12))
def test_distinct_columns_match_pairwise_oracle(seed, n, k):
    # exact and scaled copies, zero columns, and copies moved by 0.5e-12 or
    # 2e-12 of their norm, either side of the rule's 1e-12
    rng = np.random.default_rng(seed)
    cols = [rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)]
    for _ in range(k - 1):
        base = cols[rng.integers(len(cols))]
        noise = rng.standard_normal(n)
        noise *= np.linalg.norm(base) / max(np.linalg.norm(noise), 1e-300)
        cols.append([rng.standard_normal(n), base.copy(), 2.0 * base, np.zeros(n),
                     base + rng.choice([0.5e-12, 2e-12, 1e-9]) * noise][rng.integers(5)])
    columns = np.column_stack(cols)
    assert _distinct_columns(columns.T) == oracles.distinct_columns_pairwise(list(columns.T))


@PROPERTY_SETTINGS
@given(blocks=odd_blocks(), seed=st.integers(0, 1000))
def test_block_and_dense_constructors_agree(blocks, seed):
    M_blocks = [row_normalize(B) for B in blocks]
    dense = GroupedNetwork(tuple(len(B) for B in blocks), build_block_diagonal(blocks),
                           build_block_diagonal(M_blocks), m_row_normalized=True)
    block = GroupedNetwork.from_blocks(blocks, M_blocks, m_row_normalized=True)
    V = np.random.default_rng(seed).standard_normal((dense.n, 3))
    assert block.group_sizes == dense.group_sizes
    for got, want in ((dense_W(block), dense_W(dense)), (dense_M(block), dense_M(dense)),
                      (block.lag_W(V), dense.lag_W(V)), (block.lag_M(V), dense.lag_M(V)),
                      (block.J.apply(np.eye(block.n)), dense.J.apply(np.eye(dense.n)))):
        np.testing.assert_array_equal(got, want)


@PROPERTY_SETTINGS
@given(net=odd_networks(), seed=st.integers(0, 1000))
def test_lags_match_dense_products(net, seed):
    V = np.random.default_rng(seed).standard_normal((net.n, 3))
    np.testing.assert_allclose(net.lag_W(V), dense_W(net) @ V, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(net.lag_M(V), dense_M(net) @ V, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(net.lag_W(V[:, 0]), dense_W(net) @ V[:, 0], rtol=1e-12, atol=1e-12)


@PROPERTY_SETTINGS
@given(net=odd_networks())
def test_j_is_a_symmetric_projector_annihilating_iota_and_m_iota(net):
    J = net.J.apply(np.eye(net.n))
    assert np.abs(J - J.T).max() <= 1e-12
    assert np.abs(J @ J - J).max() <= 1e-10
    iota = net.group_ones()
    assert np.abs(net.J.apply(iota)).max() <= 1e-10
    assert np.abs(net.J.apply(net.lag_M(iota))).max() <= 1e-10
    assert abs(net.J.trace - np.trace(J)) <= 1e-10


@PROPERTY_SETTINGS
@given(net=odd_networks())
def test_j_trace_product_matches_dense_j(net):
    # odd_networks has singletons, zero rows of M and bases of width 1 and 2
    W, M = net.stacks_W(), net.stacks_M()
    MW = BlockStacks(net.group_sizes, [M_s @ W_s for M_s, W_s in zip(M.stacks(), W.stacks())])
    J = dense_J(net)
    for A in (W, M, MW):
        want = np.trace(J @ build_block_diagonal(A.blocks()))
        assert net.J.trace_product(A) == pytest.approx(want, rel=1e-12)


@PROPERTY_SETTINGS
@given(net=odd_networks(), seed=st.integers(0, 1000))
def test_reduced_form_satisfies_structural_equation(net, seed):
    rng = np.random.default_rng(seed)
    lam = 0.9 * rng.uniform(-1, 1) / max(1.0, row_sum_norm(dense_W(net)))
    params = ModelParams.checked(net, lam=lam, beta1=[0.3], beta2=[-0.2],
                                 rho=0.9 * rng.uniform(-1, 1),
                                 gamma=rng.standard_normal(net.group_count), sigma2=1.0)
    X = rng.standard_normal((net.n, 2))
    eps = rng.standard_normal(net.n)
    y = reduced_form(params, X, None, eps, net)
    inner = (s_matrix(params.lam, dense_W(net)) @ y - X @ params.beta
             - net.expand_group_values(params.gamma))
    np.testing.assert_allclose(r_matrix(params.rho, dense_M(net)) @ inner, eps,
                               rtol=1e-9, atol=1e-9)


@PROPERTY_SETTINGS
@given(blocks=odd_blocks())
def test_spectrum_union_matches_dense_spectrum(blocks):
    # a repeated block makes every one of its eigenvalues a multiple one
    sym = [B + B.T for B in blocks + blocks[:1]]
    W = build_block_diagonal(sym)
    net = GroupedNetwork(tuple(len(B) for B in sym), W, row_normalize(W))
    count, clusters = distinct_eigenvalues(net)
    dense_count, dense_clusters = dense_distinct_eigenvalues(dense_W(net))
    assert count == dense_count
    assert [m for _, m in clusters] == [m for _, m in dense_clusters]
    np.testing.assert_allclose([v for v, _ in clusters], [v for v, _ in dense_clusters],
                               rtol=0, atol=1e-10)


# Per-group loops, the reference for the batched per-size kernels: the same
# products on the same blocks, so the results must agree bit for bit.

def loop_lag(net, blocks, V):
    out = np.empty_like(V)
    for B, sl in zip(blocks, group_slices(net)):
        out[sl] = B @ V[sl]
    return out


def loop_solve(net, coef, blocks, V):
    out = np.empty_like(V)
    for B, sl in zip(blocks, group_slices(net)):
        out[sl] = np.linalg.solve(np.eye(len(B)) - coef * B, V[sl])
    return out


def loop_j_apply(net, V):
    """J V from each group's own basis of span{iota, M_r iota}, as in the docstring:
    iota/sqrt(m), then r = M_r iota - mean * iota taken off iota once more and
    normalized, zeroed when M_r iota is collinear with iota or when the closed-form
    s_2 of [iota, M_r iota] is at most the cutoff times s_1; a singleton keeps iota."""
    out = np.array(V)
    for M_r, sl in zip(net.blocks_M(), group_slices(net)):
        m = len(M_r)
        B = np.full((m, 1), 1.0 / np.sqrt(m))
        if m > 1:
            mi = M_r.sum(axis=1)
            r = mi - mi.sum() / m
            norm_mi, norm_r = np.sqrt((mi * mi).sum()), np.sqrt((r * r).sum())
            collinear = norm_r / max(norm_mi, 1e-300) < 1e-8
            r = r - r.sum() / m
            norm_r = np.sqrt((r * r).sum())
            total, det = m + norm_mi ** 2, np.sqrt(m) * norm_r
            s1_sq = (total + np.sqrt(max(total ** 2 - 4.0 * det ** 2, 0.0))) / 2.0
            keep = not collinear and det > 1e-10 * s1_sq
            B = np.column_stack([B[:, 0], r / norm_r if keep else np.zeros(m)])
        out[sl] = out[sl] - B @ (B.T @ out[sl])
    return out


@PROPERTY_SETTINGS
@given(net=odd_networks(), coef=st.floats(-0.9, 0.9), seed=st.integers(0, 1000))
def test_batched_kernels_equal_per_group_loops(net, coef, seed):
    # odd_networks mixes sizes (several stacks, mostly gathered rows),
    # singletons, and zero rows of M (J bases of width 1 and 2)
    coef /= max(1.0, row_sum_norm(dense_W(net)))   # keeps every I - coef A invertible
    V = np.random.default_rng(seed).standard_normal((net.n, 3))
    for X in (V, V[:, 0].copy(), V[:, 1]):       # matrix, vector, strided column
        for blocks, lag in ((net.blocks_W(), net.lag_W), (net.blocks_M(), net.lag_M)):
            assert np.array_equal(lag(X), loop_lag(net, blocks, X))
        assert np.array_equal(net.J.apply(X), loop_j_apply(net, X))
        for blocks, stacks in ((net.blocks_W(), net.stacks_W()),
                               (net.blocks_M(), net.stacks_M())):
            want = loop_solve(net, coef, blocks, X)
            assert np.array_equal(solve_blockwise(coef, stacks, X, "A"), want)


@PROPERTY_SETTINGS
@given(net=odd_networks(), lam=st.floats(-0.9, 0.9), rho=st.floats(-0.9, 0.9),
       seed=st.integers(0, 1000))
def test_apply_D_matches_dense_oracle(net, lam, rho, seed):
    lam /= max(1.0, row_sum_norm(dense_W(net)))
    V = np.random.default_rng(seed).standard_normal((net.n, 3))
    R = r_matrix(rho, dense_M(net))
    D = R @ dense_W(net) @ np.linalg.inv(s_matrix(lam, dense_W(net))) @ np.linalg.inv(R)
    for X in (V, V[:, 0]):
        want = D @ X
        got = apply_D(net, lam, rho, X)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@PROPERTY_SETTINGS
@given(net=odd_networks(min_last=4), seed=st.integers(0, 1000))
def test_full_projector_fits_are_invariant_to_column_scale(net, seed):
    # classical and bias-corrected 2SLS keep every component, and the full
    # projector P = Q (Q'Q)^+ Q' and the bias trace tr(P D) do not change
    # under Q -> Q diag(s): fitting the normalized roster is the same
    # estimator.  A damped P (any Tikhonov, LF or partial PC scheme) is not
    # scale invariant and would fail this.  In floating point the psi_j of
    # the smallest eigenvalues carry an error of about eps * kappa, so past
    # kappa = 1e3 the tolerance grows as 1e-13 kappa (the observed error
    # stays below 2e-15 kappa on these networks)
    rng = np.random.default_rng(seed)
    data = PanelData(y=rng.standard_normal(net.n), x1=rng.standard_normal(net.n),
                     x2=rng.standard_normal(net.n), group_sizes=net.group_sizes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")        # dropped columns warn
        raw = q2_roster(net, q1_roster(net, data.regressors(net)))
        scaled = normalize_columns(raw, "unit-variance")
    for fit in (lambda inst: classical_2sls(first_stage(data, net, inst, 0.3)),
                lambda inst: bias_corrected_2sls(first_stage(data, net, inst, 0.3),
                                                 lambda_tilde=0.2)):
        try:
            want = fit(raw).delta
        except np.linalg.LinAlgError:          # too few instruments for the sandwich
            assume(False)
        rtol = max(1e-10, 1e-13 * Spectrum.from_instruments(raw).condition_number)
        assert np.linalg.norm(fit(scaled).delta - want) <= rtol * np.linalg.norm(want)


@PROPERTY_SETTINGS
@given(net=odd_networks(min_last=4), seed=st.integers(0, 1000))
def test_preliminary_delta_matches_textbook_oracle(net, seed):
    # delta_tilde is classical 2SLS of q1's first stage at rho = 0, fitted
    # through the spectrum of Q Q'/n; the pseudo-inverse chain is the
    # reference wherever its sandwich Z'P Z is well conditioned.  Both
    # routes lose about eps * (cond(Z'P Z) + kappa) to rounding, kappa the
    # spectrum's condition number (observed below 50 eps times that sum)
    rng = np.random.default_rng(seed)
    data = PanelData(y=rng.standard_normal(net.n), x1=rng.standard_normal(net.n),
                     x2=rng.standard_normal(net.n), group_sizes=net.group_sizes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")        # dropped columns warn
        try:
            q1 = q1_roster(net, data.regressors(net))
        except ValueError:                     # every instrument column is zero
            assume(False)
    Z, Q = assemble_z(data, net), q1.Q
    P = Q @ np.linalg.pinv(Q.T @ Q) @ Q.T
    sandwich = np.linalg.cond(Z.T @ P @ Z)
    assume(sandwich < 1e6)
    want = textbook_iv_oracle(Z, data.y, Q)
    got = preliminary_delta(data, net, q1)
    rtol = max(1e-12, 1e-13 * (sandwich + Spectrum.from_instruments(q1).condition_number))
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


@PROPERTY_SETTINGS
@given(net=odd_networks(min_last=4), rho=st.sampled_from([0.0, -0.4, 0.3]),
       seed=st.integers(0, 1000))
def test_fits_sharing_one_first_stage_equal_fits_on_their_own(net, rho, seed):
    # the five large-roster fits of a Monte Carlo replication read one stage;
    # each must equal, bit for bit, the fit that builds a stage of its own
    rng = np.random.default_rng(seed)
    data = PanelData(y=rng.standard_normal(net.n), x1=rng.standard_normal(net.n),
                     x2=rng.standard_normal(net.n), group_sizes=net.group_sizes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")        # dropped columns warn
        inst = normalize_columns(q2_roster(net, q1_roster(net, data.regressors(net))),
                                 "unit-variance")
    shared = first_stage(data, net, inst, rho)
    rank = shared.spectrum.rank
    fits = (classical_2sls,
            lambda stage: bias_corrected_2sls(stage, lambda_tilde=0.2),
            lambda stage: regularized_2sls(stage, Scheme.tikhonov(0.05)),
            lambda stage: regularized_2sls(stage, Scheme.landweber(8)),
            lambda stage: regularized_2sls(stage, Scheme.principal_components(max(1, rank - 1))))

    def outcome(fit, stage):
        try:
            result = fit(stage)
        except np.linalg.LinAlgError as exc:   # too few instruments for the sandwich
            return str(exc)
        return np.concatenate([result.delta, result.std_errors, [result.sigma2_hat]])

    for fit in fits:
        got = outcome(fit, shared)
        want = outcome(fit, first_stage(data, net, inst, rho))
        assert type(got) is type(want)
        assert (got == want) if isinstance(got, str) else np.array_equal(got, want)


def roster_and_warnings(build):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        inst = build()
    return inst, [str(w.message) for w in caught]


@PROPERTY_SETTINGS
@given(net=odd_networks(), k=st.integers(1, 3), seed=st.integers(0, 1000))
def test_q2_roster_matches_dense_oracle(net, k, seed):
    # the scattered J W 1 vector against the n x G block J W iota.  J W 1
    # rounds as a matrix-vector product, so a group's values agree to a few
    # ulps of W_r iota_r, the column before J; where J cancels most of it
    # (isolated members widen J's basis) that exceeds ulps of the column
    base = np.random.default_rng(seed).standard_normal((net.n, k))
    try:
        q1, _ = roster_and_warnings(lambda: q1_roster(net, base))
    except ValueError:                         # every group a singleton: J = 0
        assume(False)
    got, got_warned = roster_and_warnings(lambda: q2_roster(net, q1))
    want, want_warned = roster_and_warnings(lambda: q2_roster_dense(net, q1))
    assert got.labels == want.labels and got_warned == want_warned
    got_Q = got.dense()
    assert got_Q.shape == want.Q.shape
    scale = np.abs(want.Q).max(axis=0)
    degree = np.abs(net.lag_W(np.ones(net.n)))
    for j, lab in enumerate(got.labels):
        if lab.startswith("J.W.iota["):
            rows = group_slices(net)[int(lab[9:-1])]
            off = np.ones(net.n, dtype=bool)
            off[rows] = False
            assert not got_Q[off, j].any()
            scale[j] = max(scale[j], degree[rows].max())
    assert np.all(np.abs(got_Q - want.Q) <= 1e-14 * scale)


def normalize_by_column(inst):
    """The per-column loop ``normalize_columns`` must reproduce to rounding."""
    cols, labels = [], []
    for j, lab in enumerate(inst.labels):
        c = inst.Q[:, j]
        sd = float(np.std(c, ddof=1))
        if sd <= 0.0 or not np.isfinite(sd):
            continue
        cols.append(c / sd)
        labels.append(lab)
    return np.column_stack(cols), tuple(labels)


@PROPERTY_SETTINGS
@given(n=st.integers(2, 60), k=st.integers(2, 40), const=st.data(),
       value=st.integers(-4, 4), seed=st.integers(0, 1000))
def test_normalize_columns_matches_per_column_loop(n, k, const, value, seed):
    rng = np.random.default_rng(seed)
    # scales from 1e-6 to 1e6 with offsets; one column constant at an
    # integer, whose mean is exact, so its variance is exactly zero
    Q = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-6, 6, k) + rng.uniform(-3, 3, k)
    j = const.draw(st.integers(0, k - 1))
    Q[:, j] = value
    labels = tuple(f"c{i}" for i in range(k))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = normalize_columns(InstrumentSet(Q, labels), "unit-variance")
    assert [str(w.message) for w in caught] == [
        f"dropping zero-variance instrument column 'c{j}'"]
    want_Q, want_labels = normalize_by_column(InstrumentSet(Q, labels))
    assert got.labels == want_labels
    # the SDs sum in another order than the loop's: each column's relative
    # rounding grows with n and with the cancellation |mean| / sd of its
    # centring, so each column gets n eps (1 + |mean| / sd), twice over
    kept = np.array([lab != f"c{j}" for lab in labels])
    mean, sd = np.abs(Q[:, kept].mean(axis=0)), np.std(Q[:, kept], axis=0, ddof=1)
    rtol = 2 * n * np.finfo(float).eps * (1 + mean / sd)
    assert np.all(np.abs(got.Q - want_Q) <= rtol * np.abs(want_Q))
    assert got.Q.flags.c_contiguous


# The spectrum's consumers work in the instrument coordinates psi'x.  The
# rosters below mix a global column, one column on a random subset of the
# groups and the centrality columns of two powers, one per group, so most
# supports are strict subsets.

def support_roster(net, rng):
    """J [x, x on some groups] and the per-group columns J W iota_r, J W^2 iota_r."""
    x = rng.standard_normal(net.n)
    some = net.expand_group_values((rng.random(net.group_count) < 0.5).astype(float))
    degree = net.lag_W(np.ones(net.n))
    V = net.J.apply(np.column_stack([degree, net.lag_W(degree)]))
    labels = ["x", "x.some"] + [f"W^{j}.iota[{r}]" for j in (1, 2) for r in range(net.group_count)]
    return InstrumentSet(net.J.apply(np.column_stack([x, x * some])), labels, V,
                         np.cumsum(net.group_sizes) - np.asarray(net.group_sizes))


def padded(inst):
    """``inst`` with zero rows appended until it has fewer than n/4 columns.

    The padding rows are isolated rows without an instrument, in the last
    group's segment, so F'F does not change.
    """
    pad = max(0, 4 * inst.n_columns + 4 - inst.n)
    Q = np.vstack([inst.Q, np.zeros((pad, inst.Q.shape[1]))])
    V = None if inst.V is None else np.vstack([inst.V, np.zeros((pad, inst.powers))])
    return InstrumentSet(Q, inst.labels, V, inst.starts, inst.mask)


def padded_d(net, lam, rho, n):
    """Dense D on n >= net.n rows and its ``apply``, zero past the network's rows."""
    D = np.zeros((n, n))
    D[:net.n, :net.n] = d_matrix(net, lam, rho)

    def apply(V):
        out = np.zeros_like(V)
        out[:net.n] = apply_D(net, lam, rho, V[:net.n])
        return out

    return D, apply


def route_spectrum(inst, gram):
    """The spectrum of the roster ``inst`` on the asked route, and the F it decomposed.

    The Gram route takes a unit-variance roster of one per-group power and
    fewer than n/4 columns: the global columns and the first power of
    ``inst``, normalized and ``padded``.  The block route takes the roster
    with its two per-group powers whole.
    """
    if gram:
        one = InstrumentSet(inst.Q, inst.labels[:inst.n_columns - inst.starts.size],
                            inst.V[:, :1], inst.starts)
        try:
            inst, _ = roster_and_warnings(lambda: normalize_columns(one.nonzero(),
                                                                    "unit-variance"))
        except ValueError:                     # no column is left
            assume(False)
        assume(inst.powers == 1)               # a per-group column is left
        # where J annihilates every column, what is kept is rounding noise
        # whose mean is not swept, and no rescaling gives it one sum of squares
        diagonal = inst.arrowhead()[3]
        assume(np.ptp(diagonal) <= DIAGONAL_ULPS * np.finfo(float).eps * diagonal.max())
        inst = padded(inst)
    F = inst.dense()
    assume(F.shape[1] > 0 and np.abs(F).max() > 0.0)
    spectrum = Spectrum.from_instruments(inst)
    assert (spectrum.basis is not None) == gram
    # the Gram route's psi = F C: the two product orders of coords and
    # expand part by about eps sqrt(kappa), beyond 1e-12 at kappa near 1e9
    assume(not gram or spectrum.condition_number < 1e8)
    return spectrum, F


@PROPERTY_SETTINGS
@given(net=odd_networks(), gram=st.booleans(), seed=st.integers(0, 1000))
def test_coords_and_expand_match_materialized_psi(net, gram, seed):
    rng = np.random.default_rng(seed)
    spectrum, F = route_spectrum(support_roster(net, rng), gram)
    n = F.shape[0]
    x = rng.standard_normal((n, 3))
    c = rng.standard_normal((spectrum.rank, 3))
    psi = oracles.psi(spectrum)
    for got, want in ((spectrum.coords(x), psi.T @ x),
                      (spectrum.coords(x[:, 0]), psi.T @ x[:, 0]),
                      (spectrum.expand(c), psi @ c),
                      (spectrum.expand(c[:, 0]), psi @ c[:, 0])):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())
    # psi is expand(I), so the loop above checks expand against itself:
    # psi is checked on its own against eigh of the written-out F F'/n, as
    # orthonormal, spanning its nonzero eigenspace and diagonalizing it.
    # An eigenvector moves by about eps nu_1 / gap, so the tolerances are a
    # multiple of eps times the condition number
    K = F @ F.T / n
    vals, vecs = np.linalg.eigh(K)
    relative = vals / vals.max()
    assume(not np.any((relative > 1e-13) & (relative < 1e-9)))   # no value near the cutoff
    nonzero = vecs[:, relative > 1e-11]
    assert nonzero.shape[1] == spectrum.rank
    tol = 1e-13 * spectrum.condition_number
    np.testing.assert_allclose(psi.T @ psi, np.eye(spectrum.rank), rtol=0.0, atol=tol)
    np.testing.assert_allclose(psi @ psi.T, nonzero @ nonzero.T, rtol=0.0, atol=tol)
    np.testing.assert_allclose(psi.T @ K @ psi, np.diag(spectrum.eigenvalues), rtol=0.0,
                               atol=tol * spectrum.nu_max)


@PROPERTY_SETTINGS
@given(net=odd_networks(), lam=st.floats(-0.9, 0.9), rho=st.floats(-0.9, 0.9),
       normalized=st.booleans(), partial=st.booleans(), seed=st.integers(0, 1000))
def test_q2_layout_matches_dense_roster(net, lam, rho, normalized, partial, seed):
    # q2 held as its global columns plus one n-vector for the per-group
    # columns, against the n x (c + G) roster of the dense oracle: labels
    # and values, then every product the spectrum and the bias trace take
    # from the layout against the same product of the written-out roster.
    # With ``partial`` a random subset of the per-group columns is first
    # dropped from both through ``select``
    lam /= max(1.0, row_sum_norm(dense_W(net)))
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((net.n, 2))
    try:
        q1, _ = roster_and_warnings(lambda: q1_roster(net, base))
    except ValueError:                         # every group a singleton: J = 0
        assume(False)
    got, got_warned = roster_and_warnings(lambda: q2_roster(net, q1))
    want, want_warned = roster_and_warnings(lambda: q2_roster_dense(net, q1))
    assert got.labels == want.labels and got_warned == want_warned
    if partial:
        per_group = np.array([lab.startswith("J.W.iota[") for lab in got.labels])
        keep = ~per_group | (rng.random(per_group.size) < 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")    # each dropped column warns
            kept, want = (inst.select(keep, "numerically zero") for inst in (got, want))
        assert np.array_equal(kept.dense(), got.dense()[:, keep])
        for lab in np.array(got.labels)[~keep]:
            assert kept.V is None or not kept.V[group_slices(net)[int(lab[9:-1])]].any()
        got = kept
    # J W 1 rounds as one vector, the oracle's J W iota as a block: each
    # centrality column is compared on the scale of W_r iota_r, before J
    # cancels most of it, and a normalized column on that scale over its SD
    scale = np.abs(want.Q).max(axis=0)
    degree = np.abs(net.lag_W(np.ones(net.n)))
    for j, lab in enumerate(want.labels):
        if lab.startswith("J.W.iota["):
            scale[j] = max(scale[j], degree[group_slices(net)[int(lab[9:-1])]].max())
    if normalized:
        scale /= np.std(want.Q, axis=0, ddof=1)
        raw_labels = want.labels
        try:
            want, want_warned = roster_and_warnings(
                lambda: normalize_columns(want, "unit-variance"))
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                roster_and_warnings(lambda: normalize_columns(got, "unit-variance"))
            return
        got, got_warned = roster_and_warnings(
            lambda: normalize_columns(got, "unit-variance"))
        assert got.labels == want.labels and got_warned == want_warned
        scale = scale[[raw_labels.index(lab) for lab in want.labels]]
    F = got.dense()
    for j, lab in enumerate(got.labels):
        if lab.startswith("J.W.iota["):
            off = np.ones(net.n, dtype=bool)
            off[group_slices(net)[int(lab[9:-1])]] = False
            assert not F[off, j].any()
    assert np.all(np.abs(F - want.Q) <= 1e-13 * scale)

    n, m = F.shape
    if got.powers == 1:                        # no arrowhead once every per-group column goes
        K = arrowhead_matrix(*got.arrowhead()) / n
        np.testing.assert_allclose(K, F.T @ F / n, rtol=0.0, atol=1e-13 * np.abs(K).max())
        FDF = arrowhead_matrix(*got.arrowhead(lambda V: apply_D(net, lam, rho, V)))
        dense_FDF = F.T @ d_matrix(net, lam, rho) @ F
        assert np.abs(FDF - dense_FDF).max() <= 1e-12 * max(1.0, np.abs(dense_FDF).max())
    x, c = rng.standard_normal((n, 3)), rng.standard_normal((m, 3))
    for got_x, want_x in ((got.tdot(x), F.T @ x), (got.tdot(x[:, 0]), F.T @ x[:, 0]),
                          (got.dot(c), F @ c), (got.dot(c[:, 0]), F @ c[:, 0])):
        assert got_x.shape == want_x.shape
        np.testing.assert_allclose(got_x, want_x, rtol=0.0,
                                   atol=1e-13 * max(1.0, np.abs(want_x).max()))
    # psi itself depends on the basis LAPACK picks inside a cluster; the
    # eigenvalues and the projector psi psi' do not
    try:
        spectrum, oracle = Spectrum.from_instruments(got), Spectrum.from_instruments(F)
    except ValueError:                         # no nonzero spectrum
        assume(False)
    assume(oracle.condition_number < 1e8)
    assert spectrum.rank == oracle.rank
    np.testing.assert_allclose(spectrum.eigenvalues, oracle.eigenvalues, rtol=0.0,
                               atol=1e-13 * oracle.nu_max)
    psi, oracle_psi = oracles.psi(spectrum), oracles.psi(oracle)
    P = oracle_psi @ oracle_psi.T
    np.testing.assert_allclose(psi @ psi.T, P, rtol=0.0, atol=1e-8)
    np.testing.assert_allclose(spectrum.expand(spectrum.coords(x)), P @ x, rtol=0.0,
                               atol=1e-8 * np.abs(x).max())


@PROPERTY_SETTINGS
@given(net=odd_networks(), lam=st.floats(-0.9, 0.9), rho=st.floats(-0.9, 0.9),
       gram=st.booleans(), alpha=st.floats(1e-3, 10.0), seed=st.integers(0, 1000))
def test_bias_trace_matches_dense_oracle(net, lam, rho, gram, alpha, seed):
    lam /= max(1.0, row_sum_norm(dense_W(net)))
    spectrum, F = route_spectrum(support_roster(net, np.random.default_rng(seed)), gram)
    D, apply = padded_d(net, lam, rho, F.shape[0])
    for scheme in (Scheme.principal_components(spectrum.rank), Scheme.tikhonov(alpha)):
        want = np.trace(projector_matrix(spectrum, scheme) @ D)
        got = spectrum.weighted_trace(q_weights(scheme, spectrum), apply)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


# The block route decomposes F F'/n in a basis of col(F): a thin SVD of each
# group's rows of the per-group part, and the global columns' residual off
# their span.  Its rosters below have o = 1-3 powers, singletons (whose
# columns J annihilates), groups left without a column, per-group blocks of
# rank below min(m_r, o), and global columns inside or outside the span.

@PROPERTY_SETTINGS
@given(net=odd_networks(), powers=st.integers(1, 3), deficient=st.booleans(),
       inside=st.booleans(), drop=st.booleans(), lam=st.floats(-0.9, 0.9),
       rho=st.floats(-0.9, 0.9), alpha=st.floats(1e-3, 10.0), seed=st.integers(0, 1000))
def test_block_route_matches_dense_oracle(net, powers, deficient, inside, drop, lam, rho,
                                          alpha, seed):
    # eigenvalues, psi psi' x, leverages and the bias trace against eigh of
    # the written-out F F'/n (``oracles.spectrum_dense``).  The global
    # columns number at least n/4, so every roster takes the block route.
    # An eigenvector moves by about eps nu_1 / gap under rounding, so the
    # projectors agree to a multiple of eps times the condition number
    lam /= max(1.0, row_sum_norm(dense_W(net)))
    rng = np.random.default_rng(seed)
    V = net.J.apply(rng.standard_normal((net.n, powers)))
    if deficient and powers > 1:
        V[:, -1] = V[:, :-1].sum(axis=1) + V[:, 0]      # each V_r of rank below o
    width = max(2, -(-net.n // 4))
    if inside:      # combinations of the per-group columns, group by group
        weights = rng.standard_normal((net.group_count, powers, width))
        Q = np.einsum("ip,ipj->ij", V, weights.repeat(net.group_sizes, axis=0))
    else:
        Q = net.J.apply(rng.standard_normal((net.n, width)))
    labels = [f"q{j}" for j in range(width)] + [f"v{p}[{r}]" for p in range(powers)
                                                for r in range(net.group_count)]
    starts = np.cumsum(net.group_sizes) - np.asarray(net.group_sizes)
    try:
        inst, _ = roster_and_warnings(lambda: InstrumentSet(Q, labels, V, starts).nonzero())
        if drop:          # about half the per-group columns, whole groups among them
            keep = np.concatenate([np.ones(width, bool), rng.random(inst.n_columns - width) < 0.5])
            inst, _ = roster_and_warnings(lambda: inst.select(keep, "numerically zero"))
    except ValueError:                         # no column is left
        assume(False)
    F = inst.dense()
    relative = np.linalg.eigvalsh(F @ F.T / net.n)[::-1]
    relative /= relative[0]
    assume(not np.any((relative > 1e-15) & (relative < 1e-9)))   # no value near the cutoff
    oracle = oracles.spectrum_dense(inst)
    assume(oracle.condition_number < 1e8)
    spectrum = Spectrum.from_instruments(inst)
    assert spectrum.basis is None and spectrum.rank == oracle.rank
    np.testing.assert_allclose(spectrum.eigenvalues, oracle.eigenvalues, rtol=0.0,
                               atol=1e-13 * oracle.nu_max)
    tol = 1e-13 * oracle.condition_number
    x = rng.standard_normal((net.n, 3))
    psi = oracles.psi(oracle)
    np.testing.assert_allclose(spectrum.expand(spectrum.coords(x)), psi @ (psi.T @ x),
                               rtol=0.0, atol=tol * np.abs(x).max())
    D = d_matrix(net, lam, rho)
    for scheme in (Scheme.tikhonov(alpha * oracle.nu_max ** 2), Scheme.landweber(16),
                   Scheme.principal_components(oracle.rank)):
        P = projector_matrix(oracle, scheme)
        q = q_weights(scheme, spectrum)
        np.testing.assert_allclose(spectrum.weighted_diagonal(q), np.diag(P), rtol=0.0, atol=tol)
        got = spectrum.weighted_trace(q, lambda A: apply_D(net, lam, rho, A))
        assert abs(got - np.trace(P @ D)) <= tol * max(1.0, np.abs(D).sum())


# The Gram route splits the cluster of the unit-variance q2's per-group
# block off in closed form.  The odd networks' rosters are wider than n/4,
# so each is ``padded`` with zero rows to have the Gram route's width; an
# unnormalized q2 takes the block route.

@PROPERTY_SETTINGS
@given(net=odd_networks(min_groups=8, max_groups=16), width=st.integers(1, 2),
       normalized=st.booleans(), lam=st.floats(-0.9, 0.9), rho=st.floats(-0.9, 0.9), alpha=st.floats(1e-3, 10.0),
       seed=st.integers(0, 1000))
def test_deflated_spectrum_matches_dense_oracle(net, width, normalized, lam, rho, alpha, seed):
    # eigenvalues, damped projectors and the bias trace of the deflated
    # spectrum against eigh of the written-out F F'/n, and the cluster
    # multiplicity against G - r, r the rank of the Gram's border.  Unit
    # variance gives every per-group column the same sum of squares, so the
    # Gram route deflates and the cluster is there once G exceeds r; an
    # unnormalized roster's diagonal differs (unless one group is left) and
    # the block route takes it
    lam /= max(1.0, row_sum_norm(dense_W(net)))
    base = np.random.default_rng(seed).standard_normal((net.n, width))
    try:
        q1, _ = roster_and_warnings(lambda: q1_roster(net, base))
        inst, _ = roster_and_warnings(lambda: normalize_columns(
            q2_roster(net, q1), "unit-variance" if normalized else "none"))
    except ValueError:                         # J = 0, or no column has variance
        assume(False)
    inst = padded(inst)
    n, F = inst.n, inst.dense()
    dense_vals, dense_vecs = np.linalg.eigh(F @ F.T / n)
    dense_vals, dense_vecs = dense_vals[::-1], dense_vecs[:, ::-1]
    # no eigenvalue near the relative cutoff, where either route may keep it
    relative = dense_vals / dense_vals[0]
    assume(not np.any((relative > 1e-15) & (relative < 1e-9)))
    keep = relative > 1e-12
    oracle = Spectrum(dense_vals[keep], dense_vecs[:, keep], None, n)
    assume(oracle.condition_number < 1e8)
    spectrum = Spectrum.from_instruments(inst)
    gram = inst.powers == 1 and (normalized or inst.starts.size == 1)
    assert (spectrum.basis is not None) == gram and spectrum.rank == oracle.rank
    np.testing.assert_allclose(spectrum.eigenvalues, oracle.eigenvalues, rtol=0.0,
                               atol=1e-13 * oracle.nu_max)

    value, size = spectrum.cluster
    if gram:
        _, border, _, diagonal = inst.arrowhead()
        assert size == diagonal.size - np.linalg.matrix_rank(border)
    else:
        assert size == 0
    if size:
        assert value == pytest.approx(diagonal.mean() / n, rel=1e-14)
        assert np.sum(np.abs(oracle.eigenvalues - value) <= 1e-13 * oracle.nu_max) >= size

    D, apply = padded_d(net, lam, rho, n)
    # an eigenvector moves by about eps nu_1 / gap under rounding, so the
    # projectors agree to a multiple of eps times the condition number, and
    # the traces to that times the absolute sum of D
    tol = 1e-13 * oracle.condition_number
    schemes = (Scheme.tikhonov(alpha * oracle.nu_max ** 2), Scheme.landweber(16),
               Scheme.principal_components(spectrum.rank))
    # the three schemes' weights as one (3 x rank) grid: one leverage column each
    stacked = spectrum.weighted_diagonal(np.array([q_weights(s, spectrum) for s in schemes]))
    for scheme, leverages in zip(schemes, stacked.T, strict=True):
        P = projector_matrix(oracle, scheme)
        np.testing.assert_allclose(apply_projector(spectrum, scheme, np.eye(n)), P,
                                   rtol=0.0, atol=tol)
        q = q_weights(scheme, spectrum)
        np.testing.assert_allclose(spectrum.weighted_diagonal(q), np.diag(P), rtol=0.0, atol=tol)
        np.testing.assert_allclose(leverages, np.diag(P), rtol=0.0, atol=tol)
        got = spectrum.weighted_trace(q, apply)
        want = np.trace(P @ D)
        assert abs(got - want) <= tol * max(1.0, np.abs(D).sum())


# The CSV loaders convert whole columns; the oracle parses cell by cell.


@st.composite
def csv_texts(draw):
    """A node file and two edge files (W and M) for random groups, as CSV text.

    Group and node ids are integers (some negative) or text, whose
    lexicographic order differs from the numeric one (g10 < g3).  Groups
    have unequal sizes, some nodes have no links, some links are self-links
    and some weights are zero.  Rows are shuffled, blank lines are mixed in
    and cells are padded with spaces.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    text_groups, text_nodes, weighted = (draw(st.booleans()) for _ in range(3))
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    groups = [f"g{7 * r % 11}" if text_groups else str(7 * r % 11 - 5)
              for r in range(len(sizes))]
    nodes = [[f"n{v}" if text_nodes else str(v) for v in rng.choice(12, m, replace=False)]
             for m in sizes]

    def text(header, rows):
        lines = [",".join(" " * rng.integers(2) + str(c) + " " * rng.integers(2) for c in row)
                 for row in rows]
        lines = [lines[k] for k in rng.permutation(len(lines))]
        for k in rng.integers(0, len(lines) + 1, rng.integers(3)):
            lines.insert(k, str(rng.choice(["", "  ", ",,,", " , "])))
        return "\n".join([header] + lines) + "\n"

    def edges():
        rows = [[g, ids[i], ids[j]] + ([rng.choice([0.0, 1.0, rng.random()])] if weighted else [])
                for g, ids in zip(groups, nodes) for i in range(len(ids)) for j in range(len(ids))
                if rng.random() < (0.1 if i == j else 0.4)]
        rows = rows or [[groups[0], nodes[0][0], nodes[0][-1]] + [1.0] * weighted]
        return text("group_id,src,dst" + ",weight" * weighted, rows)

    node_rows = [[g, v] + list(rng.standard_normal(3)) for g, ids in zip(groups, nodes)
                 for v in ids]
    return text("group_id,node_id,x1_0,x2_0,y", node_rows), edges(), edges()


def load_outcome(load, *paths):
    """(network, data, warning texts), or the error text of a refused input."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            net, data = load(*paths)
        except ValueError as exc:
            return str(exc)
    return net, data, [str(w.message) for w in caught]


@PROPERTY_SETTINGS
@given(texts=csv_texts(), with_nodes=st.booleans(), with_m=st.booleans())
def test_csv_loaders_match_cell_by_cell_oracle(texts, with_nodes, with_m):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / name for name in ("nodes.csv", "edges.csv", "m_edges.csv")]
        for path, body in zip(paths, texts):
            path.write_text(body)
        args = (paths[1], paths[0] if with_nodes else None, paths[2] if with_m else None)
        got, want = load_outcome(load_network, *args), load_outcome(load_network_by_cell, *args)
    if isinstance(want, str):          # edges-only W and M files on other node sets
        assert got == want
        return
    (net, data, caught), (want_net, want_data, want_caught) = got, want
    assert caught == want_caught
    assert net.group_sizes == want_net.group_sizes
    assert net.m_row_normalized == want_net.m_row_normalized
    for a, b in ((net.stacks_W(), want_net.stacks_W()), (net.stacks_M(), want_net.stacks_M())):
        assert all(np.array_equal(S, T) for S, T in zip(a.stacks(), b.stacks(), strict=True))
    assert (data is None) == (want_data is None) == (not with_nodes)
    if with_nodes:
        assert data.node_ids == want_data.node_ids
        assert data.group_sizes == want_data.group_sizes
        for field in ("y", "x1", "x2"):
            assert np.array_equal(getattr(data, field), getattr(want_data, field))


# ---------------------------------------------------------------------------
# Invariance of a whole replication at the benchmark's sizes: mixed group
# sizes with singletons, up to 240 groups, through run_replication's calls
# ---------------------------------------------------------------------------

REGULARIZED_ROWS = {"t_2sls": "T", "lf_2sls": "LF", "pc_2sls": "PC"}


def mixed_draw(seed, groups, max_links=3):
    """W blocks of the Monte Carlo's wrap-around design on sizes 1..11, two
    singletons among them, and the design's x and y on that network."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 12, size=groups)
    sizes[rng.choice(groups, size=min(2, groups), replace=False)] = 1
    blocks = []
    for m in sizes:
        B = np.zeros((m, m))
        for i, k in enumerate(rng.integers(0, min(max_links, m - 1) + 1, size=m)):
            B[i, (i + 1 + np.arange(k)) % m] = 1.0
        blocks.append(B)
    net = design_network(blocks)
    x = rng.standard_normal(net.n)
    gamma = 0.1 * rng.standard_normal(groups)
    params = ModelParams.checked(net, lam=0.1, beta1=[0.2], beta2=[0.2], rho=0.1,
                                 gamma=gamma, sigma2=1.0)
    y = reduced_form(params, np.column_stack([x, net.lag_W(x)]), gamma,
                     rng.standard_normal(net.n), net)
    return blocks, x, y


def design_network(blocks):
    return GroupedNetwork.from_blocks(blocks, [row_normalize(B) for B in blocks],
                                      m_row_normalized=True)


def replicate(config, blocks, x, y):
    """run_replication's estimators on (blocks, x, y), with the selection
    margin of each regularized row: the gap from the smallest S_hat on its
    grid to the next smallest, relative to the smallest."""
    net = design_network(blocks)
    data = PanelData(y=y, x1=x[:, None], x2=x[:, None], group_sizes=net.group_sizes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)     # zero centrality columns
        result = montecarlo._estimate_draw(config, net, data)
        q1 = q1_roster(net, data.regressors(net))
        delta = preliminary_delta(data, net, q1)
        stage = first_stage(data, net, normalize_columns(q2_roster(net, q1), "unit-variance"),
                            0.0)
        ctx = prepare_selection(stage, delta, config.criterion)
    margins = {}
    for kind in REGULARIZED_ROWS.values():
        values = np.sort([s for _, _, s in select_from_context(ctx, kind).curve])
        margins[kind] = (values[1] - values[0]) / abs(values[0]) if values.size > 1 else np.inf
    return result, margins


def assert_same_rows(got, want, margins, beta_scale=1.0):
    # a regularized row whose S_hat minimum is within 1e-8 of the runner-up
    # may pick the other point on rounding, so it is compared only at a margin
    assert not got.failures and not want.failures
    assert got.rho_tilde == pytest.approx(want.rho_tilde, rel=1e-9, abs=1e-12)
    for name in ESTIMATORS:
        kind = REGULARIZED_ROWS.get(name)
        if kind is not None and margins[kind] < 1e-8:
            continue
        np.testing.assert_allclose(got.estimates[name] * [1.0, beta_scale, beta_scale],
                                   want.estimates[name], rtol=1e-9, atol=1e-12, err_msg=name)
        if kind is not None:
            assert got.alphas[name] == pytest.approx(want.alphas[name], rel=1e-9), name


INVARIANCE_SETTINGS = settings(max_examples=10, deadline=None)
benchmark_draws = dict(seed=st.integers(0, 2 ** 32 - 1), groups=st.integers(20, 240),
                       criterion=st.sampled_from(["cp", "loo"]))


@INVARIANCE_SETTINGS
@given(**benchmark_draws)
def test_group_permutation_leaves_every_row_unchanged(seed, groups, criterion):
    config = McConfig(criterion=criterion)
    blocks, x, y = mixed_draw(seed, groups)
    want, margins = replicate(config, blocks, x, y)
    order = np.random.default_rng(seed).permutation(groups)
    rows = np.split(np.arange(x.size), np.cumsum([len(B) for B in blocks])[:-1])
    moved = np.concatenate([rows[g] for g in order])
    got, _ = replicate(config, [blocks[g] for g in order], x[moved], y[moved])
    assert_same_rows(got, want, margins)


@INVARIANCE_SETTINGS
@given(**benchmark_draws, c=st.floats(0.01, 100.0))
def test_scaling_x_scales_beta_and_leaves_lambda(seed, groups, criterion, c):
    config = McConfig(criterion=criterion)
    blocks, x, y = mixed_draw(seed, groups)
    want, margins = replicate(config, blocks, x, y)
    got, _ = replicate(config, blocks, c * x, y)
    assert_same_rows(got, want, margins, beta_scale=c)


@INVARIANCE_SETTINGS
@given(**benchmark_draws)
def test_relabelling_nodes_within_groups_leaves_every_row_unchanged(seed, groups, criterion):
    config = McConfig(criterion=criterion)
    blocks, x, y = mixed_draw(seed, groups)
    want, margins = replicate(config, blocks, x, y)
    rng = np.random.default_rng(seed)
    perms = [rng.permutation(len(B)) for B in blocks]
    starts = np.cumsum([0] + [len(B) for B in blocks[:-1]])
    moved = np.concatenate([start + p for start, p in zip(starts, perms)])
    got, _ = replicate(config, [B[p][:, p] for B, p in zip(blocks, perms)], x[moved], y[moved])
    assert_same_rows(got, want, margins)
