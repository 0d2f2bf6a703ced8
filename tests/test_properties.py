"""Property tests: block-wise code against dense oracles on odd inputs.

Networks have random unequal group sizes, singleton groups and all-zero rows
(isolated individuals), which the fixed simulation designs never produce.
"""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sarnet.estimation import (_bias_trace, bias_corrected_2sls, classical_2sls,
                               first_stage, preliminary_rho, regularized_2sls)
from sarnet.graphs import (BlockStacks, GroupedNetwork, PanelData, build_block_diagonal,
                           load_network, row_normalize)
from sarnet.identification import (_rank_and_condition, _stack_rank_check,
                                   distinct_eigenvalues, labelled_stack)
from sarnet.instruments import InstrumentSet, normalize_columns, q1_roster, q2_roster
from sarnet.regularization import Scheme, Spectrum, q_weights
from sarnet.transforms import (ModelParams, apply_D, assemble_z, gram_D, reduced_form,
                               row_sum_norm, solve_blockwise)
from oracles import (d_matrix, dense_J, dense_M, dense_W, group_slices,
                     load_network_by_cell, projector_matrix, q2_roster_dense, r_matrix,
                     s_matrix)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def odd_blocks(draw, min_last=1):
    """W blocks of sizes 1..7 (the last one at least ``min_last``), zero rows."""
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=5))
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
def odd_networks(draw, min_last=1):
    """The dense-constructed network of ``odd_blocks``, M the row-normalized W."""
    blocks = draw(odd_blocks(min_last))
    W = build_block_diagonal(blocks)
    return GroupedNetwork(tuple(len(B) for B in blocks), W, row_normalize(W),
                          m_row_normalized=True)


@PROPERTY_SETTINGS
@given(net=odd_networks(), order=st.integers(1, 4), k=st.integers(1, 3),
       seed=st.integers(0, 1000))
def test_labelled_stack_matches_dense_oracle(net, order, k, seed):
    X = np.random.default_rng(seed).standard_normal((net.n, k))
    iota = net.group_ones()
    stack, labels = labelled_stack(net.lag_W, X, order, iota, net.lag_M)

    cols = [np.linalg.matrix_power(dense_W(net), j) @ X for j in range(1, order + 1)]
    cols += [np.linalg.matrix_power(dense_W(net), j) @ iota for j in range(1, order + 1)]
    base = np.column_stack(cols + [X])
    expect = np.column_stack([base, dense_M(net) @ base])
    np.testing.assert_allclose(stack, expect, rtol=1e-12, atol=1e-12)
    assert len(labels) == expect.shape[1] == len(set(labels))
    assert labels[0] == "W^1.X[0]" and labels[-1] == f"M.X[{k - 1}]"


@PROPERTY_SETTINGS
@given(net=odd_networks(), order=st.integers(1, 4), k=st.integers(1, 3),
       rho_zero=st.booleans(), seed=st.integers(0, 1000))
def test_stack_rank_check_matches_dense_svd_or_is_wide(net, order, k, rho_zero, seed):
    # dense lags, so that the stack the check builds is the oracle's, bit for bit
    X = np.random.default_rng(seed).standard_normal((net.n, k))
    iota = net.group_ones()
    got = _stack_rank_check(dense_W(net).__matmul__, dense_M(net).__matmul__, X,
                            order + 1, rho_zero, iota)
    oracle, _ = labelled_stack(dense_W(net).__matmul__, X, order,
                               None if rho_zero else iota,
                               None if rho_zero else dense_M(net).__matmul__)
    if oracle.shape[1] > net.n:
        assert got == (False, np.inf)
    else:
        assert got == _rank_and_condition(oracle)[1:]


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
    dense_count, dense_clusters = distinct_eigenvalues(dense_W(net))
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
    """J V from each group's own basis of span{iota, M_r iota}, as in the docstring."""
    out = np.array(V)
    for M_r, sl in zip(net.blocks_M(), group_slices(net)):
        m = len(M_r)
        iota = np.ones(m)
        mi = M_r @ iota
        resid = mi - (mi.sum() / m) * iota
        collinear = np.linalg.norm(resid) / max(np.linalg.norm(mi), 1e-300) < 1e-8
        A = iota[:, None] if collinear else np.column_stack([iota, mi])
        U, s, _ = np.linalg.svd(A, full_matrices=False)
        B = U[:, s > 1e-10 * s[0]]
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
        rtol = max(1e-10, 1e-13 * raw.spectrum.condition_number)
        assert np.linalg.norm(fit(scaled).delta - want) <= rtol * np.linalg.norm(want)


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
    rank = inst.spectrum.rank
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

    shared = first_stage(data, net, inst, rho)
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
    assert got.Q.shape == want.Q.shape
    scale = np.abs(want.Q).max(axis=0)
    degree = np.abs(net.lag_W(np.ones(net.n)))
    for j, lab in enumerate(got.labels):
        if lab.startswith("J.W.iota["):
            rows = group_slices(net)[int(lab[9:-1])]
            off = np.ones(net.n, dtype=bool)
            off[rows] = False
            assert not got.Q[off, j].any()
            scale[j] = max(scale[j], degree[rows].max())
    assert np.all(np.abs(got.Q - want.Q) <= 1e-14 * scale)


def normalize_by_column(inst, mode):
    """The per-column loop ``normalize_columns`` must reproduce bit for bit."""
    cols, labels = [], []
    for j, lab in enumerate(inst.labels):
        c = inst.Q[:, j]
        sd = float(np.std(c, ddof=1))
        if sd <= 0.0 or not np.isfinite(sd):
            continue
        if mode == "standardized":
            c = c - c.mean()
        cols.append(c / sd)
        labels.append(lab)
    return np.column_stack(cols), tuple(labels)


@PROPERTY_SETTINGS
@given(n=st.integers(2, 60), k=st.integers(2, 40), const=st.data(),
       value=st.integers(-4, 4), seed=st.integers(0, 1000),
       mode=st.sampled_from(("unit-variance", "standardized")))
def test_normalize_columns_matches_per_column_loop(n, k, const, value, seed, mode):
    rng = np.random.default_rng(seed)
    # scales from 1e-6 to 1e6 with offsets; one column constant at an
    # integer, whose mean is exact, so its variance is exactly zero
    Q = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-6, 6, k) + rng.uniform(-3, 3, k)
    j = const.draw(st.integers(0, k - 1))
    Q[:, j] = value
    labels = tuple(f"c{i}" for i in range(k))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = normalize_columns(InstrumentSet(Q, labels), mode)
    assert [str(w.message) for w in caught] == [
        f"dropping zero-variance instrument column 'c{j}'"]
    want_Q, want_labels = normalize_by_column(InstrumentSet(Q, labels), mode)
    assert np.array_equal(got.Q, want_Q)
    assert got.labels == want_labels
    assert got.Q.flags.c_contiguous


# The spectrum's consumers work in the instrument coordinates psi'x.  The
# rosters below mix a global column, one column on a random subset of the
# groups and one column per group, so most supports are strict subsets.

def support_roster(net, rng):
    """J [x, x on some groups, W iota_r per group]: global, partial and per-group columns."""
    x = rng.standard_normal(net.n)
    some = net.expand_group_values((rng.random(net.group_count) < 0.5).astype(float))
    return net.J.apply(np.column_stack([x, x * some, net.lag_W(net.group_ones())]))


def route_spectrum(Q, gram):
    """The spectrum of Q, trimmed or widened to take the asked route.

    The Gram route needs fewer than n/4 columns, so it keeps Q's leading
    columns; the dense route needs at least n/4, so it appends random dense
    columns.
    """
    n = Q.shape[0]
    quarter = -(-n // 4)                      # the first width on the dense route
    if gram:
        Q = Q[:, :quarter - 1]
    else:
        extra = max(0, quarter - Q.shape[1])
        Q = np.column_stack([Q, np.random.default_rng(n).standard_normal((n, extra))])
    assume(Q.shape[1] > 0 and np.abs(Q).max() > 0.0)
    spectrum = Spectrum.from_instruments(Q)
    assert (spectrum.basis is not None) == gram
    return spectrum


@PROPERTY_SETTINGS
@given(net=odd_networks(), gram=st.booleans(), seed=st.integers(0, 1000))
def test_coords_and_expand_match_materialized_psi(net, gram, seed):
    rng = np.random.default_rng(seed)
    spectrum = route_spectrum(support_roster(net, rng), gram)
    x = rng.standard_normal((net.n, 3))
    c = rng.standard_normal((spectrum.rank, 3))
    psi = spectrum.vectors
    for got, want in ((spectrum.coords(x), psi.T @ x),
                      (spectrum.coords(x[:, 0]), psi.T @ x[:, 0]),
                      (spectrum.expand(c), psi @ c),
                      (spectrum.expand(c[:, 0]), psi @ c[:, 0])):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())


@PROPERTY_SETTINGS
@given(net=odd_networks(), lam=st.floats(-0.9, 0.9), rho=st.floats(-0.9, 0.9),
       dense=st.booleans(), seed=st.integers(0, 1000))
def test_gram_D_matches_dense_oracle(net, lam, rho, dense, seed):
    # a dense F gives every group the full support, s = k
    lam /= max(1.0, row_sum_norm(dense_W(net)))
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((net.n, 4)) if dense else support_roster(net, rng)
    want = F.T @ d_matrix(net, lam, rho) @ F
    got = gram_D(net, lam, rho, F)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@PROPERTY_SETTINGS
@given(net=odd_networks(), lam=st.floats(-0.9, 0.9), rho=st.floats(-0.9, 0.9),
       gram=st.booleans(), alpha=st.floats(1e-3, 10.0), seed=st.integers(0, 1000))
def test_bias_trace_matches_dense_oracle(net, lam, rho, gram, alpha, seed):
    lam /= max(1.0, row_sum_norm(dense_W(net)))
    spectrum = route_spectrum(support_roster(net, np.random.default_rng(seed)), gram)
    D = d_matrix(net, lam, rho)
    for scheme in (Scheme.principal_components(spectrum.rank), Scheme.tikhonov(alpha)):
        want = np.trace(projector_matrix(spectrum, scheme) @ D)
        got = _bias_trace(net, spectrum, q_weights(scheme, spectrum), lam, rho)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


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
