"""Property tests: block-wise code against dense oracles on odd inputs.

Networks have random unequal group sizes, singleton groups and all-zero rows
(isolated individuals), which the fixed simulation designs never produce.
"""

import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from sarnet.estimation import preliminary_rho
from sarnet.graphs import GroupedNetwork, PanelData, build_block_diagonal, row_normalize
from sarnet.identification import labelled_stack
from sarnet.transforms import assemble_z, j_projector

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def odd_networks(draw, min_last=1):
    """Group sizes in 1..7 (the last one at least ``min_last``), zero rows."""
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=5))
    sizes.append(draw(st.integers(min_last, 7)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    blocks = []
    for m in sizes:
        B = rng.random((m, m)) * (rng.random((m, m)) < 0.6)
        np.fill_diagonal(B, 0.0)
        B[rng.random(m) < 0.25] = 0.0          # isolated individuals
        blocks.append(B)
    W = build_block_diagonal(blocks)
    return GroupedNetwork(tuple(sizes), W, row_normalize(W), m_row_normalized=True)


@PROPERTY_SETTINGS
@given(net=odd_networks(), order=st.integers(1, 4), k=st.integers(1, 3),
       seed=st.integers(0, 1000))
def test_labelled_stack_matches_dense_oracle(net, order, k, seed):
    X = np.random.default_rng(seed).standard_normal((net.n, k))
    iota = net.group_ones()
    stack, labels = labelled_stack(net.lag_W, X, order, iota, net.lag_M)

    cols = [np.linalg.matrix_power(net.W, j) @ X for j in range(1, order + 1)]
    cols += [np.linalg.matrix_power(net.W, j) @ iota for j in range(1, order + 1)]
    base = np.column_stack(cols + [X])
    expect = np.column_stack([base, net.M @ base])
    np.testing.assert_allclose(stack, expect, rtol=1e-12, atol=1e-12)
    assert len(labels) == expect.shape[1] == len(set(labels))
    assert labels[0] == "W^1.X[0]" and labels[-1] == f"M.X[{k - 1}]"


def dense_rho_objective(net, data, delta, rhos):
    """||g(rho)||^2 from explicit n x n matrices, independent of the library."""
    J = j_projector(net.group_sizes, net.M).as_matrix()
    e = data.y - assemble_z(data, net) @ delta
    trJ = np.trace(J)
    moments = []
    for A in (net.W, net.M, net.M @ net.W):
        JAJ = J @ A @ J
        moments.append(JAJ - np.trace(JAJ) / trJ * np.eye(net.n))
    values = []
    for rho in rhos:
        eps = J @ (e - rho * net.M @ e)
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
