import numpy as np
import pytest

from sarnet.graphs import GroupedNetwork, PanelData, generate_mc_network
from sarnet.selection import _score_grid
from sarnet.transforms import ModelParams, reduced_form


def draw_dataset(seed, group_count=6, group_size=8, max_links=3,
                 lam=0.1, rho=0.1, beta1=0.2, beta2=0.2,
                 sigma_gamma=0.1, sigma_eps=1.0, shared_x=True):
    """One synthetic draw of (network, data, params, gamma, eps).

    Mirrors the benchmark design: wrap-around random network, standard
    normal covariate, small group effects.  ``shared_x`` uses the same
    covariate for own and contextual characteristics.
    """
    rng = np.random.default_rng(seed)
    net = generate_mc_network(group_count, group_size, max_links, rng)
    x1 = rng.standard_normal(net.n)
    x2 = x1 if shared_x else rng.standard_normal(net.n)
    gamma = sigma_gamma * rng.standard_normal(net.group_count)
    eps = sigma_eps * rng.standard_normal(net.n)
    params = ModelParams.checked(net, lam=lam, beta1=[beta1], beta2=[beta2],
                                 rho=rho, gamma=gamma, sigma2=max(sigma_eps, 1e-30) ** 2)
    X = np.column_stack([x1, net.lag_W(x2)])
    y = reduced_form(params, X, gamma, eps, net)
    data = PanelData(y=y, x1=x1[:, None], x2=x2[:, None],
                     group_sizes=net.group_sizes)
    return net, data, params, gamma, eps


@pytest.fixture
def small_dataset():
    return draw_dataset(seed=20240501)


@pytest.fixture
def ring3_network():
    """Three nodes in a directed cycle; M is the (identical) row-normalized W."""
    W = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    return GroupedNetwork((3,), W, W.copy(), m_row_normalized=True)


def nilpotent_dataset(seed, group_count=4, group_size=5, sigma_eps=1e-8):
    """Draw on a strictly feed-forward network (W^4 = 0, no group effects).

    With lag order >= 3 and the M-premultiplied copies included, the optimal
    instrument is spanned exactly, which realizes the noiseless limit of the
    selection problem.
    """
    from sarnet.graphs import build_block_diagonal, row_normalize

    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(group_count):
        B = np.triu(np.ones((group_size, group_size)), k=1)
        B *= rng.random((group_size, group_size)) < 0.8
        blocks.append(B)
    W = build_block_diagonal(blocks)
    net = GroupedNetwork(tuple([group_size] * group_count), W,
                         row_normalize(W), m_row_normalized=True)
    x1 = rng.standard_normal(net.n)
    x2 = rng.standard_normal(net.n)
    gamma = np.zeros(group_count)
    eps = sigma_eps * rng.standard_normal(net.n)
    params = ModelParams.checked(net, lam=0.1, beta1=[0.2], beta2=[0.2],
                                 rho=0.1, gamma=gamma,
                                 sigma2=max(sigma_eps, 1e-30) ** 2)
    X = np.column_stack([x1, net.lag_W(x2)])
    y = reduced_form(params, X, gamma, eps, net)
    data = PanelData(y=y, x1=x1[:, None], x2=x2[:, None],
                     group_sizes=net.group_sizes)
    return net, data


def write_network_csvs(tmp_path, net, data=None, prefix=""):
    """Write a GroupedNetwork (and optional PanelData) in the CSV schema."""
    erows = ["group_id,src,dst,weight"]
    for g, B in enumerate(net.blocks_W()):
        for i in range(B.shape[0]):
            for j in range(B.shape[1]):
                if B[i, j] != 0.0:
                    erows.append(f"{g},{i},{j},{B[i, j]:.10g}")
    edges = tmp_path / f"{prefix}edges.csv"
    edges.write_text("\n".join(erows) + "\n")
    if data is None:
        return edges, None
    nrows = ["group_id,node_id," +
             ",".join(f"x1_{c}" for c in range(data.k1)) + "," +
             ",".join(f"x2_{c}" for c in range(data.k2)) + ",y"]
    idx = 0
    for g, m in enumerate(net.group_sizes):
        for i in range(m):
            vals = ([f"{v:.12g}" for v in data.x1[idx]] +
                    [f"{v:.12g}" for v in data.x2[idx]] +
                    [f"{data.y[idx]:.12g}"])
            nrows.append(f"{g},{i}," + ",".join(vals))
            idx += 1
    nodes = tmp_path / f"{prefix}nodes.csv"
    nodes.write_text("\n".join(nrows) + "\n")
    return edges, nodes


def criterion_at(ctx, scheme) -> float:
    """The context's goodness-of-fit criterion at one scheme: a one-point grid."""
    return float(_score_grid(ctx, scheme.kind, [scheme.grid_value])[0][0])


def s_hat_at(ctx, scheme) -> float:
    """The plug-in MSE estimate S_hat at one scheme: a one-point grid."""
    return float(_score_grid(ctx, scheme.kind, [scheme.grid_value])[1][0])
