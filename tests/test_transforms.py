import numpy as np
import pytest

from sarnet.graphs import (BlockStacks, GroupedNetwork, PanelData, generate_mc_network,
                           row_normalize)
from sarnet.transforms import (JProjector, ModelParams, apply_D, reduced_form,
                               row_sum_norm, solve_blockwise, structural_residual, whiten)
from conftest import draw_dataset
from oracles import dense_J, dense_M, dense_W, group_slices, r_matrix, s_matrix


class TestSR:
    def test_s_identity_at_zero(self, ring3_network):
        np.testing.assert_array_equal(s_matrix(0.0, dense_W(ring3_network)), np.eye(3))

    def test_s_direct_substitution(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(s_matrix(0.1, W),
                                   [[1.0, -0.1], [-0.1, 1.0]])

    @pytest.mark.parametrize("seed", range(5))
    def test_s_inverse_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        W = rng.random((6, 6)) * 0.5
        np.fill_diagonal(W, 0.0)
        lam = 0.3 / row_sum_norm(W)
        S = s_matrix(lam, W)
        # solve-based inverse oracle
        Sinv = np.linalg.solve(S, np.eye(6))
        np.testing.assert_allclose(Sinv @ S, np.eye(6), atol=1e-10)

    def test_r_identity_and_entrywise(self, ring3_network):
        np.testing.assert_array_equal(r_matrix(0.0, dense_M(ring3_network)), np.eye(3))
        np.testing.assert_allclose(r_matrix(0.1, dense_M(ring3_network)),
                                   np.eye(3) - 0.1 * dense_M(ring3_network))

    def test_r_whitens_autocorrelated_disturbance(self, ring3_network):
        rng = np.random.default_rng(1)
        eps = rng.standard_normal(3)
        u = np.linalg.solve(r_matrix(0.4, dense_M(ring3_network)), eps)
        np.testing.assert_allclose(r_matrix(0.4, dense_M(ring3_network)) @ u, eps,
                                   atol=1e-10)


class TestJProjector:
    def test_row_normalized_full_rows_give_group_mean_block(self):
        net = generate_mc_network(1, 4, 3, seed=4)
        M = row_normalize(np.ones((4, 4)) - np.eye(4))
        J = JProjector(BlockStacks.from_blocks([M], "M"))
        np.testing.assert_allclose(J.apply(np.eye(4)), np.eye(4) - np.ones((4, 4)) / 4,
                                   atol=1e-12)

    def test_annihilates_ones(self):
        net = generate_mc_network(5, 8, 3, seed=1)
        J = net.J
        assert np.linalg.norm(J.apply(np.ones(net.n))) < 1e-10

    def test_annihilates_m_iota(self):
        net = generate_mc_network(5, 8, 3, seed=2)
        J = net.J
        mi = dense_M(net) @ np.ones(net.n)
        assert np.linalg.norm(J.apply(mi)) < 1e-10

    def test_zero_row_in_m_gives_rank_m_minus_2(self):
        rng = np.random.default_rng(8)
        M = rng.random((6, 6))
        np.fill_diagonal(M, 0.0)
        M[2] = 0.0  # isolated node
        J = JProjector(BlockStacks.from_blocks([M], "M"))
        Jm = J.apply(np.eye(6))
        # spectral rank oracle on the annihilated span
        A = np.column_stack([np.ones(6), M @ np.ones(6)])
        expected_rank = 6 - np.linalg.matrix_rank(A)
        eigvals = np.linalg.eigvalsh(Jm)
        assert np.sum(eigvals > 0.5) == expected_rank == 4

    @pytest.mark.parametrize("seed", range(4))
    def test_idempotent_and_symmetric(self, seed):
        net = generate_mc_network(4, 7, 3, seed=seed)
        J = net.J
        Jm = J.apply(np.eye(net.n))
        assert np.abs(Jm @ Jm - Jm).max() < 1e-10
        assert np.abs(Jm - Jm.T).max() == 0.0

    def test_trace_counts_annihilated_dimensions(self):
        net = generate_mc_network(6, 9, 3, seed=3)
        J = net.J
        assert J.trace == pytest.approx(np.trace(J.apply(np.eye(net.n))), abs=1e-10)

    def test_apply_matches_dense(self):
        net = generate_mc_network(3, 6, 2, seed=5)
        J = net.J
        v = np.random.default_rng(0).standard_normal(net.n)
        np.testing.assert_allclose(J.apply(v), dense_J(net) @ v, atol=1e-12)


class TestStructuralResidual:
    def test_zero_disturbance_gives_zero(self):
        net, data, params, gamma, eps = draw_dataset(seed=3, sigma_eps=0.0)
        res = structural_residual(params, data, net)
        assert np.abs(res).max() < 1e-10

    def test_zero_params_give_projected_outcome(self, ring3_network):
        y = np.array([1.0, 2.0, 3.0])
        data = PanelData(y=y, x1=np.zeros((3, 1)), x2=np.zeros((3, 1)),
                         group_sizes=(3,))
        params = ModelParams(lam=0.0, beta1=[0.0], beta2=[0.0], rho=0.0,
                             gamma=[0.0], sigma2=1.0)
        res = structural_residual(params, data, ring3_network)
        J = ring3_network.J
        np.testing.assert_allclose(res, J.apply(y), atol=1e-12)

    def test_matches_dense_term_by_term_oracle(self):
        net, data, params, gamma, eps = draw_dataset(seed=12, group_count=2,
                                                     group_size=6)
        res = structural_residual(params, data, net)
        # dense oracle assembled term by term
        J = dense_J(net)
        R = np.eye(net.n) - params.rho * dense_M(net)
        X = np.column_stack([data.x1, dense_W(net) @ data.x2])
        inner = data.y - params.lam * (dense_W(net) @ data.y) - X @ params.beta
        np.testing.assert_allclose(res, J @ R @ inner, atol=1e-10)

    def test_equals_projected_noise_at_truth(self):
        net, data, params, gamma, eps = draw_dataset(seed=21)
        res = structural_residual(params, data, net)
        J = net.J
        np.testing.assert_allclose(res, J.apply(eps), atol=1e-9)


class TestReducedForm:
    def test_no_interaction_case(self):
        net = generate_mc_network(3, 5, 2, seed=9)
        rng = np.random.default_rng(4)
        X = rng.standard_normal((net.n, 2))
        gamma = rng.standard_normal(3)
        eps = rng.standard_normal(net.n)
        params = ModelParams(lam=0.0, beta1=[0.5], beta2=[-0.2], rho=0.0,
                             gamma=gamma, sigma2=1.0)
        y = reduced_form(params, X, gamma, eps, net)
        np.testing.assert_allclose(
            y, X @ params.beta + np.repeat(gamma, net.group_sizes) + eps,
            atol=1e-12)

    def test_structural_roundtrip_recovers_disturbance(self):
        net, data, params, gamma, eps = draw_dataset(seed=13)
        u = (data.y - params.lam * net.lag_W(data.y)
             - data.regressors(net) @ params.beta
             - np.repeat(gamma, net.group_sizes))
        back = u - params.rho * net.lag_M(u)
        np.testing.assert_allclose(back, eps, atol=1e-10)

    def test_group_effect_shift_moves_group_means(self):
        net, data, params, gamma, eps = draw_dataset(seed=14)
        X = data.regressors(net)
        y1 = reduced_form(params, X, gamma, eps, net)
        y2 = reduced_form(params, X, gamma + 0.7, eps, net)
        S = np.eye(net.n) - params.lam * dense_W(net)
        shift = S @ (y2 - y1)
        for sl in group_slices(net):
            assert shift[sl].mean() == pytest.approx(0.7, abs=1e-10)

    def test_unstable_lambda_rejected(self):
        W = np.zeros((4, 4))
        W[0, 1:] = 1.0  # row-sum norm 3
        W[1, 0] = 1.0
        net = GroupedNetwork((4,), W, row_normalize(W), m_row_normalized=True)
        params = ModelParams(lam=0.5, beta1=[0.0], beta2=[0.0], rho=0.0,
                             gamma=np.zeros(1), sigma2=1.0)
        with pytest.raises(ValueError, match="lambda W"):
            reduced_form(params, np.zeros((net.n, 2)), np.zeros(1),
                         np.zeros(net.n), net)

    def test_singular_r_named_in_error(self, ring3_network):
        params = ModelParams(lam=0.0, beta1=[0.0], beta2=[0.0], rho=1.0,
                             gamma=[0.0], sigma2=1.0)
        with pytest.raises(np.linalg.LinAlgError, match="R\\(rho\\)"):
            reduced_form(params, np.zeros((3, 2)), np.zeros(1),
                         np.zeros(3), ring3_network)

    def test_singular_block_named_by_network_index(self):
        # sizes (2, 2, 3): the last group is alone in its size stack, at
        # position 0 there; the error must name it as group block 2
        pair = 0.3 * np.array([[0.0, 1.0], [1.0, 0.0]])
        triangle = np.ones((3, 3)) - np.eye(3)          # I - W/2 is singular
        net = GroupedNetwork.from_blocks([pair, pair, triangle],
                                         [pair, pair, triangle / 2])
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"S\(lambda\) is singular on group block 2"):
            solve_blockwise(0.5, net.stacks_W(), np.ones(net.n), "S(lambda)")
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"S\(lambda\) is singular on group block 2"):
            apply_D(net, 0.5, 0.0, np.ones((net.n, 2)))

    def test_singular_s_named_in_error(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError, match="S\\(lambda\\)"):
            solve_blockwise(1.0, BlockStacks.from_blocks([W], "W"), np.ones(2),
                            "S(lambda)")


def test_r_at_zero_is_the_identity_without_any_work(monkeypatch):
    # R(0) = I: whitening returns V and the solve returns B, bit for bit,
    # without the M lag or a LAPACK call
    net, _, _, _, _ = draw_dataset(seed=9)
    V = np.random.default_rng(9).standard_normal((net.n, 3))

    def no_call(*args, **kwargs):
        raise AssertionError("R(0) did work")

    monkeypatch.setattr(net, "lag_M", no_call)
    monkeypatch.setattr(np.linalg, "solve", no_call)
    for X in (V, V[:, 0], V[:, 1]):
        assert np.array_equal(whiten(net, 0.0, X), X)
        assert np.array_equal(solve_blockwise(0.0, net.stacks_M(), X, "R(rho)"), X)


def test_model_params_stability_check():
    net = generate_mc_network(2, 5, 3, seed=1)
    with pytest.raises(ValueError, match="lambda W"):
        ModelParams.checked(net, lam=0.4, beta1=[0.0], beta2=[0.0], rho=0.0,
                            gamma=np.zeros(2), sigma2=1.0)
    params = ModelParams.checked(net, lam=0.1, beta1=[0.0], beta2=[0.0],
                                 rho=0.0, gamma=np.zeros(2), sigma2=1.0)
    assert params.lam == 0.1
