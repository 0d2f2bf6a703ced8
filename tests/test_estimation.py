import contextlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sarnet.estimation import (SingularSystemError, assemble_z,
                               bias_corrected_2sls, classical_2sls,
                               first_stage, preliminary_delta, preliminary_rho,
                               regularized_2sls)
from sarnet.graphs import GroupedNetwork, PanelData, build_block_diagonal, row_normalize
from sarnet.instruments import InstrumentSet, normalize_columns, q1_roster, q2_roster
from sarnet.montecarlo import McConfig, _draw_sample
from sarnet.regularization import Scheme, Spectrum, q_weights
from sarnet.selection import (_score_grid, default_grid, prepare_selection,
                              select_from_context)
from conftest import draw_dataset
from oracles import dense_M, dense_W, psi, textbook_iv_oracle


class TestPreliminaryDelta:
    def test_noiseless_data_recovered_exactly(self):
        net, data, params, _, _ = draw_dataset(seed=31, sigma_eps=0.0,
                                               sigma_gamma=0.0)
        q1 = q1_roster(net, data.regressors(net))
        delta = preliminary_delta(data, net, q1)
        np.testing.assert_allclose(delta, [0.1, 0.2, 0.2], atol=1e-8)

    def test_matches_textbook_oracle(self):
        net, data, _, _, _ = draw_dataset(seed=32)
        q1 = q1_roster(net, data.regressors(net))
        delta = preliminary_delta(data, net, q1)
        oracle = textbook_iv_oracle(assemble_z(data, net), data.y, q1.Q)
        np.testing.assert_allclose(delta, oracle, atol=1e-8)

    def test_orthogonal_design_reduces_to_covariance_ratio(self):
        # with the exogenous block orthogonal to both W y and the excluded
        # instrument, the endogenous coefficient collapses to q'y / q'(Wy)
        rng = np.random.default_rng(33)
        n = 40
        W = np.zeros((n, n))
        for i in range(n):
            W[i, (i + 1) % n] = 1.0
        net = GroupedNetwork((n,), W, row_normalize(W), m_row_normalized=True)
        x1 = rng.standard_normal(n)
        x2 = rng.standard_normal(n)
        data0 = PanelData(y=np.zeros(n), x1=x1[:, None], x2=x2[:, None],
                          group_sizes=(n,))
        X = data0.regressors(net)
        # shift y so that X'(W y) = 0 exactly
        y0 = rng.standard_normal(n)
        V = rng.standard_normal((n, 2))
        a = np.linalg.solve(X.T @ (W @ V), X.T @ (W @ y0))
        y = y0 - V @ a
        assert np.abs(X.T @ (W @ y)).max() < 1e-8
        q0 = rng.standard_normal(n)
        q = q0 - X @ np.linalg.lstsq(X, q0, rcond=None)[0]
        data = PanelData(y=y, x1=x1[:, None], x2=x2[:, None], group_sizes=(n,))
        inst = InstrumentSet(np.column_stack([q, X]), ("q", "x1", "wx2"))
        delta = preliminary_delta(data, net, inst)
        assert delta[0] == pytest.approx(float(q @ y) / float(q @ (W @ y)),
                                         abs=1e-8)

    def test_regular_graph_collinear_roster_handled(self):
        # on a degree-regular network M is proportional to W, so the small
        # roster has exactly collinear columns; the projection must shrug
        # that off and still match the pseudo-inverse oracle
        rng = np.random.default_rng(90)
        m = 10
        W = np.zeros((m, m))
        for i in range(m):
            W[i, (i + 1) % m] = W[(i + 1) % m, i] = 1.0
        net = GroupedNetwork((m,), W, row_normalize(W), m_row_normalized=True)
        np.testing.assert_allclose(dense_M(net), W / 2.0)
        x1, x2, y = rng.standard_normal((3, m))
        data = PanelData(y=y, x1=x1[:, None], x2=x2[:, None], group_sizes=(m,))
        q1 = q1_roster(net, data.regressors(net))
        delta = preliminary_delta(data, net, q1)
        oracle = textbook_iv_oracle(assemble_z(data, net), data.y, q1.Q)
        np.testing.assert_allclose(delta, oracle, atol=1e-8)

    def test_singular_sandwich_reports_condition_number(self):
        net, data, _, _, _ = draw_dataset(seed=34)
        col = net.J.apply(data.x1[:, 0])
        inst = InstrumentSet(np.column_stack([col, col * 2.0]), ("a", "b"))
        with pytest.raises(SingularSystemError) as err:
            preliminary_delta(data, net, inst)
        assert err.value.condition_number > 1e12


class TestPreliminaryRho:
    def test_exact_zero_residual_returns_zero_with_warning(self):
        net, data, params, _, _ = draw_dataset(seed=35, sigma_eps=0.0,
                                               sigma_gamma=0.0)
        q1 = q1_roster(net, data.regressors(net))
        delta = preliminary_delta(data, net, q1)
        with pytest.warns(UserWarning, match="degenerate"):
            rho = preliminary_rho(data, net, delta)
        assert rho == 0.0

    def test_degeneracy_threshold_scales_with_the_data(self):
        # rescaling y, x1 and x2 together leaves delta_tilde and rho_tilde as
        # they are, down to a scale where an absolute residual threshold
        # would call the objective flat
        net, data, _, _, _ = draw_dataset(seed=3, group_count=60, group_size=15,
                                          max_links=6)

        def rho_at(s):
            scaled = PanelData(y=s * data.y, x1=s * data.x1, x2=s * data.x2,
                               group_sizes=data.group_sizes)
            delta = preliminary_delta(scaled, net, q1_roster(net, scaled.regressors(net)))
            return preliminary_rho(scaled, net, delta)

        base = rho_at(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = rho_at(1e-13)
        assert base == pytest.approx(0.0884269, abs=1e-7)
        assert tiny == pytest.approx(base, abs=1e-12)

    def test_unbiased_at_zero_rho_over_replications(self):
        # simulation oracle: with rho0 = 0 and the true delta plugged in,
        # the average estimate over 200 draws stays within 3 MC standard
        # errors of zero
        values = []
        for rep in range(200):
            net, data, params, _, _ = draw_dataset(
                seed=(36, rep), group_count=10, group_size=8, rho=0.0)
            values.append(preliminary_rho(data, net, np.array([0.1, 0.2, 0.2])))
        values = np.asarray(values)
        se = values.std(ddof=1) / np.sqrt(len(values))
        assert abs(values.mean()) < 3 * se

    def test_deterministic(self):
        net, data, _, _, _ = draw_dataset(seed=37)
        q1 = q1_roster(net, data.regressors(net))
        delta = preliminary_delta(data, net, q1)
        assert preliminary_rho(data, net, delta) == preliminary_rho(data, net, delta)


class TestRegularized2sls:
    def test_pc_full_equals_classical_oracle_on_many_fixtures(self):
        # 50 random small fixtures, tolerance 1e-8
        for rep in range(50):
            net, data, _, _, _ = draw_dataset(seed=(40, rep), group_count=4,
                                              group_size=6)
            q2 = q2_roster(net, q1_roster(net, data.regressors(net)))
            stage = first_stage(data, net, q2, rho_tilde=0.0)
            result = regularized_2sls(stage, Scheme.principal_components(stage.spectrum.rank))
            oracle = textbook_iv_oracle(assemble_z(data, net), data.y, q2.dense())
            np.testing.assert_allclose(result.delta, oracle, atol=1e-8)

    def test_classical_wrapper_matches_pc_full(self):
        net, data, _, _, _ = draw_dataset(seed=41)
        q2 = q2_roster(net, q1_roster(net, data.regressors(net)))
        a = classical_2sls(first_stage(data, net, q2, rho_tilde=0.1))
        stage = first_stage(data, net, q2, 0.1)
        b = regularized_2sls(stage, Scheme.principal_components(stage.spectrum.rank))
        np.testing.assert_allclose(a.delta, b.delta, atol=1e-12)

    def test_noiseless_light_tikhonov_recovers_truth(self):
        net, data, _, _, _ = draw_dataset(seed=42, sigma_eps=0.0,
                                          sigma_gamma=0.0)
        q2 = q2_roster(net, q1_roster(net, data.regressors(net)))
        result = regularized_2sls(first_stage(data, net, q2, rho_tilde=0.0),
                                  Scheme.tikhonov(1e-8))
        np.testing.assert_allclose(result.delta, [0.1, 0.2, 0.2], atol=1e-6)

    def test_transform_matches_dense_oracle(self):
        net, data, _, _, _ = draw_dataset(seed=43)
        q2 = q2_roster(net, q1_roster(net, data.regressors(net)))
        rho = 0.23
        Rm = np.eye(net.n) - rho * dense_M(net)
        Z = assemble_z(data, net)
        Q = q2.dense()
        P = Q @ np.linalg.pinv(Q.T @ Q) @ Q.T
        oracle = np.linalg.solve((Rm @ Z).T @ P @ (Rm @ Z),
                                 (Rm @ Z).T @ P @ (Rm @ data.y))
        stage = first_stage(data, net, q2, rho)
        result = regularized_2sls(stage, Scheme.principal_components(stage.spectrum.rank))
        np.testing.assert_allclose(result.delta, oracle, atol=1e-8)

    def test_scale_equivariance(self):
        net, data, _, _, _ = draw_dataset(seed=44)
        q2 = q2_roster(net, q1_roster(net, data.regressors(net)))
        scheme = Scheme.tikhonov(0.05)
        base = regularized_2sls(first_stage(data, net, q2, 0.0), scheme)
        scaled_data = PanelData(y=3.0 * data.y, x1=data.x1, x2=data.x2,
                                group_sizes=data.group_sizes)
        scaled = regularized_2sls(first_stage(scaled_data, net, q2, 0.0), scheme)
        assert scaled.lambda_hat == pytest.approx(base.lambda_hat, abs=1e-9)
        np.testing.assert_allclose(scaled.delta[1:], 3.0 * base.delta[1:],
                                   atol=1e-8)

    def test_sigma2_and_standard_errors(self):
        net, data, _, _, _ = draw_dataset(seed=45)
        q2 = q2_roster(net, q1_roster(net, data.regressors(net)))
        result = regularized_2sls(first_stage(data, net, q2, 0.0), Scheme.tikhonov(0.1))
        assert result.sigma2_hat >= 0.0
        assert np.all(np.isfinite(result.std_errors))
        # sigma2 equals the squared structural residual norm over n
        J = net.J
        resid = data.y - assemble_z(data, net) @ result.delta
        expect = float(J.apply(resid) @ J.apply(resid)) / net.n
        assert result.sigma2_hat == pytest.approx(expect, rel=1e-10)


class TestBiasCorrected:
    def test_nilpotent_trace_matches_neumann_oracle(self):
        # strictly upper-triangular blocks: longest path 3 edges, so W^4 = 0
        rng = np.random.default_rng(46)
        blocks = []
        for _ in range(3):
            B = np.triu(np.ones((4, 4)), k=1) * (rng.random((4, 4)) < 0.8)
            blocks.append(B)
        W = build_block_diagonal(blocks)
        assert np.abs(np.linalg.matrix_power(W, 4)).max() == 0.0
        net = GroupedNetwork((4, 4, 4), W, row_normalize(W), m_row_normalized=True)
        lam, rho = 0.15, 0.1
        q = Spectrum.from_instruments(
            InstrumentSet(np.random.default_rng(1).standard_normal((12, 4)),
                          tuple("abcd")))
        vectors = psi(q)
        P = vectors @ vectors.T
        Rm = np.eye(12) - rho * dense_M(net)
        # dense-inverse oracle
        D_dense = Rm @ W @ np.linalg.inv(np.eye(12) - lam * W) @ np.linalg.inv(Rm)
        # truncated Neumann series: S^{-1} = I + lam W + (lam W)^2 + (lam W)^3
        Sinv = sum(np.linalg.matrix_power(lam * W, k) for k in range(4))
        D_neumann = Rm @ W @ Sinv @ np.linalg.inv(Rm)
        assert np.abs(np.trace(P @ D_dense) - np.trace(P @ D_neumann)) < 1e-8
        # and the operator route used by the estimator agrees with both:
        # tr(P D) = sum_j psi_j' D psi_j with every component kept
        from sarnet.transforms import apply_D
        got = np.einsum("ij,ij->", vectors, apply_D(net, lam, rho, vectors))
        assert got == pytest.approx(np.trace(P @ D_dense), abs=1e-8)

    def test_correction_moves_lambda_toward_truth_on_average(self):
        lam_plain, lam_corrected = [], []
        for rep in range(60):
            net, data, _, _, _ = draw_dataset(seed=(47, rep), group_count=15,
                                              group_size=10)
            X = data.regressors(net)
            q1 = q1_roster(net, X)
            q2 = q2_roster(net, q1)
            delta_t = preliminary_delta(data, net, q1)
            stage = first_stage(data, net, q2, 0.0)
            plain = regularized_2sls(stage, Scheme.principal_components(stage.spectrum.rank))
            corrected = bias_corrected_2sls(stage, lambda_tilde=float(delta_t[0]))
            lam_plain.append(plain.lambda_hat)
            lam_corrected.append(corrected.lambda_hat)
        assert abs(np.mean(lam_corrected) - 0.1) < abs(np.mean(lam_plain) - 0.1)


    def test_correction_starts_from_the_stage_classical_fit(self):
        net, data, _, _, _ = draw_dataset(seed=48, group_count=10, group_size=8)
        q1 = q1_roster(net, data.regressors(net))
        lam = float(preliminary_delta(data, net, q1)[0])
        q2 = normalize_columns(q2_roster(net, q1), "unit-variance")
        for rho in (0.0, 0.2):
            stage = first_stage(data, net, q2, rho)
            corrected = bias_corrected_2sls(stage, lambda_tilde=lam)
            plain = classical_2sls(stage)          # kept by the corrected fit
            scheme = Scheme.principal_components(stage.spectrum.rank)
            assert regularized_2sls(stage, scheme) is plain
            assert not plain.delta.flags.writeable
            q = q_weights(scheme, stage.spectrum)
            A = stage.U.T @ (q[:, None] * stage.U)
            tr_PD = stage.spectrum.weighted_trace(q, lambda V: stage.apply_D(lam, V))
            e1 = np.eye(A.shape[0])[0]
            want = plain.delta - plain.sigma2_hat * tr_PD * np.linalg.solve(A, e1)
            assert np.array_equal(corrected.delta, want)
            assert np.array_equal(corrected.std_errors, plain.std_errors)
            assert corrected.sigma2_hat == plain.sigma2_hat
            # the other order, on a stage of its own, gives the same bits
            fresh = first_stage(data, net, q2, rho)
            assert np.array_equal(classical_2sls(fresh).delta, plain.delta)
            assert np.array_equal(bias_corrected_2sls(fresh, lam).delta, corrected.delta)

    def test_singular_classical_system_fails_both_fits_alike(self):
        net, data, _, _, _ = draw_dataset(seed=34)
        col = net.J.apply(data.x1[:, 0])
        stage = first_stage(data, net, InstrumentSet(np.column_stack([col, col * 2.0]),
                                                     ("a", "b")), 0.0)
        messages = []
        for fit in (lambda: bias_corrected_2sls(stage, 0.1), lambda: classical_2sls(stage),
                    lambda: bias_corrected_2sls(stage, 0.1)):
            with pytest.raises(SingularSystemError) as err:
                fit()
            messages.append(str(err.value))
        assert len(set(messages)) == 1
        assert messages[0].startswith("regularized 2SLS normal equations is numerically singular")


def test_assemble_z_layout(small_dataset):
    net, data, params, _, _ = small_dataset
    Z = assemble_z(data, net)
    assert Z.shape == (net.n, 3)
    np.testing.assert_allclose(Z[:, 0], dense_W(net) @ data.y, atol=1e-12)
    np.testing.assert_allclose(Z[:, 1], data.x1[:, 0], atol=1e-12)
    np.testing.assert_allclose(Z[:, 2], dense_W(net) @ data.x2[:, 0], atol=1e-12)


class TurnedSpectrum:
    """``spectrum`` with its eigenvectors psi turned by ``rotation`` on the
    components ``cluster``: psi[:, cluster] @ rotation in their place, seen
    through ``coords`` and ``expand``; everything else is the spectrum's."""

    def __init__(self, spectrum, cluster, rotation):
        self._spectrum, self._cluster, self._rotation = spectrum, cluster, rotation

    def __getattr__(self, name):
        return getattr(self._spectrum, name)

    def coords(self, x):
        c = self._spectrum.coords(x)
        c[self._cluster] = self._rotation.T @ c[self._cluster]
        return c

    def expand(self, c):
        c = np.array(c, dtype=float)
        c[self._cluster] = self._rotation @ c[self._cluster]
        return self._spectrum.expand(c)


@contextlib.contextmanager
def rotated_in_cluster(inst, value, rng):
    """A copy of the Gram-route roster ``inst`` and the size of its eigenvalue
    cluster at ``value``.  While the context is open, the copy's spectrum is
    that of ``inst`` with its eigenvectors turned by a random rotation
    inside the cluster; every other roster is decomposed as usual."""
    spectrum = Spectrum.from_instruments(inst)
    cluster = np.flatnonzero(np.isclose(spectrum.eigenvalues, value, rtol=1e-10, atol=0.0))
    rotation, _ = np.linalg.qr(rng.standard_normal((cluster.size, cluster.size)))
    turned = TurnedSpectrum(spectrum, cluster, rotation)
    copy = InstrumentSet(inst.Q, inst.labels, inst.V, inst.starts, inst.mask)
    original = Spectrum.from_instruments.__func__

    def substituted(cls, roster):
        return turned if roster is copy else original(cls, roster)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Spectrum, "from_instruments", classmethod(substituted))
        yield copy, cluster.size


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fits_ignore_the_basis_inside_the_unit_variance_cluster(seed):
    # each unit-variance per-group column of q2 has sum of squares n - 1 and
    # a support disjoint from the others, so K = Q'Q/n has an eigenvalue
    # cluster at (n - 1)/n whose basis LAPACK picks arbitrarily.  T and LF
    # weights are constant on a cluster and the full projector does not see
    # its basis, so these fits and their selected alpha must not move.  A PC
    # count can split the cluster, so PC is left out
    config = McConfig(group_count=30, group_size=10, max_links=3, replications=1,
                      seed=seed, criterion="cp")
    net, data = _draw_sample(config, np.random.SeedSequence(seed).spawn(1)[0])
    q1 = q1_roster(net, data.regressors(net))
    delta_tilde = preliminary_delta(data, net, q1)
    rho = preliminary_rho(data, net, delta_tilde)
    inst = normalize_columns(q2_roster(net, q1), "unit-variance")

    def fits(roster):
        stage = first_stage(data, net, roster, rho)
        ctx = prepare_selection(stage, delta_tilde, config.criterion)
        chosen = [select_from_context(ctx, kind).scheme for kind in ("T", "LF")]
        schemes = [Scheme.tikhonov(0.05), Scheme.tikhonov(2.0), Scheme.landweber(8)]
        results = [classical_2sls(stage),
                   bias_corrected_2sls(stage, lambda_tilde=float(delta_tilde[0]))]
        return chosen, results + [regularized_2sls(stage, s) for s in chosen + schemes]

    with rotated_in_cluster(inst, (net.n - 1) / net.n,
                            np.random.default_rng(seed)) as (turned, size):
        assert size >= 2
        chosen, want = fits(inst)
        got_chosen, got = fits(turned)
    assert got_chosen == chosen
    for a, b in zip(got, want, strict=True):
        assert np.linalg.norm(a.delta - b.delta) <= 1e-10 * np.linalg.norm(b.delta)
        assert a.sigma2_hat == pytest.approx(b.sigma2_hat, rel=1e-10)


def cluster_draw(seed, draw):
    """Draw ``draw`` of the (30, 10, 3) cell under ``seed``: data, network,
    delta_tilde and the unit-variance large roster."""
    config = McConfig(group_count=30, group_size=10, max_links=3, replications=1,
                      seed=seed, criterion="cp")
    net, data = _draw_sample(config, np.random.SeedSequence(seed).spawn(draw + 1)[draw])
    q1 = q1_roster(net, data.regressors(net))
    delta_tilde = preliminary_delta(data, net, q1)
    return net, data, delta_tilde, normalize_columns(q2_roster(net, q1), "unit-variance")


def pc_fits(data, net, roster, delta_tilde):
    """The selected PC scheme, and the PC fit at every count of its grid with
    the condition number of its normal equations U'diag(q)U."""
    stage = first_stage(data, net, roster, 0.0)
    ctx = prepare_selection(stage, delta_tilde, "cp")
    fits = []
    for k in default_grid("PC", stage.spectrum, ctx.min_components):
        scheme = Scheme.principal_components(int(k))
        q = q_weights(scheme, stage.spectrum)
        fits.append((regularized_2sls(stage, scheme).delta,
                     np.linalg.cond(stage.U.T @ (q[:, None] * stage.U))))
    return select_from_context(ctx, "PC").scheme, fits


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 16), draw=st.integers(0, 3))
@example(seed=232, draw=0)
def test_pc_fits_and_alpha_ignore_the_basis_inside_the_cluster(seed, draw):
    # PC counts end eigenvalue clusters, so a kept subspace is a sum of
    # whole eigenspaces: turning the basis LAPACK picked inside the
    # (n - 1)/n cluster moves neither a PC fit nor the selected count.  The
    # turn is a rounding change, which moves a fit by about eps times the
    # condition number of its normal equations (observed below 3 eps cond
    # over 40 draws; 0.03 eps cond at the pinned draw's 3 components, where
    # cond is 5e7); a count that split an eigenspace would move it by O(1)
    net, data, delta_tilde, inst = cluster_draw(seed, draw)
    with rotated_in_cluster(inst, (net.n - 1) / net.n,
                            np.random.default_rng(seed)) as (turned, size):
        assert size >= 2
        chosen, want = pc_fits(data, net, inst, delta_tilde)
        got_chosen, got = pc_fits(data, net, turned, delta_tilde)
    assert got_chosen == chosen
    for (a, _), (b, cond) in zip(got, want, strict=True):
        assert np.linalg.norm(a - b) <= 100 * np.finfo(float).eps * cond * np.linalg.norm(b)


def test_pc_selection_no_longer_splits_the_cluster_of_a_small_cell_draw():
    # draw 1 of seed 0 at (30, 10, 3): scored over every count from 3 up to
    # the rank, S_hat is lowest at a count inside the (n - 1)/n cluster of
    # 24 eigenvectors, which keeps an arbitrary subspace of one eigenspace
    # (which count depends on the basis chosen inside it); the grid of
    # cluster ends chooses among whole eigenspaces only
    net, data, delta_tilde, inst = cluster_draw(0, 1)
    stage = first_stage(data, net, inst, 0.0)
    spectrum = stage.spectrum
    ctx = prepare_selection(stage, delta_tilde, "cp")
    every = np.arange(ctx.min_components, spectrum.rank + 1, dtype=float)
    split = int(every[np.argmin(_score_grid(ctx, "PC", every)[1])])
    clustered = np.isclose(spectrum.eigenvalues, (net.n - 1) / net.n, rtol=1e-10, atol=0.0)
    assert clustered.sum() == 24
    assert clustered[split - 1] and clustered[split]
    grid = default_grid("PC", spectrum, ctx.min_components).astype(int)
    assert list(grid) == [3, 4, 5, 6] + list(range(30, spectrum.rank + 1))
    assert select_from_context(ctx, "PC").scheme.steps == 6
