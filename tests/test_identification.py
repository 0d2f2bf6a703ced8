import numpy as np
import pytest

from sarnet import identification
from sarnet.graphs import GroupedNetwork, lee_group_network, row_normalize
from sarnet.identification import (AsymmetricMatrixError, Verdict, build_report,
                                   distinct_eigenvalues, labelled_stack,
                                   lee_reduced_coefficient)
from oracles import dense_distinct_eigenvalues, dense_stack, dense_W


def complete_graph(n):
    return np.ones((n, n)) - np.eye(n)


def path_graph(n):
    W = np.zeros((n, n))
    for i in range(n - 1):
        W[i, i + 1] = W[i + 1, i] = 1.0
    return W


def one_group(W, M=None):
    """The one-group network of adjacency matrix W (M defaults to W)."""
    return GroupedNetwork.from_blocks([W], [W if M is None else M])


def cycle_network(n):
    W = path_graph(n)
    W[0, n - 1] = W[n - 1, 0] = 1.0
    return GroupedNetwork((n,), W, row_normalize(W), m_row_normalized=True)


def chorded_ring(n=7):
    """Symmetric ring with weight-2 chords at distance 3 (four eigenvalues)."""
    W = np.zeros((n, n))
    for i in range(n):
        W[i, (i + 1) % n] = W[(i + 1) % n, i] = 1.0
        W[i, (i + 3) % n] = W[(i + 3) % n, i] = 2.0
    return W


class TestDistinctEigenvalues:
    def test_complete_graph_has_two(self):
        count, clusters = distinct_eigenvalues(one_group(complete_graph(4)))
        assert count == 2
        values = sorted(v for v, _ in clusters)
        np.testing.assert_allclose(values, [-1.0, 3.0], atol=1e-10)
        assert sorted(m for _, m in clusters) == [1, 3]

    def test_lee_groups_5_and_7(self):
        net = lee_group_network([5, 7])
        count, clusters = distinct_eigenvalues(net)
        assert count == 3
        values = sorted(v for v, _ in clusters)
        np.testing.assert_allclose(values, [-0.25, -1.0 / 6.0, 1.0], atol=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_high_precision_oracle(self, seed):
        import mpmath
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((8, 8))
        W = (A + A.T) / 2
        np.fill_diagonal(W, 0.0)        # a network has no self-links
        count, _ = distinct_eigenvalues(one_group(W), tol=1e-8)
        # 50-digit eigenvalue oracle, clustered with the same rule
        mpmath.mp.dps = 50
        ev = mpmath.mp.eigsy(mpmath.mp.matrix(W.tolist()), eigvals_only=True)
        vals = sorted((float(v) for v in ev), reverse=True)
        scale = max(abs(v) for v in vals)
        oracle = 1
        for prev, cur in zip(vals, vals[1:]):
            if prev - cur > 1e-8 * scale:
                oracle += 1
        assert count == oracle

    def test_asymmetric_rejected_with_magnitude(self):
        W = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(AsymmetricMatrixError) as err:
            distinct_eigenvalues(one_group(W))
        assert err.value.max_asymmetry == pytest.approx(1.0)
        assert "1.000e+00" in str(err.value)

    def test_tolerances_are_relative_to_the_scale_of_w(self):
        # a directed 4-cycle stays directed at any scale
        W = np.roll(np.eye(4), 1, axis=1)
        with pytest.raises(AsymmetricMatrixError):
            distinct_eigenvalues(one_group(1e-11 * W))
        # the undirected 5-cycle has eigenvalues 2, 2cos(2pi/5) (twice) and
        # 2cos(4pi/5) (twice) at any scale
        cycle = path_graph(5)
        cycle[0, 4] = cycle[4, 0] = 1.0
        count, clusters = distinct_eigenvalues(one_group(1e-9 * cycle))
        assert count == 3 and [m for _, m in clusters] == [1, 2, 2]
        assert distinct_eigenvalues(one_group(np.zeros((3, 3)))) == (1, [(0.0, 3)])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((7, 7))
        W = A + A.T
        np.fill_diagonal(W, 0.0)
        perm = rng.permutation(7)
        c1, _ = distinct_eigenvalues(one_group(W))
        c2, _ = distinct_eigenvalues(one_group(W[np.ix_(perm, perm)]))
        assert c1 == c2

    def test_block_diagonal_union_property(self):
        blocks = [complete_graph(4), path_graph(3)]
        _, clusters = distinct_eigenvalues(GroupedNetwork.from_blocks(blocks, blocks))
        whole = sorted(v for v, _ in clusters)
        per_block = set()
        for b in blocks:
            _, cl = dense_distinct_eigenvalues(b)
            per_block.update(round(v, 9) for v, _ in cl)
        np.testing.assert_allclose(whole, sorted(per_block), atol=1e-8)

    def test_multiplicities_sum_to_n(self):
        count, clusters = distinct_eigenvalues(lee_group_network([3, 4, 5]))
        assert sum(m for _, m in clusters) == 12

    @pytest.mark.parametrize("tol", [np.nan, -1.0])
    def test_nan_or_negative_tol_refused(self, tol):
        # the 7-cycle has 4 distinct eigenvalues; NaN would merge them all
        # into 1 cluster and -1 split them into 7
        net = cycle_network(7)
        assert distinct_eigenvalues(net)[0] == 4
        with pytest.raises(ValueError, match="tol must be a nonnegative number"):
            distinct_eigenvalues(net, tol)
        with pytest.raises(ValueError, match="tol must be a nonnegative number"):
            build_report(net, tol=tol)


class TestProposition1:
    """Two distinct eigenvalues: ``build_report`` says NotIdentified."""

    @pytest.mark.parametrize("n", range(3, 21))
    def test_complete_graphs_not_identified(self, n):
        report = build_report(one_group(complete_graph(n)))
        assert report.distinct_eigenvalue_count == 2
        assert report.verdict is Verdict.NOT_IDENTIFIED

    def test_equal_lee_groups_not_identified(self):
        net = lee_group_network([10, 10])
        assert build_report(net).verdict is Verdict.NOT_IDENTIFIED

    def test_path_graph_possibly_identified(self):
        report = build_report(one_group(path_graph(4)))
        assert report.distinct_eigenvalue_count == 4
        assert report.verdict is Verdict.POSSIBLY_IDENTIFIED


class TestProposition2:
    """Rank and conditioning of the identification stack, from ``build_report``."""

    def test_complete_graph_stack_rank_deficient(self):
        rng = np.random.default_rng(0)
        W = complete_graph(6)
        x1, x2 = rng.standard_normal((2, 6))
        X = np.column_stack([x1, W @ x2])  # own plus contextual block
        report = build_report(one_group(W), X)
        assert report.rank_flag is False
        assert report.stack_condition_number == np.inf
        assert report.verdict is Verdict.NOT_IDENTIFIED

    def test_lee_three_sizes_full_rank(self):
        net = lee_group_network([4, 5, 6])
        rng = np.random.default_rng(1)
        X = rng.standard_normal((net.n, 1))
        report = build_report(net, X)
        assert report.rank_flag is True
        # rank oracle on the explicit stack
        count, _ = dense_distinct_eigenvalues(dense_W(net))
        assert count == report.distinct_eigenvalue_count
        stack = dense_stack(net, X, count - 1)
        assert np.linalg.matrix_rank(stack) == stack.shape[1]

    def test_scale_covariant_rank_flag(self):
        net = lee_group_network([4, 5, 6])
        rng = np.random.default_rng(2)
        X = rng.standard_normal((net.n, 2))
        assert build_report(net, X).rank_flag == build_report(net, 3.7 * X).rank_flag

    def test_larger_stacks_raise_condition_numbers(self):
        # single-group fixture: symmetric contiguity ring with extra
        # chords, one covariate block
        rng = np.random.default_rng(3)
        n = 60
        W = np.zeros((n, n))
        for i in range(n):
            W[i, (i + 1) % n] = W[(i + 1) % n, i] = 1.0
            W[i, (i + 7) % n] = W[(i + 7) % n, i] = 1.0
        X = rng.standard_normal((n, 2))
        conds = []
        for order in (2, 3, 4):
            stack, _, _ = labelled_stack(one_group(W), X, order)
            sv = np.linalg.svd(stack, compute_uv=False)
            conds.append((sv[0] / sv[-1]) ** 2)
        assert conds[0] < conds[1] < conds[2]

    def test_wide_stack_has_infinite_condition(self):
        # order 3, 2 covariates, 1 centrality column, M copy: 7 x 22 stack,
        # which can never have full column rank
        W = chorded_ring()
        X = np.random.default_rng(0).standard_normal((7, 2))
        net = one_group(W, row_normalize(W))
        report = build_report(net, X, rho_zero=False)
        assert report.rank_flag is False
        assert report.stack_condition_number == np.inf
        assert "stack_condition_number = inf" in report.lines()

    def test_wide_stack_keeps_argument_checks(self):
        W = chorded_ring()
        with pytest.raises(ValueError, match="at least one column"):
            build_report(one_group(W, row_normalize(W)), np.ones((7, 0)), rho_zero=False)


class TestLeeReducedCoefficient:
    def test_zero_betas_give_zero(self):
        for m in (2, 10, 50):
            assert lee_reduced_coefficient(m, 0.3, 0.0, 0.0) == 0.0

    def test_direct_substitution(self):
        value = lee_reduced_coefficient(10, 0.1, 0.2, 0.2)
        assert value == pytest.approx((9 * 0.2 - 0.2) / 9.1)
        assert value == pytest.approx(1.6 / 9.1)

    def test_variation_vanishes_with_group_size(self):
        values = [lee_reduced_coefficient(m, 0.1, 0.2, 0.2)
                  for m in (10, 100, 1000)]
        gaps = np.abs(np.diff(values))
        assert gaps[1] < gaps[0]
        assert abs(values[-1] - 0.2) < abs(values[0] - 0.2)

    def test_singularity_and_domain(self):
        with pytest.raises(ZeroDivisionError):
            lee_reduced_coefficient(2, -1.0, 0.2, 0.2)
        with pytest.raises(ValueError):
            lee_reduced_coefficient(1, 0.0, 0.2, 0.2)


class TestReport:
    def test_complete_graph_report(self):
        net = lee_group_network([5, 5])
        report = build_report(net)
        assert report.verdict is Verdict.NOT_IDENTIFIED
        assert report.distinct_eigenvalue_count == 2
        assert report.rank_flag is None

    def test_identified_report_with_data(self):
        net = lee_group_network([4, 5, 6])
        rng = np.random.default_rng(5)
        X = rng.standard_normal((net.n, 1))
        report = build_report(net, X)
        assert report.verdict in (Verdict.IDENTIFIED, Verdict.WEAKLY_IDENTIFIED)
        assert report.rank_flag is True
        assert np.isfinite(report.stack_condition_number)

    def test_weak_threshold_flips_verdict(self):
        net = lee_group_network([4, 5, 6])
        rng = np.random.default_rng(5)
        X = rng.standard_normal((net.n, 1))
        strict = build_report(net, X, weak_threshold=1.0)
        assert strict.verdict is Verdict.WEAKLY_IDENTIFIED

    @pytest.mark.parametrize("threshold", [np.nan, -1.0])
    def test_nan_or_negative_weak_threshold_refused(self, threshold):
        # NaN would report Identified and -1 WeaklyIdentified
        net = cycle_network(7)
        X = np.random.default_rng(5).standard_normal((net.n, 1))
        with pytest.raises(ValueError, match="weak_threshold must be a nonnegative number"):
            build_report(net, X, weak_threshold=threshold)

    def test_two_clusters_force_not_identified_invariant(self):
        from sarnet.identification import IdentificationReport
        with pytest.raises(ValueError, match="NotIdentified"):
            IdentificationReport(
                distinct_eigenvalue_count=2,
                eigenvalue_clusters=((1.0, 1), (-1.0, 3)),
                stack_condition_number=None, rank_flag=None,
                verdict=Verdict.IDENTIFIED)

    def test_wide_stack_is_neither_built_nor_decomposed(self, monkeypatch):
        calls = {"svd": 0, "labelled_stack": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        monkeypatch.setattr(identification, "labelled_stack",
                            counting("labelled_stack", identification.labelled_stack))
        net = lee_group_network([4, 5, 6])     # four distinct eigenvalues
        X = np.random.default_rng(5).standard_normal((net.n, 1))
        wide = build_report(net, X, rho_zero=False)   # 15 x 26
        assert (wide.rank_flag, wide.stack_condition_number) == (False, np.inf)
        assert calls == {"svd": 0, "labelled_stack": 0}
        tall = build_report(net, X)                    # 15 x 4
        assert tall.rank_flag is True
        assert calls == {"svd": 1, "labelled_stack": 1}

    def test_report_lines_render(self):
        report = build_report(lee_group_network([5, 5]))
        text = "\n".join(report.lines())
        assert "verdict = NotIdentified" in text
        assert "distinct_eigenvalues = 2" in text
