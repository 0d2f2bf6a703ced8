import numpy as np
import pytest

from sarnet import identification
from sarnet.graphs import (GroupedNetwork, build_block_diagonal, lee_group_network,
                           row_normalize)
from sarnet.identification import (AsymmetricMatrixError, Verdict, build_report,
                                   distinct_eigenvalues, labelled_stack,
                                   lee_reduced_coefficient, proposition1_check,
                                   proposition2_rank_check)
from oracles import dense_W


def complete_graph(n):
    return np.ones((n, n)) - np.eye(n)


def path_graph(n):
    W = np.zeros((n, n))
    for i in range(n - 1):
        W[i, i + 1] = W[i + 1, i] = 1.0
    return W


def chorded_ring(n=7):
    """Symmetric ring with weight-2 chords at distance 3 (four eigenvalues)."""
    W = np.zeros((n, n))
    for i in range(n):
        W[i, (i + 1) % n] = W[(i + 1) % n, i] = 1.0
        W[i, (i + 3) % n] = W[(i + 3) % n, i] = 2.0
    return W


class TestDistinctEigenvalues:
    def test_complete_graph_has_two(self):
        count, clusters = distinct_eigenvalues(complete_graph(4))
        assert count == 2
        values = sorted(v for v, _ in clusters)
        np.testing.assert_allclose(values, [-1.0, 3.0], atol=1e-10)
        assert sorted(m for _, m in clusters) == [1, 3]

    def test_lee_groups_5_and_7(self):
        net = lee_group_network([5, 7])
        count, clusters = distinct_eigenvalues(dense_W(net))
        assert count == 3
        values = sorted(v for v, _ in clusters)
        np.testing.assert_allclose(values, [-0.25, -1.0 / 6.0, 1.0], atol=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_high_precision_oracle(self, seed):
        import mpmath
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((8, 8))
        W = (A + A.T) / 2
        count, _ = distinct_eigenvalues(W, tol=1e-8)
        # 50-digit eigenvalue oracle, clustered with the same rule
        mpmath.mp.dps = 50
        ev = mpmath.mp.eigsy(mpmath.mp.matrix(W.tolist()), eigvals_only=True)
        vals = sorted((float(v) for v in ev), reverse=True)
        scale = max(1.0, abs(vals[0]))
        oracle = 1
        for prev, cur in zip(vals, vals[1:]):
            if prev - cur > 1e-8 * scale:
                oracle += 1
        assert count == oracle

    def test_asymmetric_rejected_with_magnitude(self):
        W = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(AsymmetricMatrixError) as err:
            distinct_eigenvalues(W)
        assert err.value.max_asymmetry == pytest.approx(1.0)
        assert "1.000e+00" in str(err.value)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((7, 7))
        W = A + A.T
        perm = rng.permutation(7)
        c1, _ = distinct_eigenvalues(W)
        c2, _ = distinct_eigenvalues(W[np.ix_(perm, perm)])
        assert c1 == c2

    def test_block_diagonal_union_property(self):
        blocks = [complete_graph(4), path_graph(3)]
        W = build_block_diagonal(blocks)
        _, clusters = distinct_eigenvalues(W)
        whole = sorted(v for v, _ in clusters)
        per_block = set()
        for b in blocks:
            _, cl = distinct_eigenvalues(b)
            per_block.update(round(v, 9) for v, _ in cl)
        np.testing.assert_allclose(whole, sorted(per_block), atol=1e-8)

    def test_multiplicities_sum_to_n(self):
        net = lee_group_network([3, 4, 5])
        count, clusters = distinct_eigenvalues(dense_W(net))
        assert sum(m for _, m in clusters) == 12


class TestProposition1:
    @pytest.mark.parametrize("n", range(3, 21))
    def test_complete_graphs_not_identified(self, n):
        assert proposition1_check(complete_graph(n)) is Verdict.NOT_IDENTIFIED

    def test_equal_lee_groups_not_identified(self):
        net = lee_group_network([10, 10])
        assert proposition1_check(dense_W(net)) is Verdict.NOT_IDENTIFIED

    def test_path_graph_possibly_identified(self):
        W = path_graph(4)
        count, _ = distinct_eigenvalues(W)
        assert count == 4
        assert proposition1_check(W) is Verdict.POSSIBLY_IDENTIFIED


class TestProposition2:
    def test_complete_graph_stack_rank_deficient(self):
        rng = np.random.default_rng(0)
        W = complete_graph(6)
        x1, x2 = rng.standard_normal((2, 6))
        X = np.column_stack([x1, W @ x2])  # own plus contextual block
        full, cond = proposition2_rank_check(W, X)
        assert not full
        assert cond == np.inf

    def test_lee_three_sizes_full_rank(self):
        net = lee_group_network([4, 5, 6])
        rng = np.random.default_rng(1)
        X = rng.standard_normal((net.n, 1))
        full, cond = proposition2_rank_check(dense_W(net), X)
        assert full
        # rank oracle on the explicit stack
        count, _ = distinct_eigenvalues(dense_W(net))
        stack, _ = labelled_stack(dense_W(net).__matmul__, X, count - 1)
        assert np.linalg.matrix_rank(stack) == stack.shape[1]

    def test_scale_covariant_rank_flag(self):
        net = lee_group_network([4, 5, 6])
        rng = np.random.default_rng(2)
        X = rng.standard_normal((net.n, 2))
        full1, _ = proposition2_rank_check(dense_W(net), X)
        full2, _ = proposition2_rank_check(dense_W(net), 3.7 * X)
        assert full1 == full2

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
            stack, _ = labelled_stack(W.__matmul__, X, order)
            sv = np.linalg.svd(stack, compute_uv=False)
            conds.append((sv[0] / sv[-1]) ** 2)
        assert conds[0] < conds[1] < conds[2]

    def test_correlated_case_needs_m(self):
        net = lee_group_network([4, 5])
        with pytest.raises(ValueError, match="needs M"):
            proposition2_rank_check(dense_W(net), np.ones((9, 1)), rho_zero=False)

    def test_wide_stack_has_infinite_condition(self):
        # order 3, 2 covariates, 1 centrality column, M copy: 7 x 22 stack,
        # which can never have full column rank
        W = chorded_ring()
        X = np.random.default_rng(0).standard_normal((7, 2))
        M = row_normalize(W)
        assert proposition2_rank_check(W, X, rho_zero=False, M=M) == (False, np.inf)
        net = GroupedNetwork((7,), W, M, m_row_normalized=True)
        report = build_report(net, X, rho_zero=False)
        assert report.rank_flag is False
        assert report.stack_condition_number == np.inf
        assert "stack_condition_number = inf" in report.lines()

    def test_wide_stack_keeps_argument_checks(self):
        W = chorded_ring()
        with pytest.raises(ValueError, match="needs M"):
            proposition2_rank_check(W, np.ones((7, 2)), rho_zero=False)
        with pytest.raises(ValueError, match="at least one column"):
            proposition2_rank_check(W, np.ones((7, 0)), rho_zero=False,
                                    M=row_normalize(W))


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
