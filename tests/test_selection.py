import dataclasses

import numpy as np
import pytest

from sarnet import selection
from sarnet.estimation import preliminary_delta, preliminary_rho
from sarnet.instruments import InstrumentSet, normalize_columns, q1_roster, q2_roster
from sarnet.regularization import Scheme, Spectrum, projector_traces
from sarnet.selection import (SelectionContext, criterion_value,
                              curve_to_csv, default_grid, prepare_selection,
                              s_hat, select_alpha, select_from_context)
from conftest import draw_dataset
from oracles import dense_J, dense_M, dense_W, loo_refit, r_matrix, s_matrix


def make_context(seed=0, n=30, m=6, noise=1.0, signal=1.0, sigma2_eps=0.8,
                 bias_factor=0.5, criterion="cp", min_components=1):
    """Synthetic selection context with a controlled signal/noise split.

    The target direction w is a combination of an in-span component
    (projection of a random vector onto the instrument span) and white noise,
    so the first-stage fit quality is set directly by ``signal``/``noise``.
    """
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((n, m))
    spec = Spectrum.from_instruments(InstrumentSet(Q, tuple(f"c{i}" for i in range(m))))
    raw = rng.standard_normal(n)
    in_span = spec.vectors @ (spec.vectors.T @ raw)
    raw2 = rng.standard_normal(n)
    off_span = raw2 - spec.vectors @ (spec.vectors.T @ raw2)
    w = signal * in_span + noise * off_span
    coef = spec.vectors.T @ w
    resid = w - spec.vectors @ coef
    sigma2_v = float(resid @ resid) / n
    return SelectionContext(spectrum=spec, w=w, coef=coef,
                            sigma2_eps=sigma2_eps, sigma2_v=sigma2_v,
                            bias_factor=bias_factor, criterion=criterion,
                            min_components=min_components)


def pipeline_context(seed=50, criterion="cp", **kwargs):
    net, data, _, _, _ = draw_dataset(seed=seed, **kwargs)
    X = data.regressors(net)
    q1 = q1_roster(net, X)
    delta_t = preliminary_delta(data, net, q1)
    rho_t = preliminary_rho(data, net, delta_t)
    inst = normalize_columns(q2_roster(net, q1), "unit-variance")
    ctx = prepare_selection(data, net, inst, rho_t, delta_t, criterion=criterion)
    return net, data, inst, delta_t, rho_t, ctx


class TestCriterionValues:
    def test_vanishing_weights_collapse_cp_and_gcv(self):
        ctx = make_context(seed=1)
        heavy = Scheme.tikhonov(1e14 * ctx.spectrum.nu_max ** 2)
        vv = float(ctx.w @ ctx.w) / ctx.n
        cp = criterion_value(ctx, heavy)
        gcv = criterion_value(dataclasses.replace(ctx, criterion="gcv"), heavy)
        assert cp == pytest.approx(vv, rel=1e-10)
        assert gcv == pytest.approx(vv, rel=1e-10)

    def test_exact_fit_leaves_only_the_trace_penalty(self):
        # w inside the instrument span: residual is zero, Cp is the penalty
        ctx = make_context(seed=2, noise=0.0)
        full = Scheme.principal_components(ctx.spectrum.rank)
        ctx = dataclasses.replace(ctx, sigma2_v=0.3)
        cp = criterion_value(ctx, full)
        assert cp == pytest.approx(2 * 0.3 * ctx.spectrum.rank / ctx.n, abs=1e-12)

    def test_gcv_rejects_saturated_projector(self):
        ctx = make_context(seed=3, n=6, m=12, criterion="gcv")
        if ctx.spectrum.rank < 6:
            pytest.skip("fixture not saturated")
        with pytest.raises(ValueError, match="GCV undefined"):
            criterion_value(ctx, Scheme.principal_components(ctx.spectrum.rank))

    @pytest.mark.parametrize("kind,param", [("T", 0.05), ("LF", 16), ("PC", 3)])
    def test_loo_identity_matches_refit_oracle(self, kind, param):
        # n = 30 literal delete-one refits against the smoother identity
        ctx = make_context(seed=4, n=30, m=6, criterion="loo")
        if kind == "T":
            scheme = Scheme.tikhonov(param * ctx.spectrum.nu_max ** 2)
        elif kind == "LF":
            scheme = Scheme.landweber(param)
        else:
            scheme = Scheme.principal_components(param)
        identity = criterion_value(ctx, scheme)
        refit = loo_refit(ctx, scheme)
        assert identity == pytest.approx(refit, abs=1e-6)

    def test_loo_identity_matches_refit_on_pipeline_data(self):
        _, _, _, _, _, ctx = pipeline_context(seed=51, criterion="loo",
                                              group_count=3, group_size=10)
        scheme = Scheme.tikhonov(0.3 * ctx.spectrum.nu_max ** 2)
        identity = criterion_value(ctx, scheme)
        refit = loo_refit(ctx, scheme)
        assert identity == pytest.approx(refit, abs=1e-6)


class TestSHat:
    def test_bias_factor_is_mean_square_of_j_d_iota(self):
        # the target direction is the endogenous effect: the bias factor is
        # ||J D iota||^2 / n, D = R W S^{-1} R^{-1} at the preliminary estimates
        net, _, _, delta_t, rho_t, ctx = pipeline_context(seed=52)
        R = r_matrix(rho_t, dense_M(net))
        W = dense_W(net)
        D = R @ W @ np.linalg.inv(s_matrix(delta_t[0], W)) @ np.linalg.inv(R)
        t = dense_J(net) @ D @ np.ones(net.n)
        assert ctx.bias_factor == pytest.approx(t @ t / net.n, rel=1e-10)

    def test_vanishing_weights_leave_pure_fit_term(self):
        ctx = make_context(seed=5)
        heavy = Scheme.tikhonov(1e14 * ctx.spectrum.nu_max ** 2)
        vv = float(ctx.w @ ctx.w) / ctx.n
        assert s_hat(ctx, heavy) == pytest.approx(ctx.sigma2_eps * vv, rel=1e-9)

    def test_matches_hand_assembled_formula(self):
        ctx = make_context(seed=6)
        scheme = Scheme.landweber(8)
        tr_P, tr_P2 = projector_traces(ctx.spectrum, scheme)
        fit = criterion_value(ctx, scheme)
        expect = ctx.sigma2_eps * (fit - ctx.sigma2_v * tr_P2 / ctx.n
                                   + ctx.sigma2_eps * tr_P ** 2
                                   * ctx.bias_factor / ctx.n)
        assert s_hat(ctx, scheme) == pytest.approx(expect, rel=1e-12)


class TestSelect:
    def test_noiseless_fixture_picks_lightest_damping(self):
        # feed-forward network, no noise: the optimal instrument is spanned
        # exactly, the curve is pure fit, and the lightest damping wins
        from sarnet.instruments import build_instruments
        from conftest import nilpotent_dataset

        net, data = nilpotent_dataset(seed=53)
        X = data.regressors(net)
        q1 = q1_roster(net, X)
        delta_t = preliminary_delta(data, net, q1)
        rho_t = preliminary_rho(data, net, delta_t)
        inst = normalize_columns(build_instruments(net, X, order=3),
                                 "unit-variance")
        ctx = prepare_selection(data, net, inst, rho_t, delta_t, "cp")
        assert ctx.sigma2_eps < 1e-12
        result = select_from_context(ctx, "T")
        grid = default_grid("T", ctx.spectrum, ctx.min_components)
        assert result.scheme.alpha == pytest.approx(grid[0])
        pc = select_from_context(ctx, "PC")
        assert pc.scheme.steps == ctx.spectrum.rank

    def test_pure_noise_fixture_picks_heaviest_damping(self):
        # no in-span signal at all: only the penalty terms vary
        ctx = make_context(seed=7, signal=0.0, noise=1.0, bias_factor=2.0,
                           min_components=1)
        for kind in ("T", "PC", "LF"):
            result = select_from_context(ctx, kind)
            grid = default_grid(kind, ctx.spectrum, ctx.min_components)
            if kind == "T":
                assert result.scheme.alpha == pytest.approx(grid[-1])
            else:
                assert result.scheme.steps == int(grid[0])

    def test_curve_is_finite_and_in_grid_order(self):
        _, _, _, _, _, ctx = pipeline_context(seed=54)
        result = select_from_context(ctx, "T")
        curve = np.asarray(result.curve)
        assert curve.shape[1] == 3
        assert np.all(np.isfinite(curve))
        np.testing.assert_allclose(
            curve[:, 0], default_grid("T", ctx.spectrum, ctx.min_components), rtol=1e-12)

    @pytest.mark.parametrize("criterion", ["cp", "gcv", "loo"])
    @pytest.mark.parametrize("kind", ["T", "LF", "PC"])
    def test_curve_is_per_point_values_scored_in_one_pass(self, monkeypatch,
                                                           kind, criterion):
        calls = []
        original = selection._score_grid

        def counted(ctx, kind, grid):
            calls.append(len(grid))
            return original(ctx, kind, grid)

        monkeypatch.setattr(selection, "_score_grid", counted)
        ctx = make_context(seed=7, criterion=criterion)
        result = select_from_context(ctx, kind)
        # the whole grid in one call: no grid point is scored twice
        assert calls == [len(result.curve)] and len(result.curve) > 1
        grid = default_grid(kind, ctx.spectrum, ctx.min_components)
        for (_, crit, value), g in zip(result.curve, grid):
            scheme = (Scheme.tikhonov(g) if kind == "T"
                      else Scheme(kind, 1.0 / round(g)))
            assert crit == pytest.approx(criterion_value(ctx, scheme), rel=1e-12)
            assert value == pytest.approx(s_hat(ctx, scheme), rel=1e-12)

    def test_deterministic(self):
        net, data, inst, delta_t, rho_t, _ = pipeline_context(seed=55)
        r1 = select_alpha(data, net, inst, "PC", "cp", rho_tilde=rho_t,
                          delta_tilde=delta_t)
        r2 = select_alpha(data, net, inst, "PC", "cp", rho_tilde=rho_t,
                          delta_tilde=delta_t)
        assert r1.alpha_star == r2.alpha_star
        assert r1.curve == r2.curve

    def test_tie_breaks_toward_more_regularization(self):
        ctx = make_context(seed=8)
        flat = dataclasses.replace(ctx, w=np.zeros(ctx.n),
                                   coef=np.zeros(ctx.spectrum.rank),
                                   sigma2_v=0.0, sigma2_eps=0.0)
        # S_hat is identically zero: the most regularized grid point wins
        t = select_from_context(flat, "T")
        heaviest = default_grid("T", ctx.spectrum, ctx.min_components)[-1]
        assert t.scheme.alpha == pytest.approx(heaviest)
        pc = select_from_context(flat, "PC")
        assert pc.scheme.steps == 1

    def test_criteria_argmins_agree_within_one_step(self):
        # moderate-noise fixture: all three plug-ins land on neighboring
        # Tikhonov grid points (checked, not assumed)
        argmins = {}
        for crit in ("cp", "gcv", "loo"):
            _, _, _, _, _, ctx = pipeline_context(seed=56, criterion=crit,
                                                  group_count=8, group_size=10)
            result = select_from_context(ctx, "T")
            grid = list(default_grid("T", ctx.spectrum, ctx.min_components))
            argmins[crit] = min(range(len(grid)),
                                key=lambda i: abs(grid[i] - result.scheme.alpha))
        values = sorted(argmins.values())
        assert values[-1] - values[0] <= 1, argmins

    def test_cp_and_gcv_agree_when_trace_is_small(self):
        _, _, _, _, _, ctx = pipeline_context(seed=57, group_count=12,
                                              group_size=10)
        gcv_ctx = dataclasses.replace(ctx, criterion="gcv")
        for alpha in default_grid("T", ctx.spectrum, ctx.min_components):
            scheme = Scheme.tikhonov(alpha)
            tr_P, _ = projector_traces(ctx.spectrum, scheme)
            if tr_P / ctx.n < 0.05:
                cp = criterion_value(ctx, scheme)
                gcv = criterion_value(gcv_ctx, scheme)
                assert abs(cp - gcv) < 0.1 * cp

    def test_variance_proxy_monotone_in_regularization(self):
        ctx = make_context(seed=9)
        tr_t = [projector_traces(ctx.spectrum, Scheme.tikhonov(a))[0]
                for a in default_grid("T", ctx.spectrum, ctx.min_components)]
        assert np.all(np.diff(tr_t) <= 1e-12)  # alpha up, trace down
        tr_pc = [projector_traces(ctx.spectrum, Scheme.principal_components(k))[0]
                 for k in range(1, ctx.spectrum.rank + 1)]
        assert np.all(np.diff(tr_pc) > 0)
        tr_lf = [projector_traces(ctx.spectrum, Scheme.landweber(t))[0]
                 for t in (1, 2, 4, 8, 16)]
        assert np.all(np.diff(tr_lf) > 0)

    def test_all_nan_curve_rejected(self):
        ctx = make_context(seed=10)
        broken = dataclasses.replace(ctx, w=np.full(ctx.n, np.nan),
                                     coef=np.full(ctx.spectrum.rank, np.nan))
        with pytest.raises(ValueError, match="no finite values"):
            select_from_context(broken, "T")


class TestConfigAndExport:
    def test_config_validation(self):
        net, data, inst, delta_t, rho_t, _ = pipeline_context(seed=58)
        with pytest.raises(ValueError, match="one of cp, gcv, loo, got 'aic'"):
            prepare_selection(data, net, inst, rho_t, delta_t, criterion="aic")

    def test_curve_csv_export(self):
        _, _, _, _, _, ctx = pipeline_context(seed=58)
        result = select_from_context(ctx, "PC")
        lines = curve_to_csv(result).strip().splitlines()
        assert lines[0] == "alpha,criterion,S_hat"
        assert len(lines) == len(result.curve) + 1
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == pytest.approx(result.curve[0][0], rel=1e-5)

    @pytest.mark.parametrize("kind", ["LF", "PC"])
    def test_search_runs_over_default_grid(self, kind):
        # PC starts at the second stage's width: fewer components cannot fit it
        ctx = make_context(seed=11, n=40, m=8, min_components=3)
        result = select_from_context(ctx, kind)
        grid = default_grid(kind, ctx.spectrum, 3)
        np.testing.assert_array_equal(np.asarray(result.curve)[:, 0], 1.0 / grid)
        assert result.scheme.steps in grid
