import concurrent.futures
import math
import tracemalloc

import numpy as np
import pytest

from sarnet import estimation, instruments, montecarlo, selection
from sarnet.estimation import (NumericalFailure, bias_corrected_2sls, classical_2sls,
                               first_stage, preliminary_delta, preliminary_rho,
                               regularized_2sls)
from sarnet.graphs import GroupedNetwork, generate_mc_network
from sarnet.montecarlo import (ESTIMATOR_LABELS, ESTIMATORS, McConfig,
                               ReplicationResult, run_replication, run_study,
                               summarize)
from sarnet.instruments import (InstrumentSet, build_instruments, normalize_columns,
                                q1_roster, q2_roster)
from sarnet.regularization import Spectrum


SMALL = dict(group_count=6, group_size=8, max_links=3, replications=4, seed=5)
#: (mean, SD) per (estimator, parameter) of a three-replication LOO study at
#: (60, 15, 6), seed 0
LOO_RECORDED = {
    ("2sls_finite", "lambda"): (0.10126198050987933, 0.03259386979612402),
    ("2sls_finite", "beta1"): (0.19766505946864818, 0.060122930543236405),
    ("2sls_finite", "beta2"): (0.21427166748534335, 0.045809525302683424),
    ("2sls_large", "lambda"): (0.08188365753337329, 0.02082115147192669),
    ("2sls_large", "beta1"): (0.19480115018860325, 0.06070534225800469),
    ("2sls_large", "beta2"): (0.21819963246429888, 0.041993521975510234),
    ("bias_corrected", "lambda"): (0.0973426127248554, 0.023576910263317825),
    ("bias_corrected", "beta1"): (0.19809150455404023, 0.06192857271139052),
    ("bias_corrected", "beta2"): (0.21422829538203825, 0.04184761034049853),
    ("t_2sls", "lambda"): (0.09423736390977396, 0.010737072626234224),
    ("t_2sls", "beta1"): (0.1838362704542478, 0.06646808721162478),
    ("t_2sls", "beta2"): (0.21366666876555596, 0.035758563377595386),
    ("lf_2sls", "lambda"): (0.09486811047462546, 0.01086002079521272),
    ("lf_2sls", "beta1"): (0.1834232767215553, 0.06661326738980683),
    ("lf_2sls", "beta2"): (0.21333713761482911, 0.03563673594056683),
    ("pc_2sls", "lambda"): (0.10486768092538368, 0.0176358941137464),
    ("pc_2sls", "beta1"): (0.19457768971190725, 0.05891605722992139),
    ("pc_2sls", "beta2"): (0.2111727485929729, 0.03468593556775489),
    ("2sls_finite", "rho"): (0.1719404493672878, 0.031193140770345427),
}
#: LOO criterion at the first, middle and last grid point of each kind, on
#: the normalized q2 of that study's first draw
LOO_CURVE_RECORDED = {
    "T": (1.8066049949678735, 1.80582796764294, 2.2239345776442514),
    "LF": (1.8994137123232027, 1.8273180447016648, 1.8066050061297556),
    "PC": (1.9422880702548657, 1.8647234950694778, 1.8066050061297558),
}


class TestRunReplication:
    def test_noise_free_draw_recovers_truth_everywhere(self):
        config = McConfig(**{**SMALL, "sigma_eps": 0.0})
        with pytest.warns(UserWarning, match="degenerate"):
            rep = run_replication(config, np.random.SeedSequence(3))
        for name in ESTIMATORS:
            np.testing.assert_allclose(rep.estimates[name], [0.1, 0.2, 0.2],
                                        atol=1e-6, err_msg=name)
        assert not rep.failures

    def test_fixed_seed_reproducible(self):
        config = McConfig(**SMALL)
        a = run_replication(config, np.random.SeedSequence(11))
        b = run_replication(config, np.random.SeedSequence(11))
        assert a.rho_tilde == b.rho_tilde
        for name in ESTIMATORS:
            np.testing.assert_array_equal(a.estimates[name], b.estimates[name])

    def test_benchmark_draw_is_sane(self):
        config = McConfig()
        rep = run_replication(config, np.random.SeedSequence(0))
        assert not rep.failures
        for name in ESTIMATORS:
            lam = rep.estimates[name][0]
            assert np.isfinite(lam) and -1.0 <= lam <= 1.0
        assert {"t_2sls", "lf_2sls", "pc_2sls"} == set(rep.alphas)

    def test_two_spectra_per_replication(self, monkeypatch):
        # q1 and the normalized q2 are each decomposed exactly once; the
        # large-iv and bias-corrected fits share the normalized spectrum
        calls = []
        original = Spectrum.from_instruments.__func__

        def counting(cls, *args, **kwargs):
            calls.append(1)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Spectrum, "from_instruments", classmethod(counting))
        config = McConfig(**SMALL)
        for rep in range(3):
            calls.clear()
            result = run_replication(config, np.random.SeedSequence(rep))
            assert not result.failures
            assert len(calls) == 2

    def test_one_first_stage_per_roster(self, monkeypatch):
        # q1's one stage is the preliminary fit's, whose delta_tilde is also
        # the finite-roster row; the normalized q2 gets one stage, and its
        # spectrum's coordinates are taken once for that stage and once by
        # the selection context for its target direction, whatever the
        # number of large-roster fits
        stages, rosters, coords = [], [], []
        first_stage, coords_of = montecarlo.first_stage, Spectrum.coords

        def counting_stage(data, net, inst, rho):
            stages.append(first_stage(data, net, inst, rho))
            return stages[-1]

        def recording(inst, mode):
            rosters.append(normalize_columns(inst, mode))
            return rosters[-1]

        def counting_coords(spectrum, x):
            coords.append(spectrum)
            return coords_of(spectrum, x)

        for module in (montecarlo, estimation):          # preliminary_delta's too
            monkeypatch.setattr(module, "first_stage", counting_stage)
        monkeypatch.setattr(montecarlo, "normalize_columns", recording)
        monkeypatch.setattr(Spectrum, "coords", counting_coords)
        config = McConfig(**{**SMALL, "criterion": "cp"})
        for rep in range(3):
            for calls in (stages, rosters, coords):
                calls.clear()
            result = run_replication(config, np.random.SeedSequence(rep))
            assert not result.failures
            [q2_norm] = rosters
            assert len(stages) == 2 and stages[1].instruments is q2_norm
            assert stages[0].instruments is not q2_norm and stages[0].rho_tilde == 0.0
            assert sum(s is stages[1].spectrum for s in coords) == 2

    def test_small_roster_is_built_once(self, monkeypatch):
        # q2_roster extends the q1 it is given instead of building its own
        calls = []
        original = instruments.q1_roster

        def counting(net, base):
            calls.append(1)
            return original(net, base)

        for module in (montecarlo, instruments):
            monkeypatch.setattr(module, "q1_roster", counting)
        result = run_replication(McConfig(**SMALL), np.random.SeedSequence(2))
        assert not result.failures
        assert len(calls) == 1

    def test_no_group_indicator_block_is_formed(self, monkeypatch):
        # the large roster scatters one J W 1 vector into its per-group
        # columns; the n x G indicator matrix is never built
        def refuse(net):
            raise AssertionError("group_ones called")

        monkeypatch.setattr(GroupedNetwork, "group_ones", refuse)
        result = run_replication(McConfig(**SMALL), np.random.SeedSequence(2))
        assert not result.failures

    @pytest.mark.parametrize("criterion", ["cp", "loo"])
    def test_psi_is_never_formed(self, monkeypatch, criterion):
        # at the G = 240 design every consumer works in the instrument
        # coordinates, the LOO leverages included (``weighted_diagonal``), and
        # a spectrum has no way to build psi = F C whole
        stages = []
        original = montecarlo.first_stage

        def recording(*args):
            stages.append(original(*args))
            return stages[-1]

        monkeypatch.setattr(montecarlo, "first_stage", recording)
        config = McConfig(group_count=240, group_size=15, max_links=6,
                          replications=1, seed=0, criterion=criterion)
        result = run_replication(config, np.random.SeedSequence(0).spawn(1)[0])
        assert not result.failures
        [stage] = stages                            # the normalized q2's
        spectrum = stage.spectrum
        assert spectrum.basis is not None           # the Gram route
        assert spectrum.cluster[1] > 0
        assert not hasattr(Spectrum, "vectors")

    def test_large_roster_path_stays_below_one_dense_roster(self):
        # at G = 480 the dense n x (c + G) roster alone is 28 MB; the layout
        # keeps q2 at n x (c + 1), and its Gram, spectrum, first stage and
        # bias trace work from that, so the whole path peaks below it
        config = McConfig(group_count=480, group_size=15, max_links=6,
                          replications=1, seed=0)
        net, data = montecarlo._draw_sample(config, np.random.SeedSequence(0).spawn(1)[0])
        q1 = q1_roster(net, data.regressors(net))
        delta_tilde = preliminary_delta(data, net, q1)
        tracemalloc.start()
        try:
            q2 = normalize_columns(q2_roster(net, q1), "unit-variance")
            stage = first_stage(data, net, q2, 0.0)
            fit = bias_corrected_2sls(stage, lambda_tilde=float(delta_tilde[0]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q2.n_columns > 480 and np.all(np.isfinite(fit.delta))
        assert peak < net.n * q2.n_columns * 8

    def test_finite_row_is_delta_tilde_by_default(self):
        # q1 is fitted once, at rho = 0, and that fit is both the
        # preliminary estimate and the finite-roster row
        config = McConfig(**SMALL)
        for rep in range(3):
            seed = np.random.SeedSequence(rep)
            net, data = montecarlo._draw_sample(config, seed)
            delta_tilde = preliminary_delta(data, net, q1_roster(net, data.regressors(net)))
            result = run_replication(config, seed)
            assert np.array_equal(result.estimates["2sls_finite"], delta_tilde[:3])

    def test_transform_with_rho_whitens_every_row_at_rho_tilde(self):
        # with the option on, the finite row gets its own q1 stage at
        # rho_tilde, and the five large-roster rows read one rho_tilde
        # stage of the normalized q2
        config = McConfig(**{**SMALL, "transform_with_rho": True})
        for rep in range(3):
            seed = np.random.SeedSequence(rep)
            result = run_replication(config, seed)
            net, data = montecarlo._draw_sample(config, seed)
            q1 = q1_roster(net, data.regressors(net))
            delta_tilde = preliminary_delta(data, net, q1)
            rho = preliminary_rho(data, net, delta_tilde)
            assert result.rho_tilde == rho and rho != 0.0 and not result.failures
            stage = first_stage(data, net, normalize_columns(q2_roster(net, q1),
                                                             "unit-variance"), rho)
            ctx = montecarlo.prepare_selection(stage, delta_tilde, config.criterion)
            want = {
                "2sls_finite": classical_2sls(first_stage(data, net, q1, rho)),
                "2sls_large": classical_2sls(stage),
                "bias_corrected": bias_corrected_2sls(
                    stage, lambda_tilde=float(delta_tilde[0])),
            }
            for name, kind in (("t_2sls", "T"), ("lf_2sls", "LF"), ("pc_2sls", "PC")):
                want[name] = regularized_2sls(
                    stage, montecarlo.select_from_context(ctx, kind).scheme)
                assert result.alphas[name] == want[name].scheme.alpha
            for name in ESTIMATORS:
                assert np.array_equal(result.estimates[name], want[name].delta[:3]), name

    def test_shared_rho_is_recorded(self):
        config = McConfig(**SMALL)
        rep = run_replication(config, np.random.SeedSequence(1))
        assert np.isfinite(rep.rho_tilde)
        assert -0.99 <= rep.rho_tilde <= 0.99


class TestFailureHandling:
    @pytest.mark.parametrize("target", ["preliminary_rho", "regularized_2sls",
                                        "prepare_selection"])
    def test_programming_error_propagates(self, monkeypatch, target):
        def broken(*args, **kwargs):
            raise TypeError("bug")
        monkeypatch.setattr(montecarlo, target, broken)
        with pytest.raises(TypeError, match="bug"):
            run_replication(McConfig(**SMALL), np.random.SeedSequence(1))

    def test_plain_value_error_propagates(self, monkeypatch):
        # a shape or broadcasting bug raises a plain ValueError: it is not a
        # numerically failed fit and must not turn into failure cells
        def misshapen(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")
        monkeypatch.setattr(montecarlo, "regularized_2sls", misshapen)
        with pytest.raises(ValueError, match="broadcast"):
            run_replication(McConfig(**SMALL), np.random.SeedSequence(1))

    def test_numerical_failure_becomes_failure_cell(self, monkeypatch):
        def empty(*args, **kwargs):
            raise NumericalFailure("instrument matrix has no nonzero spectrum")
        monkeypatch.setattr(montecarlo, "regularized_2sls", empty)
        rep = run_replication(McConfig(**SMALL), np.random.SeedSequence(1))
        assert rep.failures == {name: "instrument matrix has no nonzero spectrum"
                                for name in ("t_2sls", "lf_2sls", "pc_2sls")}
        assert np.all(np.isfinite(rep.estimates["bias_corrected"]))

    def test_numerical_sites_raise_numerical_failure(self):
        net = generate_mc_network(3, 4, 2, np.random.default_rng(0))
        with pytest.raises(NumericalFailure, match="numerically zero"):
            build_instruments(net, np.zeros((net.n, 1)), 1, include_bonacich=False)
        with pytest.warns(UserWarning, match="zero-variance"), \
                pytest.raises(NumericalFailure, match="zero variance"):
            normalize_columns(InstrumentSet(np.ones((5, 2)), ("a", "b")), "unit-variance")
        with pytest.raises(NumericalFailure, match="no nonzero spectrum"):
            Spectrum.from_instruments(InstrumentSet(np.zeros((5, 2)), ("a", "b")))

    def test_linalg_error_becomes_failure_cell(self, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular sandwich")
        monkeypatch.setattr(montecarlo, "bias_corrected_2sls", singular)
        rep = run_replication(McConfig(**SMALL), np.random.SeedSequence(1))
        assert rep.failures == {"bias_corrected": "singular sandwich"}
        assert np.all(np.isnan(rep.estimates["bias_corrected"]))
        assert np.all(np.isfinite(rep.estimates["2sls_large"]))

    def test_failed_large_roster_stage_fails_its_five_fits(self, monkeypatch):
        # the finite-roster row is delta_tilde, so the only stage the
        # replication builds itself is the large roster's
        calls = []

        def fails(*args):
            calls.append(1)
            raise np.linalg.LinAlgError("no spectrum")

        monkeypatch.setattr(montecarlo, "first_stage", fails)
        rep = run_replication(McConfig(**SMALL), np.random.SeedSequence(1))
        assert rep.failures == {name: "large-roster first stage failed: no spectrum"
                                for name in ESTIMATORS[1:]}
        assert np.all(np.isfinite(rep.estimates["2sls_finite"]))
        assert len(calls) == 1


    def test_singular_classical_system_fails_both_of_its_rows_alike(self, monkeypatch):
        # a large roster of one direction: the classical system is singular,
        # and the bias-corrected row, which starts from that fit, fails with
        # the large-iv row's message
        def one_direction(net, q1):
            col = q1.Q[:, 0]
            return InstrumentSet(np.column_stack([col, 2.0 * col]), ("a", "b"))

        monkeypatch.setattr(montecarlo, "q2_roster", one_direction)
        rep = run_replication(McConfig(**SMALL), np.random.SeedSequence(1))
        msg = rep.failures["2sls_large"]
        assert "regularized 2SLS normal equations is numerically singular" in msg
        assert rep.failures["bias_corrected"] == msg
        assert np.all(np.isnan(rep.estimates["bias_corrected"]))


class TestRunStudy:
    def test_study_matches_manual_loop(self):
        config = McConfig(**SMALL)
        study = run_study(config)
        seeds = np.random.SeedSequence(config.seed).spawn(config.replications)
        manual = [run_replication(config, s) for s in seeds]
        for got, expect in zip(study, manual):
            np.testing.assert_array_equal(got.estimates["t_2sls"],
                                          expect.estimates["t_2sls"])

    def test_loo_study_keeps_its_recorded_values(self):
        # no benchmark workload selects by LOO, so its rows are pinned here:
        # means and SDs recorded when the LOO criterion still scored its grid
        # one point at a time
        config = McConfig(group_count=60, group_size=15, max_links=6, replications=3,
                          seed=0, criterion="loo")
        summary = summarize(run_study(config), config)
        for cell, (mean, sd) in LOO_RECORDED.items():
            stats = summary.cell(*cell)
            assert (stats.mean, stats.sd) == pytest.approx((mean, sd), rel=1e-10), cell
        assert summary.cells.keys() == LOO_RECORDED.keys()
        # on these draws every data-driven row takes its grid's most damped
        # point, so the rows alone would not see LOO's values move: the first
        # draw's LOO curves are pinned at their first, middle and last points
        net, data = montecarlo._draw_sample(config, np.random.SeedSequence(0).spawn(1)[0])
        q1 = q1_roster(net, data.regressors(net))
        stage = first_stage(data, net, normalize_columns(q2_roster(net, q1), "unit-variance"), 0.0)
        ctx = selection.prepare_selection(stage, preliminary_delta(data, net, q1), "loo")
        for kind, recorded in LOO_CURVE_RECORDED.items():
            crit = [c for _, c, _ in selection.select_from_context(ctx, kind).curve]
            assert (crit[0], crit[len(crit) // 2], crit[-1]) == pytest.approx(recorded, rel=1e-10)

    def test_worker_split_is_seed_invariant(self):
        config = McConfig(**SMALL)
        seq = run_study(config, workers=1)
        par = run_study(config, workers=2)
        for a, b in zip(seq, par):
            for name in ESTIMATORS:
                np.testing.assert_array_equal(a.estimates[name], b.estimates[name])


class FakeExecutor:
    """Runs the tasks in this process; records the asked process count and chunk sizes."""

    started: list[int] = []
    chunksizes: list[int] = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        self.chunksizes.append(chunksize)
        return map(fn, iterable)


class TestWorkerCount:
    @pytest.mark.parametrize("workers,reps,started",
                             [(8, 3, [3]), (2, 3, [2]), (4, 1, []), (4, 5, [3])])
    def test_no_more_processes_than_replications(self, monkeypatch, workers, reps, started):
        monkeypatch.setattr(FakeExecutor, "started", [])
        monkeypatch.setattr(FakeExecutor, "chunksizes", [])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakeExecutor)
        config = McConfig(**{**SMALL, "replications": reps})
        results = run_study(config, workers=workers)
        assert FakeExecutor.started == started
        assert len(results) == reps
        for processes, chunksize in zip(FakeExecutor.started, FakeExecutor.chunksizes,
                                        strict=True):
            assert math.ceil(reps / chunksize) >= processes

    @pytest.mark.parametrize("workers", [0, -3])
    def test_nonpositive_worker_count_is_refused(self, monkeypatch, workers):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            run_study(McConfig(**SMALL), workers=workers)


def fake_results(values, rho=0.1):
    out = []
    for v in values:
        est = {name: np.array([v, 0.2, 0.2]) for name in ESTIMATORS}
        out.append(ReplicationResult(estimates=est, rho_tilde=rho))
    return out


class TestSummarize:
    def test_constant_estimates(self):
        config = McConfig(**SMALL)
        summ = summarize(fake_results([0.25, 0.25, 0.25]), config)
        cell = summ.cell("t_2sls", "lambda")
        assert cell.mean == pytest.approx(0.25)
        assert cell.sd == pytest.approx(0.0)
        assert cell.rmse == pytest.approx(abs(0.25 - config.lam))

    def test_rmse_identity(self):
        rng = np.random.default_rng(8)
        values = rng.normal(0.12, 0.05, size=40)
        config = McConfig(**SMALL)
        cell = summarize(fake_results(list(values)), config).cell("t_2sls", "lambda")
        R = len(values)
        recomposed = cell.sd ** 2 * (R - 1) / R + (cell.mean - config.lam) ** 2
        assert cell.rmse ** 2 == pytest.approx(recomposed, abs=1e-10)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(9)
        values = list(rng.normal(0.1, 0.2, size=25))
        config = McConfig(**SMALL)
        a = summarize(fake_results(values), config)
        b = summarize(fake_results(values[::-1]), config)
        for key, cell in a.cells.items():
            other = b.cells[key]
            assert cell.mean == pytest.approx(other.mean, abs=1e-12)
            assert cell.sd == pytest.approx(other.sd, abs=1e-12)

    def test_failures_become_missing_cells(self):
        config = McConfig(**SMALL)
        results = fake_results([0.1, 0.2, 0.3, 0.4])
        broken = {name: np.full(3, np.nan) for name in ESTIMATORS}
        results.append(ReplicationResult(estimates=broken, rho_tilde=np.nan,
                                         failures={n: "boom" for n in ESTIMATORS}))
        summ = summarize(results, config)
        cell = summ.cell("t_2sls", "lambda")
        assert cell.n_used == 4 and cell.n_failed == 1
        assert "failures" in summ.to_text()

    def test_sparse_cell_renders_dash(self):
        config = McConfig(**SMALL)
        results = fake_results([0.1])
        summ = summarize(results, config)
        assert summ.cell("t_2sls", "lambda").formatted() == "-"
        # the shared preliminary rho lands on the finite-roster row only
        assert ("2sls_large", "rho") not in summ.cells
        assert ("2sls_finite", "rho") in summ.cells

    def test_text_layout_mirrors_reference_rows(self):
        config = McConfig(**SMALL)
        text = summarize(fake_results([0.1, 0.2]), config).to_text()
        for label in ESTIMATOR_LABELS.values():
            assert label in text
        # rho appears only on the finite-roster row; the rest show "-"
        large_line = next(l for l in text.splitlines()
                          if l.startswith("2SLS (large iv)"))
        assert large_line.rstrip().endswith("-")

    def test_csv_layout(self):
        config = McConfig(**SMALL)
        csv = summarize(fake_results([0.1, 0.2, 0.3]), config).to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "estimator,parameter,mean,sd,rmse,n_used,n_failed"
        assert any(line.startswith("T-2SLS,lambda,") for line in lines)

    def test_lf_pc_agreement_reported(self):
        config = McConfig(**SMALL)
        summ = summarize(fake_results([0.1, 0.2]), config)
        assert summ.lf_pc_agreement == pytest.approx(1.0)
        assert "LF/PC agreement" in summ.to_text()


def test_unknown_criterion_rejected_at_construction():
    # the check prepare_selection makes, before any replication runs
    with pytest.raises(ValueError, match="one of cp, gcv, loo, got 'bogus'"):
        McConfig(criterion="bogus")


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(replications=0)
    with pytest.raises(ValueError):
        McConfig(group_size=5, max_links=5)
    # a row with max_links links has row sum max_links in the binary W
    with pytest.raises(ValueError, match=r"\|lam\| \* max_links = 1 >= 1"):
        McConfig(group_size=15, max_links=10)
    with pytest.raises(ValueError, match="max_links = 1.2 >= 1"):
        McConfig(group_size=15, max_links=4, lam=-0.3)
    assert McConfig(group_size=15, max_links=9).max_links == 9
    for empty in ({"group_count": 0}, {"group_count": -3}, {"group_size": 0, "max_links": 0}):
        with pytest.raises(ValueError, match="group_count and group_size must be >= 1"):
            McConfig(**empty)
    assert McConfig().truth("lambda") == 0.1
    assert McConfig().n == 300


def test_lapack_call_budget(monkeypatch):
    # the batched per-group LAPACK calls (a 3-D first argument) of one
    # replication: the reduced form's one solve with R S and the bias
    # trace's one D solve, which carries iota for the selection context;
    # J's bases take no SVD.  With transform_with_rho the D solve is at
    # (lambda_tilde, rho_tilde), one product solve while ||lambda W|| < 1
    calls = {"solve": [], "svd": 0}
    solve, svd = np.linalg.solve, np.linalg.svd

    def counting_solve(a, b, *args, **kwargs):
        if np.ndim(a) == 3:
            calls["solve"].append(np.shape(b)[-1])
        return solve(a, b, *args, **kwargs)

    def counting_svd(a, *args, **kwargs):
        calls["svd"] += np.ndim(a) == 3
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    seed = np.random.SeedSequence(0).spawn(1)[0]
    for criterion in ("cp", "loo"):
        for transform in (False, True):
            config = McConfig(group_count=30, group_size=10, max_links=3,
                              criterion=criterion, transform_with_rho=transform)
            calls.update(solve=[], svd=0)
            rep = run_replication(config, seed)
            assert rep.failures == {} and rep.rho_tilde != 0.0
            assert len(calls["solve"]) == 2 and calls["svd"] == 0, (criterion, transform)

    net, data = montecarlo._draw_sample(config, seed)
    q1 = q1_roster(net, data.regressors(net))
    delta_tilde = preliminary_delta(data, net, q1)
    assert abs(delta_tilde[0]) * net.stacks_W().row_sum_norm < 1.0   # the product regime
    rho_tilde = preliminary_rho(data, net, delta_tilde)
    stage = first_stage(data, net, normalize_columns(q2_roster(net, q1), "unit-variance"),
                        rho_tilde)
    calls.update(solve=[], svd=0)
    bias_corrected_2sls(stage, float(delta_tilde[0]))
    assert len(calls["solve"]) == 1
    calls.update(solve=[])
    selection.prepare_selection(stage, delta_tilde, "cp")
    assert calls["solve"] == []
    # without a bias fit, D is applied to iota alone
    fresh = first_stage(data, net, q1, rho_tilde)
    selection.select_alpha(fresh, "T", "cp", delta_tilde)
    assert calls["solve"] == [1] and calls["svd"] == 0


def test_bias_corrected_row_reuses_the_classical_fit(monkeypatch):
    # the 2-D solves of one replication: delta_tilde's fit, the classical
    # fit that the large-iv and bias-corrected rows share, the correction's
    # sandwich, the selection context's target direction and one per T/LF/PC
    # row, plus the finite row's own fit with transform_with_rho; a fit
    # takes one inverse, for its standard errors
    calls = {"solve": 0, "inv": 0}
    solve, inv = np.linalg.solve, np.linalg.inv

    def counting(name, fn):
        def wrapper(a, *args, **kwargs):
            calls[name] += np.ndim(a) == 2
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "solve", counting("solve", solve))
    monkeypatch.setattr(np.linalg, "inv", counting("inv", inv))
    seed = np.random.SeedSequence(0).spawn(1)[0]
    for transform in (False, True):
        config = McConfig(group_count=30, group_size=10, max_links=3,
                          transform_with_rho=transform)
        calls.update(solve=0, inv=0)
        rep = run_replication(config, seed)
        assert rep.failures == {}
        fits = 5 + transform
        assert calls == {"solve": fits + 2, "inv": fits}, transform
