import math

import numpy as np
import pytest

from sarnet import instruments, montecarlo
from sarnet.graphs import GroupedNetwork
from sarnet.montecarlo import (ESTIMATOR_LABELS, ESTIMATORS, McConfig,
                               ReplicationResult, run_replication, run_study,
                               summarize)
from sarnet.instruments import normalize_columns
from sarnet.regularization import Spectrum


SMALL = dict(group_count=6, group_size=8, max_links=3, replications=4, seed=5)


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
        assert {"t_2sls", "lf_2sls", "pc_2sls"} <= set(rep.alphas)

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
        # q1 and the normalized q2 each get one stage; the q2 spectrum's
        # coordinates are taken once for that stage and twice by the
        # selection context, whatever the number of large-roster fits
        stages, rosters, coords = [], [], []
        first_stage, coords_of = montecarlo.first_stage, Spectrum.coords

        def counting_stage(data, net, inst, rho):
            stages.append(inst)
            return first_stage(data, net, inst, rho)

        def recording(inst, mode):
            rosters.append(normalize_columns(inst, mode))
            return rosters[-1]

        def counting_coords(spectrum, x):
            coords.append(spectrum)
            return coords_of(spectrum, x)

        monkeypatch.setattr(montecarlo, "first_stage", counting_stage)
        monkeypatch.setattr(montecarlo, "normalize_columns", recording)
        monkeypatch.setattr(Spectrum, "coords", counting_coords)
        config = McConfig(**{**SMALL, "criterion": "cp"})
        for rep in range(3):
            for calls in (stages, rosters, coords):
                calls.clear()
            result = run_replication(config, np.random.SeedSequence(rep))
            assert not result.failures
            [q2_norm] = rosters
            assert len(stages) == 2 and stages[1] is q2_norm
            assert sum(s is q2_norm.spectrum for s in coords) == 3

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

    @pytest.mark.parametrize("criterion,formed", [("cp", False), ("loo", True)])
    def test_psi_is_formed_only_for_loo(self, monkeypatch, criterion, formed):
        # at the G = 240 design every consumer but the LOO leverages works in
        # the instrument coordinates, so psi = Q Phi / sqrt(n nu) is never built
        rosters = []

        def recording(inst, mode):
            rosters.append(normalize_columns(inst, mode))
            return rosters[-1]

        monkeypatch.setattr(montecarlo, "normalize_columns", recording)
        config = McConfig(group_count=240, group_size=15, max_links=6,
                          replications=1, seed=0, criterion=criterion)
        result = run_replication(config, np.random.SeedSequence(0).spawn(1)[0])
        assert not result.failures
        [q2_norm] = rosters
        spectrum = q2_norm.spectrum
        assert spectrum.basis is not None           # the Gram route
        assert ("vectors" in spectrum.__dict__) == formed

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

    def test_linalg_error_becomes_failure_cell(self, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular sandwich")
        monkeypatch.setattr(montecarlo, "bias_corrected_2sls", singular)
        rep = run_replication(McConfig(**SMALL), np.random.SeedSequence(1))
        assert rep.failures == {"bias_corrected": "singular sandwich"}
        assert np.all(np.isnan(rep.estimates["bias_corrected"]))
        assert np.all(np.isfinite(rep.estimates["2sls_large"]))

    def test_failed_large_roster_stage_fails_its_five_fits(self, monkeypatch):
        calls = []
        original = montecarlo.first_stage

        def second_fails(*args):
            calls.append(1)
            if len(calls) == 2:                   # q1's stage comes first
                raise np.linalg.LinAlgError("no spectrum")
            return original(*args)

        monkeypatch.setattr(montecarlo, "first_stage", second_fails)
        rep = run_replication(McConfig(**SMALL), np.random.SeedSequence(1))
        assert rep.failures == {name: "large-roster first stage failed: no spectrum"
                                for name in ESTIMATORS[1:]}
        assert np.all(np.isfinite(rep.estimates["2sls_finite"]))
        assert len(calls) == 2


class TestRunStudy:
    def test_study_matches_manual_loop(self):
        config = McConfig(**SMALL)
        study = run_study(config)
        seeds = np.random.SeedSequence(config.seed).spawn(config.replications)
        manual = [run_replication(config, s) for s in seeds]
        for got, expect in zip(study, manual):
            np.testing.assert_array_equal(got.estimates["t_2sls"],
                                          expect.estimates["t_2sls"])

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
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", FakeExecutor)
        config = McConfig(**{**SMALL, "replications": reps})
        results = run_study(config, workers=workers)
        assert FakeExecutor.started == started
        assert len(results) == reps
        for processes, chunksize in zip(FakeExecutor.started, FakeExecutor.chunksizes,
                                        strict=True):
            assert math.ceil(reps / chunksize) >= processes

    @pytest.mark.parametrize("workers", [0, -3])
    def test_nonpositive_worker_count_is_refused(self, monkeypatch, workers):
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", None)
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
    for empty in ({"group_count": 0}, {"group_count": -3}, {"group_size": 0, "max_links": 0}):
        with pytest.raises(ValueError, match="group_count and group_size must be >= 1"):
            McConfig(**empty)
    assert McConfig().truth("lambda") == 0.1
    assert McConfig().n == 300
