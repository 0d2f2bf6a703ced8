import tracemalloc

import numpy as np
import pytest

from sarnet.graphs import generate_mc_network, lee_group_network
from sarnet.montecarlo import McConfig, _draw_sample
from sarnet.instruments import (InstrumentSet, build_instruments,
                                normalize_columns, q1_roster, q2_roster)
from sarnet.regularization import Spectrum
from conftest import draw_dataset
from oracles import dense_M, dense_W


@pytest.fixture
def net_and_x():
    net = generate_mc_network(4, 8, 3, seed=6)
    rng = np.random.default_rng(2)
    X = rng.standard_normal((net.n, 2))
    return net, X


class TestBuildInstruments:
    def test_order_one_plain(self, net_and_x):
        net, X = net_and_x
        inst = build_instruments(net, X, order=1, include_bonacich=False,
                                 include_M_lags=False)
        J = net.J
        expect = np.column_stack([J.apply(dense_W(net) @ X), J.apply(X)])
        np.testing.assert_allclose(inst.Q, expect, atol=1e-10)
        assert inst.labels == ("J.W^1.X[0]", "J.W^1.X[1]", "J.X[0]", "J.X[1]")

    def test_bonacich_adds_one_column_per_group_and_power(self, net_and_x):
        net, X = net_and_x
        plain = build_instruments(net, X, order=2, include_bonacich=False,
                                  include_M_lags=False)
        with_b = build_instruments(net, X, order=2, include_bonacich=True,
                                   include_M_lags=False)
        # some centrality columns may drop as numerically zero, never grow
        assert with_b.n_columns <= plain.n_columns + 2 * net.group_count
        assert any(".iota[" in lab for lab in with_b.labels)

    def test_m_lag_copy_doubles_columns(self, net_and_x):
        net, X = net_and_x
        plain = build_instruments(net, X, order=1, include_bonacich=False,
                                  include_M_lags=False)
        doubled = build_instruments(net, X, order=1, include_bonacich=False,
                                    include_M_lags=True)
        assert doubled.n_columns == 2 * plain.n_columns
        assert sum(lab.startswith("J.M.") for lab in doubled.labels) == plain.n_columns

    def test_projected_instruments_are_j_invariant(self, net_and_x):
        net, X = net_and_x
        inst = build_instruments(net, X, order=2)
        J = net.J
        np.testing.assert_allclose(J.apply(inst.Q), inst.Q, atol=1e-10)

    def test_constant_within_group_covariate_dropped_with_warning(self):
        net = generate_mc_network(3, 5, 2, seed=8)
        X = np.repeat(np.array([1.0, 2.0, 3.0]), 5)[:, None]  # group constants
        with pytest.warns(UserWarning, match="numerically zero"):
            inst = build_instruments(net, X, order=1, include_bonacich=True,
                                     include_M_lags=False)
        assert all("X[0]" not in lab or "W^" in lab for lab in inst.labels)


class TestNormalize:
    def test_unit_variance(self, net_and_x):
        net, X = net_and_x
        inst = build_instruments(net, X, order=1)
        out = normalize_columns(inst, "unit-variance")
        np.testing.assert_allclose(np.var(out.Q, axis=0, ddof=1), 1.0,
                                   atol=1e-10)

    def test_simple_column_scaled_to_unit_sd(self):
        inst = InstrumentSet(np.array([[1.0], [2.0], [3.0]]), ("c",))
        out = normalize_columns(inst, "unit-variance")
        assert np.std(out.Q[:, 0], ddof=1) == pytest.approx(1.0)

    def test_constant_column_dropped(self):
        Q = np.column_stack([np.full(6, 5.0), np.arange(6.0)])
        inst = InstrumentSet(Q, ("const", "ramp"))
        with pytest.warns(UserWarning, match="zero-variance"):
            out = normalize_columns(inst, "standardized")
        assert out.labels == ("ramp",)
        assert abs(out.Q[:, 0].mean()) < 1e-12

    def test_span_preserved(self, net_and_x):
        net, X = net_and_x
        inst = build_instruments(net, X, order=1, include_bonacich=False)
        out = normalize_columns(inst, "unit-variance")
        # projector comparison oracle
        P1 = inst.Q @ np.linalg.pinv(inst.Q)
        P2 = out.Q @ np.linalg.pinv(out.Q)
        assert np.abs(P1 - P2).max() < 1e-10

    def test_none_mode_is_identity(self, net_and_x):
        net, X = net_and_x
        inst = build_instruments(net, X, order=1)
        assert normalize_columns(inst, "none") is inst

    def test_labels_biject_with_columns(self, net_and_x):
        net, X = net_and_x
        inst = build_instruments(net, X, order=3)
        out = normalize_columns(inst, "unit-variance")
        assert len(out.labels) == out.Q.shape[1]
        assert len(set(out.labels)) == len(out.labels)


class TestRosters:
    def test_q1_columns_match_hand_built(self):
        net, data, _, _, _ = draw_dataset(seed=4, group_count=3, group_size=6,
                                          shared_x=False)
        X = data.regressors(net)
        J = net.J
        q1 = q1_roster(net, X)
        expect = np.column_stack([X, dense_W(net) @ X, dense_M(net) @ X, dense_M(net) @ dense_W(net) @ X])
        np.testing.assert_allclose(q1.Q, J.apply(expect), atol=1e-10)

    def test_q1_dedupes_shared_covariate(self):
        net, data, _, _, _ = draw_dataset(seed=4, group_count=3, group_size=6,
                                          shared_x=True)
        X = data.regressors(net)  # [x, Wx] with shared x
        q1 = q1_roster(net, X)
        # blocks [X, WX, MX, MWX] overlap in Wx and MWx
        assert q1.n_columns == 6

    def test_q2_adds_group_centrality_columns(self):
        net, data, _, _, _ = draw_dataset(seed=5, group_count=4, group_size=7)
        X = data.regressors(net)
        q1 = q1_roster(net, X)
        q2 = q2_roster(net, q1)
        added = q2.n_columns - q1.n_columns
        assert 0 < added <= net.group_count
        assert sum(lab.startswith("J.W.iota") for lab in q2.labels) == added

    def test_rosters_are_j_projected(self):
        net, data, _, _, _ = draw_dataset(seed=6)
        X = data.regressors(net)
        J = net.J
        q2 = q2_roster(net, q1_roster(net, X))
        np.testing.assert_allclose(J.apply(q2.Q), q2.Q, atol=1e-10)

    def test_q2_of_a_lee_network_adds_no_column(self):
        # W_r iota_r = iota_r (or 0 in a singleton), which J annihilates, so
        # every centrality column is numerically zero and dropped
        net = lee_group_network([4, 1, 6, 5])
        X = np.random.default_rng(0).standard_normal((net.n, 2))
        q1 = q1_roster(net, X)
        with pytest.warns(UserWarning) as caught:
            q2 = q2_roster(net, q1)
        assert q2.labels == q1.labels
        assert np.array_equal(q2.Q, q1.Q)
        assert [str(w.message) for w in caught] == [
            f"dropping numerically zero instrument column 'J.W.iota[{r}]'"
            for r in range(net.group_count)]

    def test_q2_allocates_little_beyond_the_roster(self):
        # the per-group columns are scattered from one n-vector; an n x G
        # temporary (indicator, its lag, its projection, a stacked copy)
        # would each be as large as the roster's centrality block
        config = McConfig(group_count=240, group_size=15, max_links=6,
                          replications=1, seed=0)
        net, data = _draw_sample(config, np.random.SeedSequence(0).spawn(1)[0])
        q1 = q1_roster(net, data.regressors(net))
        tracemalloc.start()
        try:
            q2 = q2_roster(net, q1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q2.n_columns > 240
        assert peak <= 1.25 * q2.Q.nbytes

    def test_normalize_allocates_little_beyond_the_result(self):
        # the column sums run over small transposed blocks and the quotient
        # goes into one output array; a whole transposed copy, np.std's
        # deviation temporary and a separate quotient would each be as
        # large as the roster
        config = McConfig(group_count=240, group_size=15, max_links=6,
                          replications=1, seed=0)
        net, data = _draw_sample(config, np.random.SeedSequence(0).spawn(1)[0])
        q2 = q2_roster(net, q1_roster(net, data.regressors(net)))
        tracemalloc.start()
        try:
            out = normalize_columns(q2, "unit-variance")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.n_columns == q2.n_columns > 240
        assert peak <= 1.3 * q2.Q.nbytes


def test_instrument_set_validation():
    with pytest.raises(ValueError, match="label"):
        InstrumentSet(np.ones((3, 2)), ("only-one",))
    with pytest.raises(ValueError, match="unknown normalization 'weird'"):
        normalize_columns(InstrumentSet(np.ones((3, 1)), ("a",)), "weird")


def test_spectrum_is_decomposed_once_and_cached(net_and_x):
    net, X = net_and_x
    inst = q2_roster(net, q1_roster(net, X))
    assert inst.spectrum is inst.spectrum
    direct = Spectrum.from_instruments(inst.Q)
    np.testing.assert_array_equal(inst.spectrum.eigenvalues, direct.eigenvalues)
    np.testing.assert_array_equal(inst.spectrum.vectors, direct.vectors)


@pytest.mark.parametrize("seed", [0, 1])
def test_roster_kept_whole_equals_the_copying_construction(seed):
    # when no column is dropped the roster is not copied on its way to the
    # normalized set; the values and the C layout, and so the Gram's bits,
    # must be those of copying it through a boolean index and compress
    config = McConfig(group_count=60, group_size=15, max_links=6, replications=1,
                      seed=seed)
    net, data = _draw_sample(config, np.random.SeedSequence(seed).spawn(1)[0])
    q1 = q1_roster(net, data.regressors(net))
    raw = q2_roster(net, q1)
    assert raw.n_columns == q1.n_columns + 60
    got = normalize_columns(raw, "unit-variance")

    keep = np.ones(raw.n_columns, dtype=bool)
    copied = raw.Q[:, keep]
    sd = np.std(np.ascontiguousarray(copied.T), axis=1, ddof=1)
    want = copied.compress(keep, axis=1) / sd[keep]
    assert got.Q.flags.c_contiguous and want.flags.c_contiguous
    assert np.array_equal(got.Q, want)
    assert np.array_equal(got.Q.T @ got.Q / got.n, want.T @ want / got.n)
