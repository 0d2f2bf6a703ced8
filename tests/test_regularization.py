import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from sarnet.estimation import preliminary_delta
from sarnet.graphs import generate_mc_network
from sarnet.instruments import (InstrumentSet, build_instruments, normalize_columns, q1_roster,
                                q2_roster)
from sarnet.montecarlo import McConfig, _draw_sample
from sarnet.regularization import (EIGENVALUE_CUTOFF, LF_STEP, Scheme, Spectrum,
                                   apply_projector,
                                   projector_traces, q_weights)
from sarnet.selection import default_grid
from sarnet.transforms import assemble_z
import oracles
from oracles import arrowhead_matrix, projector_diagonal, projector_matrix


def random_instruments(seed, n=40, m=6):
    rng = np.random.default_rng(seed)
    return InstrumentSet(rng.standard_normal((n, m)),
                         tuple(f"c{i}" for i in range(m)))


@pytest.fixture
def spectrum():
    return Spectrum.from_instruments(random_instruments(0))


class TestSpectrum:
    @pytest.mark.parametrize("n,m", [(40, 6), (30, 12)])
    def test_orthonormal_and_reconstructs(self, n, m):
        # a bare matrix takes the block route, below n/4 columns (m=6) or not
        inst = random_instruments(3, n=n, m=m)
        spec = Spectrum.from_instruments(inst)
        r = spec.rank
        psi = oracles.psi(spec)
        gram = psi.T @ psi
        assert np.abs(gram - np.eye(r)).max() < 1e-8
        G = inst.Q @ inst.Q.T / n
        approx = (psi * spec.eigenvalues) @ psi.T
        assert np.abs(G - approx).max() < 1e-8 * spec.nu_max

    def test_routes_agree(self):
        # the unit-variance q2 takes the Gram route, its written-out F as a
        # bare matrix the block route; same nonzero eigenvalues either way
        inst = route_roster("q2")
        gram = Spectrum.from_instruments(inst)
        block = Spectrum.from_instruments(inst.dense())
        assert gram.basis is not None and block.basis is None
        np.testing.assert_allclose(gram.eigenvalues, block.eigenvalues, rtol=0.0,
                                   atol=1e-13 * block.nu_max)

    def test_rank_deficient_columns_are_cut(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((20, 3))
        Q = np.column_stack([A, A[:, 0] + A[:, 1]])  # dependent 4th column
        spec = Spectrum.from_instruments(InstrumentSet(Q, tuple("abcd")))
        assert spec.rank == 3

    def test_condition_number(self, spectrum):
        assert spectrum.condition_number == pytest.approx(
            spectrum.eigenvalues[0] / spectrum.eigenvalues[-1])


@pytest.mark.parametrize("groups,clustered", [(240, 233), (60, 53)])
def test_gram_route_decomposes_the_layout_gram(groups, clustered):
    """The normalized large roster's spectrum is that of its layout's Gram.

    K = F'F/n is the arrowhead [[A, B'], [B, d I]] of the layout's blocks,
    equal to the Gram of the written-out roster to rounding.  Each
    unit-variance per-group column has sum of squares n - 1 and its own
    rows, so d = (n - 1)/n, an eigenvalue of multiplicity G - r with r the
    rank of the border B.  The spectrum holds that cluster exactly, as
    ``clustered`` + 1 equal values: on the first draw of seed 0 at
    G = 240, 233 of the 245 adjacent gaps of dense ``eigh`` of K are below
    1e-10 relative.  Every eigenvalue agrees with dense ``eigh`` within
    rounding, psi = F C is formed only on request and spans the same
    space, and no PC count of ``default_grid`` falls inside the cluster.
    """
    config = McConfig(group_count=groups, group_size=15, max_links=6,
                      replications=1, seed=0)
    net, data = _draw_sample(config, np.random.SeedSequence(0).spawn(1)[0])
    inst = normalize_columns(q2_roster(net, q1_roster(net, data.regressors(net))),
                             "unit-variance")
    spec = Spectrum.from_instruments(inst)
    n, F = inst.n, inst.dense()
    head, border, _, diagonal = inst.arrowhead()
    K = arrowhead_matrix(head, border, border, diagonal) / n
    assert np.abs(K - F.T @ F / n).max() <= 1e-14
    vals, vecs = np.linalg.eigh(K)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    keep = vals > EIGENVALUE_CUTOFF * vals[0]
    vals, vecs = vals[keep], vecs[:, keep]
    assert spec.factor is inst                        # the set itself, not a copy
    assert spec.rank == vals.size
    np.testing.assert_allclose(spec.eigenvalues, vals, rtol=0.0, atol=1e-14 * vals[0])
    assert np.sum(-np.diff(vals) / vals[:-1] < 1e-10) == clustered
    value, size = spec.cluster
    assert size == diagonal.size - np.linalg.matrix_rank(border) == clustered + 1
    assert value == pytest.approx((n - 1) / n, rel=1e-15)
    start = spec.cluster_start
    assert np.all(spec.eigenvalues[start:start + size] == value)
    gaps = -np.diff(spec.eigenvalues) / spec.eigenvalues[:-1] < 1e-10
    assert np.sum(gaps) == clustered
    psi = oracles.psi(spec)
    np.testing.assert_allclose(psi.T @ psi, np.eye(spec.rank), rtol=0.0, atol=1e-13)
    dense_psi = (F @ vecs) / np.sqrt(n * vals)
    x = np.random.default_rng(groups).standard_normal((n, 3))
    np.testing.assert_allclose(psi @ (psi.T @ x), dense_psi @ (dense_psi.T @ x),
                               rtol=0.0, atol=1e-12)
    counts = default_grid("PC", spec, 3).astype(int)
    assert not np.any(gaps[counts[counts < spec.rank] - 1])


def test_the_cluster_carries_one_weight():
    # the cluster is one eigenvalue whose eigenvector basis is arbitrary:
    # weights constant on it (counts ending on its boundaries) give one
    # leverage column per grid row, equal to the one-row calls, while a
    # count ending inside it has no basis-free leverages or bias trace
    config = McConfig(group_count=60, group_size=15, max_links=6, replications=1, seed=0)
    net, data = _draw_sample(config, np.random.SeedSequence(0).spawn(1)[0])
    inst = normalize_columns(q2_roster(net, q1_roster(net, data.regressors(net))),
                             "unit-variance")
    spec = Spectrum.from_instruments(inst)
    start, size = spec.cluster_start, spec.cluster[1]
    assert start > 0 and size > 1
    q = np.array([q_weights(scheme, spec) for scheme in (
        Scheme.principal_components(start), Scheme.principal_components(start + size),
        Scheme.tikhonov(0.5), Scheme.landweber(8))])
    got = spec.weighted_diagonal(q)
    assert got.shape == (inst.n, q.shape[0])
    for column, row in zip(got.T, q):
        np.testing.assert_allclose(column, spec.weighted_diagonal(row), rtol=1e-12, atol=0.0)
    inside = q_weights(Scheme.principal_components(start + 1), spec)
    for call in (lambda: spec.weighted_diagonal(inside),
                 lambda: spec.weighted_diagonal(np.vstack([q, inside])),
                 lambda: spec.weighted_trace(inside, lambda V: V)):
        with pytest.raises(ValueError, match="constant on the eigenvalue cluster"):
            call()


def route_roster(roster):
    """One roster of the route rule's table on a (20, 15, 6) draw."""
    config = McConfig(group_count=20, group_size=15, max_links=6, replications=1, seed=0)
    net, data = _draw_sample(config, np.random.SeedSequence(0).spawn(1)[0])
    X = data.regressors(net)
    if roster == "bare 40 x 2":
        return np.random.default_rng(0).standard_normal((40, 2))
    if roster.startswith("order"):
        inst = build_instruments(net, X, int(roster[-1]), include_M_lags=False)
        return normalize_columns(inst, "unit-variance")
    inst = q1_roster(net, X)
    if roster == "q1":
        return inst
    return normalize_columns(q2_roster(net, inst),
                             "none" if roster.startswith("unnormalized") else "unit-variance")


@pytest.mark.parametrize("roster,gram", [
    ("q1", False), ("bare 40 x 2", False), ("unnormalized q2", False), ("order 2", False),
    ("q2", True), ("order 1", True)])
def test_route_rule(roster, gram):
    # the Gram route takes only a roster the arrowhead deflation fits: one
    # per-group power, fewer than n/4 columns and per-group squared norms
    # that agree (unit variance).  Every other roster, without a per-group
    # part, unnormalized or of two powers, takes the block route.  Either
    # way the spectrum is that of the written-out F F'/n to a multiple of
    # eps times its condition number
    inst = route_roster(roster)
    spec = Spectrum.from_instruments(inst)
    if not isinstance(inst, InstrumentSet):
        inst = InstrumentSet(inst, ("a", "b"))
    assert inst.n_columns < inst.n / 4
    assert (spec.basis is not None) == gram
    assert spec.cluster[1] > 0 if gram else spec.cluster == (0.0, 0)
    oracle = oracles.spectrum_dense(inst)
    tol = 1e-13 * oracle.condition_number
    assert spec.rank == oracle.rank
    np.testing.assert_allclose(spec.eigenvalues, oracle.eigenvalues, rtol=0.0,
                               atol=tol * oracle.nu_max)
    x = np.random.default_rng(1).standard_normal((inst.n, 3))
    psi = oracles.psi(oracle)
    np.testing.assert_allclose(spec.expand(spec.coords(x)), psi @ (psi.T @ x), rtol=0.0,
                               atol=tol * np.abs(x).max())


def spying_svd(monkeypatch) -> list[tuple[int, ...]]:
    """The shape of every matrix ``numpy.linalg.svd`` decomposes from now on,
    ``numpy.linalg.norm``'s own calls included."""
    shapes, svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    monkeypatch.setattr(np.linalg._linalg, "svd", spy)
    return shapes


def test_roster_without_a_per_group_part_is_one_svd(monkeypatch):
    # q1's columns need one thin SVD of Q; sigma_max(Q) in the rank
    # tolerance is bounded by Q's Frobenius norm, not found by a second SVD
    inst = route_roster("q1")
    shapes = spying_svd(monkeypatch)
    Spectrum.from_instruments(inst)
    assert shapes == [inst.Q.shape]


def test_ill_conditioned_q1_fits_to_eps_cond_q():
    # a q1 whose last column is its first plus 1e-5 of noise: cond(Q) is
    # about 5e5, so a fit from the eigenpairs of Q'Q (eps cond(Q)^2 = 6e-5)
    # would miss the QR-based lstsq 2SLS by about 1e-7, and one from Q's
    # SVD (eps cond(Q) = 1e-10) by far less.  Below cond(Q) = 1e6, so no
    # singular value falls under the spectrum's cutoff
    for seed in range(3):
        config = McConfig(group_count=60, group_size=15, max_links=6, replications=1,
                          seed=seed)
        net, data = _draw_sample(config, np.random.SeedSequence(seed).spawn(1)[0])
        q1 = q1_roster(net, data.regressors(net))
        noise = net.J.apply(np.random.default_rng(seed).standard_normal(net.n))
        Q = q1.Q.copy()
        Q[:, -1] = Q[:, 0] + 1e-5 * noise * np.linalg.norm(Q[:, 0]) / np.linalg.norm(noise)
        sv = np.linalg.svd(Q, compute_uv=False)
        assert 1e5 < sv[0] / sv[-1] < 1e6
        got = preliminary_delta(data, net, InstrumentSet(Q, q1.labels))
        Z = assemble_z(data, net)
        want = np.linalg.lstsq(Q @ np.linalg.lstsq(Q, Z, rcond=None)[0], data.y, rcond=None)[0]
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_large_roster_spectrum_forms_no_gram_sized_array():
    # 960 groups of 5 keep the unit-variance q2 on the Gram route (fewer
    # than n/4 columns), where one (c + G)^2 array is 6.2 MB; the spectrum
    # decomposes the (c + r)^2 core and holds the cluster's eigenvectors
    # as r reflectors, so its peak stays a fraction of that
    config = McConfig(group_count=960, group_size=5, max_links=3, replications=1, seed=0)
    net, data = _draw_sample(config, np.random.SeedSequence(0).spawn(1)[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")            # groups without links drop their column
        inst = normalize_columns(q2_roster(net, q1_roster(net, data.regressors(net))),
                                 "unit-variance")
    assert inst.n_columns > 800 and inst.n_columns < inst.n / 4
    tracemalloc.start()
    try:
        spec = Spectrum.from_instruments(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < inst.n_columns ** 2 * 8 / 4
    assert spec.cluster[1] > 800


def spying_eigh(monkeypatch) -> list[int]:
    """The order of every matrix ``numpy.linalg.eigh`` decomposes from now on."""
    orders, eigh = [], np.linalg.eigh

    def spy(a, *args, **kwargs):
        orders.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return orders


@pytest.mark.parametrize("offset", [0.0, 1e-10, 1e-4])
def test_block_route_rank_and_condition_match_the_svd(offset, monkeypatch):
    # global columns at ``offset`` from the per-group span, relative to
    # their norm: at 0 their residual off the span is rounding noise, at
    # 1e-10 it is real but its eigenvalues (1e-20 relative) fall below the
    # cutoff, and at 1e-4 it is kept, small.  The rank is the SVD's at the
    # spectrum's cutoff, and the condition number the SVD's to a multiple
    # of eps kappa (the smallest eigenvalue is good to eps nu_1 absolute, as
    # the oracle's is).  The noise never reaches the core: a residual cut
    # relative to the residual's own largest singular value, not to F's,
    # would keep it, and the core's order would exceed the rank
    rng = np.random.default_rng(3)
    groups, size, powers = 40, 6, 3
    n = groups * size
    starts = np.arange(0, n, size)
    V = rng.standard_normal((n, powers)) * [1.0, 1e-1, 1e-2]      # kappa 3e7 at offset 0
    in_span = np.einsum("ip,ipj->ij", V, np.repeat(rng.standard_normal((groups, powers, 5)),
                                                   size, axis=0))
    noise = rng.standard_normal(in_span.shape)
    Q = in_span + offset * noise * np.linalg.norm(in_span, axis=0) / np.linalg.norm(noise, axis=0)
    labels = [f"q{j}" for j in range(5)] + [f"v{p}[{r}]" for p in range(powers)
                                           for r in range(groups)]
    inst = InstrumentSet(Q, labels, V, starts)
    orders = spying_eigh(monkeypatch)
    spec = Spectrum.from_instruments(inst)
    sv = np.linalg.svd(inst.dense(), compute_uv=False)
    rank = int(np.count_nonzero(sv ** 2 > EIGENVALUE_CUTOFF * sv[0] ** 2))
    assert spec.rank == rank == groups * powers + (5 if offset == 1e-4 else 0)
    if offset == 0.0:
        assert orders == [rank]
    kappa = (sv[0] / sv[rank - 1]) ** 2
    assert spec.condition_number == pytest.approx(kappa, rel=64 * np.finfo(float).eps * kappa)


def largest_named_array(call):
    """``call()`` and the most entries of any array a package frame names meanwhile.

    Every line a ``sarnet`` function runs is traced, and the arrays among
    its local variables are measured there.
    """
    largest = 0

    def trace(frame, event, arg):
        nonlocal largest
        if not frame.f_globals.get("__name__", "").startswith("sarnet"):
            return None
        largest = max([largest] + [v.size for v in frame.f_locals.values()
                                   if isinstance(v, np.ndarray)])
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        out = call()
    finally:
        sys.settrace(previous)
    return out, largest


def test_many_instrument_roster_is_one_rank_sized_eigh(monkeypatch):
    # the CLI's roster on a (60, 15, 6) directed network at order 10: the
    # centrality powers and their M copies are 20 columns of V, over 1100
    # per-group columns on n = 900 rows.  Its spectrum is one eigh whose
    # order is the rank, below n; F is never written out, and no array the
    # code names is larger than psi (n x rank), so none is n x n or n x m
    rng = np.random.default_rng(0)
    net = generate_mc_network(60, 15, 6, rng)
    x = rng.standard_normal(net.n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")            # columns J annihilates drop
        inst = normalize_columns(build_instruments(net, np.column_stack([x, net.lag_W(x)]), 10),
                                 "unit-variance")
    n, m = inst.n, inst.n_columns
    assert inst.powers == 20 and m > n

    def written_out(self):
        raise AssertionError("the roster was written out")

    monkeypatch.setattr(InstrumentSet, "dense", written_out)
    orders = spying_eigh(monkeypatch)
    spec, largest = largest_named_array(lambda: Spectrum.from_instruments(inst))
    assert orders == [spec.rank] and 600 < spec.rank < n
    assert spec.basis is None and largest == n * spec.rank


class TestScheme:
    def test_validation(self):
        with pytest.raises(ValueError):
            Scheme("T", -1.0)
        with pytest.raises(ValueError):
            Scheme("LF", 0.3)        # 1/alpha not integer
        with pytest.raises(ValueError):
            Scheme("X", 0.5)
        assert Scheme.landweber(4).steps == 4
        assert Scheme.principal_components(3).steps == 3

    def test_lf_default_step_size(self, spectrum):
        # LF steps with c = LF_STEP / nu_1^2 on every spectrum
        c = LF_STEP / spectrum.nu_max ** 2
        expect = 1.0 - (1.0 - c * spectrum.eigenvalues ** 2) ** 8
        np.testing.assert_array_equal(q_weights(Scheme.landweber(8), spectrum), expect)


def spectrum_of(*nus):
    """A dense-route spectrum with the given descending eigenvalues and psi = I."""
    return Spectrum(np.array(nus, dtype=float), np.eye(len(nus)), None, len(nus))


class TestQWeight:
    def test_tikhonov_formula(self):
        q = q_weights(Scheme.tikhonov(1.0), spectrum_of(1.0))
        assert q[0] == pytest.approx(0.5)

    def test_tikhonov_damps_the_squared_eigenvalue(self):
        # nu^2 / (nu^2 + alpha) = 4/5 at nu = 2, alpha = 1; damping nu itself
        # would give nu / (nu + alpha) = 2/3, which nu = 1 cannot tell apart
        q = q_weights(Scheme.tikhonov(1.0), spectrum_of(2.0))
        assert q[0] == pytest.approx(0.8, rel=1e-15)

    def test_landweber_formula(self):
        # c = 0.9 / 2^2: q = 1 - (1 - c nu^2)^2 at nu = 2 and nu = 1
        q = q_weights(Scheme.landweber(2), spectrum_of(2.0, 1.0))
        np.testing.assert_allclose(q, [1.0 - 0.1 ** 2, 1.0 - 0.775 ** 2], rtol=1e-12)

    def test_pc_indicator(self):
        # weights follow the rank position, not the eigenvalue itself
        q = q_weights(Scheme.principal_components(2), spectrum_of(0.7, 0.7, 0.7))
        np.testing.assert_array_equal(q, [1.0, 1.0, 0.0])

    def test_lf_step_size_bound_enforced(self):
        # one step gives q = c nu^2, so c nu_j^2 <= LF_STEP < 1 at any scale
        assert 0.0 < LF_STEP < 1.0
        spec = spectrum_of(1e3, 3.0, 1e-3)
        q = q_weights(Scheme.landweber(1), spec)
        np.testing.assert_allclose(q, LF_STEP * (spec.eigenvalues / 1e3) ** 2,
                                   rtol=1e-9, atol=1e-15)
        assert q.max() == pytest.approx(LF_STEP, rel=1e-12) and q.max() < 1.0

    def test_weights_lie_in_unit_interval(self, spectrum):
        for scheme in (Scheme.tikhonov(0.3), Scheme.landweber(5),
                       Scheme.principal_components(2)):
            q = q_weights(scheme, spectrum)
            assert np.all(q >= 0.0) and np.all(q <= 1.0)

    def test_projector_eigenvalues_are_weights(self, spectrum):
        # Rayleigh quotients on the eigenvectors recover q
        scheme = Scheme.tikhonov(0.2)
        q = q_weights(scheme, spectrum)
        P = projector_matrix(spectrum, scheme)
        for j in range(spectrum.rank):
            psi = oracles.psi(spectrum)[:, j]
            assert psi @ P @ psi == pytest.approx(q[j], abs=1e-10)


class TestApplyProjector:
    def test_pc_full_equals_least_squares_projection(self, spectrum):
        inst = random_instruments(0)
        scheme = Scheme.principal_components(spectrum.rank)
        rng = np.random.default_rng(5)
        e = rng.standard_normal(spectrum.n)
        # least-squares projection oracle onto col(Q)
        proj, *_ = np.linalg.lstsq(inst.Q, e, rcond=None)
        np.testing.assert_allclose(apply_projector(spectrum, scheme, e),
                                   inst.Q @ proj, atol=1e-8)

    def test_heavy_tikhonov_damps_to_zero(self, spectrum):
        e = np.random.default_rng(6).standard_normal(spectrum.n)
        out = apply_projector(spectrum, Scheme.tikhonov(1e12), e)
        assert np.linalg.norm(out) < 1e-6 * np.linalg.norm(e)

    def test_tikhonov_dual_formula(self):
        # spectral route vs (K^2 + alpha I)^{-1} K route
        inst = random_instruments(7, n=30, m=6)
        spec = Spectrum.from_instruments(inst)
        alpha = 0.1
        rng = np.random.default_rng(8)
        e = rng.standard_normal(30)
        K = inst.Q.T @ inst.Q / 30
        dense = inst.Q @ np.linalg.solve(K @ K + alpha * np.eye(6), K) @ inst.Q.T @ e / 30
        spectral = apply_projector(spec, Scheme.tikhonov(alpha), e)
        np.testing.assert_allclose(spectral, dense, atol=1e-8)

    def test_matrix_argument(self, spectrum):
        E = np.random.default_rng(9).standard_normal((spectrum.n, 3))
        scheme = Scheme.landweber(6)
        out = apply_projector(spectrum, scheme, E)
        for j in range(3):
            np.testing.assert_allclose(
                out[:, j], apply_projector(spectrum, scheme, E[:, j]), atol=1e-12)


class TestTraces:
    def test_pc_traces_are_counts(self, spectrum):
        tr, tr2 = projector_traces(spectrum, Scheme.principal_components(4))
        assert tr == 4.0 and tr2 == 4.0

    def test_tr_p2_bounded_by_tr_p(self, spectrum):
        for alpha in (1e-4, 0.1, 1.0, 10.0):
            tr, tr2 = projector_traces(spectrum, Scheme.tikhonov(alpha))
            assert tr2 <= tr

    def test_traces_match_dense_assembly(self, spectrum):
        for scheme in (Scheme.tikhonov(0.37), Scheme.landweber(9),
                       Scheme.principal_components(3)):
            P = projector_matrix(spectrum, scheme)
            tr, tr2 = projector_traces(spectrum, scheme)
            assert tr == pytest.approx(np.trace(P), abs=1e-8)
            assert tr2 == pytest.approx(np.trace(P @ P), abs=1e-8)

    def test_diagonal_matches_dense(self, spectrum):
        scheme = Scheme.tikhonov(0.5)
        P = projector_matrix(spectrum, scheme)
        np.testing.assert_allclose(projector_diagonal(spectrum, scheme),
                                   np.diag(P), atol=1e-10)


class TestStructure:
    def test_pc_projector_idempotent(self, spectrum):
        P = projector_matrix(spectrum, Scheme.principal_components(3))
        assert np.abs(P @ P - P).max() < 1e-8

    def test_tikhonov_contracts_on_instrument_span(self, spectrum):
        P = projector_matrix(spectrum, Scheme.tikhonov(0.3))
        psi = oracles.psi(spectrum)[:, 0]
        assert np.linalg.norm(P @ psi) < np.linalg.norm(psi)

    def test_tikhonov_weights_monotone_in_alpha(self, spectrum):
        q_small = q_weights(Scheme.tikhonov(1e-3), spectrum)
        q_big = q_weights(Scheme.tikhonov(1.0), spectrum)
        assert np.all(q_small > q_big)

    def test_lf_weights_monotone_in_iterations(self, spectrum):
        q4 = q_weights(Scheme.landweber(4), spectrum)
        q64 = q_weights(Scheme.landweber(64), spectrum)
        assert np.all(q64 >= q4)
        assert np.any(q64 > q4)

    def test_lf_limit_is_full_projection(self, spectrum):
        e = np.random.default_rng(13).standard_normal(spectrum.n)
        full = apply_projector(spectrum, Scheme.principal_components(spectrum.rank), e)
        lf = apply_projector(spectrum, Scheme.landweber(2 ** 20), e)
        assert np.linalg.norm(lf - full) < 1e-6 * np.linalg.norm(e)

    def test_projector_symmetric_psd(self, spectrum):
        P = projector_matrix(spectrum, Scheme.tikhonov(0.2))
        assert np.abs(P - P.T).max() < 1e-12
        assert np.linalg.eigvalsh(P).min() > -1e-12
