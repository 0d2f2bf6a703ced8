"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible without -s thanks to
capsys.disabled) and then asserts.  The simulation-based checks share one
12-configuration sweep at 500 replications per cell, so this module takes a
few minutes; run it as

    pytest tests/test_acceptance.py -v
"""

import numpy as np
import pytest

from sarnet.cli import main as cli_main
from sarnet.estimation import (assemble_z, first_stage, preliminary_delta, preliminary_rho,
                               regularized_2sls)
from sarnet.graphs import GroupedNetwork, lee_group_network, load_network
from sarnet.identification import (Verdict, build_report, distinct_eigenvalues,
                                   labelled_stack)
from sarnet.instruments import InstrumentSet, build_instruments, normalize_columns, q1_roster, q2_roster
from sarnet.montecarlo import McConfig, run_study, summarize
from sarnet.regularization import (Scheme, Spectrum, apply_projector,
                                   projector_traces, q_weights)
from sarnet.selection import (SelectionContext, default_grid, prepare_selection,
                              select_from_context)
from conftest import criterion_at, draw_dataset, nilpotent_dataset, write_network_csvs
from oracles import loo_refit, projector_matrix, psi

GROUPS = (30, 60)
SIZES = (10, 15)
DENSITIES = (3, 6, 8)
SWEEP_SEED = 42
REPLICATIONS = 500

#: benchmark reference values: estimator -> (lambda mean, lambda SD)
REFERENCE_SMALL_SPARSE = {
    "2sls_finite": (0.098, 0.207),
    "2sls_large": (0.015, 0.100),
    "bias_corrected": (0.106, 0.131),
    "t_2sls": (0.040, 0.110),
}
REFERENCE_LARGE_DENSE = {
    "t_2sls": (0.094, 0.035),
    "2sls_large": (0.086, 0.030),
}
MEAN_TOL = 0.03
SD_RELTOL = 0.20


def report(capsys, name, ok, detail=""):
    with capsys.disabled():
        suffix = f" -- {detail}" if detail else ""
        print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def sweep():
    out = {}
    for g in GROUPS:
        for m in SIZES:
            for k in DENSITIES:
                config = McConfig(group_count=g, group_size=m, max_links=k,
                                  seed=SWEEP_SEED, replications=REPLICATIONS)
                out[(g, m, k)] = summarize(run_study(config), config)
    return out


def _check_cells(summary, reference):
    problems = []
    for name, (ref_mean, ref_sd) in reference.items():
        cell = summary.cell(name, "lambda")
        if abs(cell.mean - ref_mean) > MEAN_TOL:
            problems.append(f"{name} mean {cell.mean:.3f} vs {ref_mean} (tol {MEAN_TOL})")
        if abs(cell.sd - ref_sd) > SD_RELTOL * ref_sd:
            problems.append(f"{name} sd {cell.sd:.3f} vs {ref_sd} (tol 20%)")
    return problems


def test_criterion_1_benchmark_table_small_sparse_cell(sweep, capsys):
    summary = sweep[(30, 10, 3)]
    problems = _check_cells(summary, REFERENCE_SMALL_SPARSE)
    got = {n: (round(summary.cell(n, 'lambda').mean, 3),
               round(summary.cell(n, 'lambda').sd, 3)) for n in REFERENCE_SMALL_SPARSE}
    report(capsys, "1 (m=10 g=30 max=3 reproduction)", not problems,
           "; ".join(problems) if problems else f"{got}")


def test_criterion_2_benchmark_table_large_dense_cell(sweep, capsys):
    summary = sweep[(60, 15, 6)]
    problems = _check_cells(summary, REFERENCE_LARGE_DENSE)
    got = {n: (round(summary.cell(n, 'lambda').mean, 3),
               round(summary.cell(n, 'lambda').sd, 3)) for n in REFERENCE_LARGE_DENSE}
    report(capsys, "2 (m=15 g=60 max=6 spot check)", not problems,
           "; ".join(problems) if problems else f"{got}")


def test_criterion_3_ordering_properties(sweep, capsys):
    truth = 0.1
    violations: dict[tuple, list[str]] = {}

    def flag(key, msg):
        violations.setdefault(key, []).append(msg)

    for key, summary in sweep.items():
        t = summary.cell("t_2sls", "lambda")
        large = summary.cell("2sls_large", "lambda")
        finite = summary.cell("2sls_finite", "lambda")
        if not abs(t.mean - truth) < abs(large.mean - truth):
            flag(key, "regularized bias not below large-roster bias")
        if not large.sd <= finite.sd:
            flag(key, "large-roster SD above finite-roster SD")
    for g in GROUPS:
        for m in SIZES:
            sparse = sweep[(g, m, 3)].cell("t_2sls", "lambda").rmse
            dense = sweep[(g, m, 8)].cell("t_2sls", "lambda").rmse
            if not dense < sparse:
                flag((g, m, 8), "regularized RMSE not improved by density")
    for m in SIZES:
        for k in DENSITIES:
            for name in ("2sls_finite", "2sls_large", "bias_corrected",
                         "t_2sls", "lf_2sls", "pc_2sls"):
                small = sweep[(30, m, k)].cell(name, "lambda").rmse
                big = sweep[(60, m, k)].cell(name, "lambda").rmse
                if not big < small:
                    flag((60, m, k), f"{name} RMSE not improved by group count")
    ok = len(violations) <= 1
    detail = (f"{len(violations)} violating configuration(s): {violations}"
              if violations else "no violations in 12 configurations")
    report(capsys, "3 (sweep ordering properties)", ok, detail)


def test_criterion_4_oracle_equivalences(capsys):
    problems = []
    # undamped regularized 2SLS vs the explicit pseudo-inverse chain
    worst = 0.0
    for rep in range(50):
        net, data, _, _, _ = draw_dataset(seed=(400, rep), group_count=4,
                                          group_size=6)
        q2 = q2_roster(net, q1_roster(net, data.regressors(net)))
        stage = first_stage(data, net, q2, 0.0)
        result = regularized_2sls(stage, Scheme.principal_components(stage.spectrum.rank))
        Z = assemble_z(data, net)
        Q = q2.dense()
        P = Q @ np.linalg.pinv(Q.T @ Q) @ Q.T
        oracle = np.linalg.pinv(Z.T @ P @ Z) @ (Z.T @ P @ data.y)
        worst = max(worst, float(np.abs(result.delta - oracle).max()))
    if worst > 1e-8:
        problems.append(f"PC-full vs classical max gap {worst:.2e}")
    # Tikhonov spectral route vs the (K^2 + alpha I)^{-1} K route
    worst_t = 0.0
    rng = np.random.default_rng(77)
    for rep in range(10):
        n, m = 36, 7
        Q = rng.standard_normal((n, m))
        spec = Spectrum.from_instruments(InstrumentSet(Q, tuple(f"c{i}" for i in range(m))))
        alpha = 10.0 ** rng.uniform(-4, 1)
        e = rng.standard_normal(n)
        K = Q.T @ Q / n
        dense = Q @ np.linalg.solve(K @ K + alpha * np.eye(m), K) @ Q.T @ e / n
        spectral = apply_projector(spec, Scheme.tikhonov(alpha), e)
        worst_t = max(worst_t, float(np.abs(dense - spectral).max()))
    if worst_t > 1e-8:
        problems.append(f"Tikhonov dual-formula max gap {worst_t:.2e}")
    report(capsys, "4 (oracle equivalence suite)", not problems,
           "; ".join(problems) if problems else
           f"50 fixtures, max gaps {worst:.1e} / {worst_t:.1e}")


def test_criterion_5_identification_suite(capsys):
    problems = []
    for n in range(3, 21):
        W = np.ones((n, n)) - np.eye(n)
        if build_report(GroupedNetwork.from_blocks([W], [W])).verdict \
                is not Verdict.NOT_IDENTIFIED:
            problems.append(f"complete graph K_{n} not flagged")
    count, _ = distinct_eigenvalues(lee_group_network([10, 10]))
    if count != 2:
        problems.append(f"equal-size group design gave {count} distinct eigenvalues")
    count57, clusters = distinct_eigenvalues(lee_group_network([5, 7]))
    values = sorted(v for v, _ in clusters)
    expected = [-0.25, -1.0 / 6.0, 1.0]
    if count57 != 3 or np.abs(np.array(values) - expected).max() > 1e-10:
        problems.append(f"(5,7) spectrum came out as {values}")
    report(capsys, "5 (identification suite)", not problems,
           "; ".join(problems) if problems else
           "K_3..K_20, equal groups, (5,7) spectrum exact to 1e-10")


def test_criterion_6_projector_properties(capsys):
    problems = []
    net, data, _, _, _ = draw_dataset(seed=500, group_count=5, group_size=9)
    J = net.J
    Jm = J.apply(np.eye(net.n))
    if np.abs(Jm @ Jm - Jm).max() >= 1e-10:
        problems.append("J not idempotent to 1e-10")
    if np.abs(Jm - Jm.T).max() != 0.0:
        problems.append("J not exactly symmetric")
    if np.linalg.norm(Jm @ np.ones(net.n)) >= 1e-10:
        problems.append("J does not annihilate the ones vector")
    inst = normalize_columns(q2_roster(net, q1_roster(net, data.regressors(net))),
                             "unit-variance")
    spec = Spectrum.from_instruments(inst)
    schemes = [Scheme.tikhonov(0.3), Scheme.landweber(7),
               Scheme.principal_components(3)]
    for scheme in schemes:
        q = q_weights(scheme, spec)
        if not (np.all(q >= 0.0) and np.all(q <= 1.0)):
            problems.append(f"{scheme.kind} weights leave [0, 1]")
        P = projector_matrix(spec, scheme)
        tr, tr2 = projector_traces(spec, scheme)
        if abs(tr - np.trace(P)) > 1e-8 or abs(tr2 - np.trace(P @ P)) > 1e-8:
            problems.append(f"{scheme.kind} traces disagree with dense assembly")
    e = np.random.default_rng(3).standard_normal(net.n)
    full = apply_projector(spec, Scheme.principal_components(spec.rank), e)
    lf = apply_projector(spec, Scheme.landweber(2 ** 20), e)
    if np.linalg.norm(lf - full) > 1e-6 * np.linalg.norm(e):
        problems.append("LF iteration limit does not reach the full projection")
    report(capsys, "6 (projector property suite)", not problems,
           "; ".join(problems) if problems else
           "J properties, weight range, trace identities, LF limit")


def test_criterion_7_selector_suite(capsys):
    problems = []
    # LOO smoother identity vs literal delete-one refit at n = 30
    net, data, _, _, _ = draw_dataset(seed=600, group_count=3, group_size=10)
    X = data.regressors(net)
    q1 = q1_roster(net, X)
    delta_t = preliminary_delta(data, net, q1)
    rho_t = preliminary_rho(data, net, delta_t)
    inst = normalize_columns(q2_roster(net, q1), "unit-variance")
    ctx = prepare_selection(first_stage(data, net, inst, rho_t), delta_t, criterion="loo")
    for scheme in (Scheme.tikhonov(0.2 * ctx.spectrum.nu_max ** 2),
                   Scheme.landweber(16),
                   Scheme.principal_components(min(4, ctx.spectrum.rank))):
        ident = criterion_at(ctx, scheme)
        refit = loo_refit(ctx, scheme)
        if abs(ident - refit) > 1e-6:
            problems.append(f"LOO routes disagree for {scheme.kind}: "
                            f"{abs(ident - refit):.2e}")
    # noiseless limit: lightest damping wins
    nnet, ndata = nilpotent_dataset(seed=601)
    nX = ndata.regressors(nnet)
    ndelta = preliminary_delta(ndata, nnet, q1_roster(nnet, nX))
    nrho = preliminary_rho(ndata, nnet, ndelta)
    ninst = normalize_columns(build_instruments(nnet, nX, order=3), "unit-variance")
    nctx = prepare_selection(first_stage(ndata, nnet, ninst, nrho), ndelta, "cp")
    chosen = select_from_context(nctx, "T").scheme.alpha
    smallest = default_grid("T", nctx.spectrum, nctx.min_components)[0]
    if chosen != pytest.approx(smallest):
        problems.append(f"noiseless fixture chose alpha {chosen:.3g}")
    # pure-noise limit: heaviest damping wins
    rng = np.random.default_rng(602)
    Q = rng.standard_normal((40, 6))
    spec = Spectrum.from_instruments(InstrumentSet(Q, tuple(f"c{i}" for i in range(6))))
    raw = rng.standard_normal(40)
    vectors = psi(spec)
    w = raw - vectors @ (vectors.T @ raw)  # exactly no in-span signal
    coef = vectors.T @ w
    noisy = SelectionContext(spectrum=spec, w=w, coef=coef,
                             sigma2_eps=1.0,
                             sigma2_v=float(w @ w) / 40,
                             bias_factor=2.0, criterion="cp", min_components=1)
    t_choice = select_from_context(noisy, "T").scheme.alpha
    largest = default_grid("T", spec, noisy.min_components)[-1]
    if t_choice != pytest.approx(largest):
        problems.append(f"pure-noise fixture chose alpha {t_choice:.3g}")
    pc_choice = select_from_context(noisy, "PC").scheme.steps
    if pc_choice != 1:
        problems.append(f"pure-noise fixture kept {pc_choice} components")
    report(capsys, "7 (selector suite)", not problems,
           "; ".join(problems) if problems else
           "LOO identity = refit to 1e-6; degenerate limits behave")


def test_criterion_8_csv_pipeline_and_conditioning(tmp_path, capsys):
    problems = []
    # end-to-end estimate on a synthetic CSV pair
    net, data, _, _, _ = draw_dataset(seed=700, group_count=8, group_size=12,
                                      shared_x=False)
    edges, nodes = write_network_csvs(tmp_path, net, data)
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    argv = ["estimate", "--data", str(nodes), "--edges", str(edges),
            "--scheme", "T", "--criterion", "cp"]
    code = cli_main(argv + ["--out", str(out_a)])
    if code != 0:
        problems.append(f"estimate exited {code}")
    else:
        fields = dict(line.split(" = ") for line in
                      out_a.read_text().strip().splitlines())
        lam = float(fields["lambda_hat"])
        if not np.isfinite(lam):
            problems.append("lambda_hat not finite")
        if cli_main(argv + ["--out", str(out_b)]) != 0 or \
                out_a.read_bytes() != out_b.read_bytes():
            problems.append("repeated runs not byte-identical")
    # condition numbers grow with the lag order on a single-group
    # contiguity-ring fixture loaded through the CSV path
    rng = np.random.default_rng(701)
    n = 80
    rows = ["group_id,src,dst,weight"]
    for i in range(n):
        for j in (1, 9):
            rows.append(f"0,{i},{(i + j) % n},1")
            rows.append(f"0,{(i + j) % n},{i},1")
    (tmp_path / "ring.csv").write_text("\n".join(sorted(set(rows), key=rows.index)) + "\n")
    ring_net, _ = load_network(tmp_path / "ring.csv")
    X = rng.standard_normal((n, 2))
    conds = []
    for order in (2, 3, 4):
        stack, _, _ = labelled_stack(ring_net, X, order)
        sv = np.linalg.svd(stack, compute_uv=False)
        conds.append(float((sv[0] / sv[-1]) ** 2))
    if not (conds[0] < conds[1] < conds[2]):
        problems.append(f"condition numbers not increasing: {conds}")
    report(capsys, "8 (csv pipeline + conditioning order)", not problems,
           "; ".join(problems) if problems else
           f"byte-identical estimate output; conditions {np.round(conds, 1)}")
