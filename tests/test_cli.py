import concurrent.futures
import math
import sys

import numpy as np
import pytest

from sarnet import cli, estimation, identification, selection
from sarnet.cli import main
from sarnet.graphs import PanelData, lee_group_network
from sarnet.regularization import Spectrum
from sarnet.transforms import ModelParams, reduced_form
from conftest import draw_dataset, write_network_csvs
import oracles


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def k5_edges(tmp_path):
    rows = ["group_id,src,dst,weight"]
    for i in range(5):
        for j in range(5):
            if i != j:
                rows.append(f"1,{i},{j},1")
    path = tmp_path / "k5.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture
def csv_pair(tmp_path):
    net, data, _, _, _ = draw_dataset(seed=202, group_count=8, group_size=12,
                                      shared_x=False)
    return write_network_csvs(tmp_path, net, data)


@pytest.fixture
def symmetric_pair(tmp_path):
    """Equal-weight groups of sizes 4, 5 and 6: a symmetric W, 4 distinct eigenvalues."""
    net = lee_group_network([4, 5, 6] * 4)
    rng = np.random.default_rng(7)
    x1, x2, eps = rng.standard_normal((3, net.n))
    gamma = 0.1 * rng.standard_normal(net.group_count)
    params = ModelParams.checked(net, lam=0.1, beta1=[0.2], beta2=[0.2], rho=0.1,
                                 gamma=gamma, sigma2=1.0)
    y = reduced_form(params, np.column_stack([x1, net.lag_W(x2)]), gamma, eps, net)
    data = PanelData(y=y, x1=x1[:, None], x2=x2[:, None], group_sizes=net.group_sizes)
    return write_network_csvs(tmp_path, net, data)


def write_rings(tmp_path, shared_x=False):
    """Two symmetric rings of 5 and 7 nodes, and node data with random x1, x2, y.

    With ``shared_x`` the x2 column repeats x1.
    """
    rows = ["group_id,src,dst,weight"]
    for g, m in ((0, 5), (1, 7)):
        for i in range(m):
            j = (i + 1) % m
            rows.append(f"{g},{i},{j},1")
            rows.append(f"{g},{j},{i},1")
    (tmp_path / "rings.csv").write_text("\n".join(rows) + "\n")
    nrows = ["group_id,node_id,x1,x2,y"]
    rng = np.random.default_rng(0)
    for g, m in ((0, 5), (1, 7)):
        for i in range(m):
            a, b, c = rng.standard_normal(3)
            nrows.append(f"{g},{i},{a:.6f},{a if shared_x else b:.6f},{c:.6f}")
    (tmp_path / "nodes.csv").write_text("\n".join(nrows) + "\n")
    return tmp_path / "rings.csv", tmp_path / "nodes.csv"


class TestDiagnose:
    def test_complete_graph_not_identified(self, k5_edges, capsys):
        code, out, _ = run_cli(["diagnose", "--edges", str(k5_edges)], capsys)
        assert code == 0
        assert "NotIdentified (2 distinct eigenvalues)" in out
        assert "verdict = NotIdentified" in out

    def test_with_node_data_reports_rank(self, csv_pair, capsys):
        edges, nodes = csv_pair
        # the generated network is directed; diagnostics refuse it
        code, out, err = run_cli(
            ["diagnose", "--edges", str(edges), "--data", str(nodes)], capsys)
        assert code == 3
        assert "not symmetric" in err

    def test_symmetric_fixture_full_report(self, tmp_path, capsys):
        # two rings of different sizes: symmetric, several eigenvalues
        edges, nodes = write_rings(tmp_path)
        code, out, _ = run_cli(["diagnose", "--edges", str(edges),
                                "--data", str(nodes)], capsys)
        assert code == 0
        assert "rank_full = true" in out

    def test_shared_covariate_enters_the_stack_once(self, tmp_path, capsys):
        # x2 = x1: on the regressor block [X1, W X2] the stack column W X1
        # would repeat W X2, an exact rank deficiency on any network.  The
        # stack lags the distinct covariates, here the one column x
        edges, nodes = write_rings(tmp_path, shared_x=True)
        code, out, _ = run_cli(["diagnose", "--edges", str(edges),
                                "--data", str(nodes)], capsys)
        assert code == 0
        assert out.startswith("Identified (")
        assert "rank_full = true" in out
        assert "stack_condition_number = inf" not in out


class TestEstimate:
    def test_end_to_end_block(self, csv_pair, capsys):
        edges, nodes = csv_pair
        code, out, err = run_cli(
            ["estimate", "--data", str(nodes), "--edges", str(edges),
             "--scheme", "T", "--criterion", "cp"], capsys)
        assert code == 0
        fields = dict(line.split(" = ") for line in out.strip().splitlines())
        for key in ("lambda_hat", "rho_tilde", "alpha_star",
                    "condition_number", "sigma2_hat", "tr_P"):
            assert key in fields
            assert np.isfinite(float(fields[key])) or fields[key] == "-"
        assert "standard errors" in err

    def test_library_warnings_print_without_source_location(self, csv_pair, capsys):
        # the csv_pair roster loses its underflowed high centrality powers
        edges, nodes = csv_pair
        code, _, err = run_cli(["estimate", "--data", str(nodes), "--edges", str(edges),
                                "--scheme", "T"], capsys)
        assert code == 0
        assert any(line.startswith("warning: dropping ") for line in err.splitlines())
        assert ".py:" not in err

    def test_byte_identical_output_files(self, csv_pair, tmp_path, capsys):
        edges, nodes = csv_pair
        args = ["estimate", "--data", str(nodes), "--edges", str(edges),
                "--scheme", "LF", "--criterion", "gcv"]
        code1, _, _ = run_cli(args + ["--out", str(tmp_path / "a.txt")], capsys)
        code2, _, _ = run_cli(args + ["--out", str(tmp_path / "b.txt")], capsys)
        assert code1 == code2 == 0
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_every_numeric_finite_or_dash(self, csv_pair, capsys):
        edges, nodes = csv_pair
        code, out, _ = run_cli(
            ["estimate", "--data", str(nodes), "--edges", str(edges),
             "--scheme", "PC"], capsys)
        assert code == 0
        for line in out.strip().splitlines():
            value = line.split(" = ")[1]
            if value == "-":
                continue
            try:
                number = float(value)
            except ValueError:
                continue  # non-numeric field such as the scheme label
            assert np.isfinite(number), line

    def test_instrument_spectrum_decomposed_once(self, csv_pair, capsys,
                                                 monkeypatch):
        # q1 (the preliminary fit) and the normalized large roster each
        # have their spectrum decomposed, and no roster twice
        edges, nodes = csv_pair
        rosters = []
        original = Spectrum.from_instruments.__func__

        def recording(cls, inst):
            rosters.append(inst)
            return original(cls, inst)

        monkeypatch.setattr(Spectrum, "from_instruments", classmethod(recording))
        code, _, _ = run_cli(["estimate", "--data", str(nodes), "--edges",
                              str(edges), "--scheme", "T"], capsys)
        assert code == 0
        assert len(rosters) == 2 and rosters[0] is not rosters[1]

    def test_order_one_roster_takes_the_block_route(self, tmp_path, capsys, monkeypatch):
        # at --order 1 the centrality columns and their M copies are two
        # powers of the per-group part: fewer than n/4 columns, but no
        # arrowhead, so the block route decomposes the roster.  The output
        # is that of the same run on the dense oracle's spectrum, eigh of
        # the written-out F F'/n, to the printed six digits
        net, data, _, _, _ = draw_dataset(seed=31, group_count=8, group_size=20,
                                          shared_x=False)
        edges, nodes = write_network_csvs(tmp_path, net, data)
        argv = ["estimate", "--data", str(nodes), "--edges", str(edges), "--order", "1"]
        original = Spectrum.from_instruments.__func__
        rosters = []

        def recording(cls, inst):
            rosters.append((inst, original(cls, inst)))
            return rosters[-1][1]

        def dense(cls, inst):
            return oracles.spectrum_dense(inst) if inst.powers > 1 else original(cls, inst)

        monkeypatch.setattr(Spectrum, "from_instruments", classmethod(recording))
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        inst, spectrum = rosters[-1]
        assert inst.powers == 2 and inst.n_columns < inst.n / 4 and spectrum.basis is None
        monkeypatch.setattr(Spectrum, "from_instruments", classmethod(dense))
        code, want, _ = run_cli(argv, capsys)
        assert code == 0
        for got_line, want_line in zip(out.splitlines(), want.splitlines(), strict=True):
            key, _, got = got_line.partition(" = ")
            assert want_line.startswith(f"{key} = ")
            expect = want_line.partition(" = ")[2]
            if got != expect:       # one unit in the sixth digit at most
                assert math.isclose(float(got), float(expect), rel_tol=1e-5), got_line

    def test_one_first_stage_per_roster(self, csv_pair, capsys, monkeypatch):
        # q1's stage gives the preliminary fit; the normalized large roster's
        # one stage feeds both the selection and the final fit
        edges, nodes = csv_pair
        rosters = []
        original = estimation.first_stage

        def recording(data, net, inst, rho_tilde):
            rosters.append(inst)
            return original(data, net, inst, rho_tilde)

        for name, module in list(sys.modules.items()):     # every import site
            if name.startswith("sarnet") and \
                    getattr(module, "first_stage", None) is original:
                monkeypatch.setattr(module, "first_stage", recording)
        code, _, _ = run_cli(["estimate", "--data", str(nodes), "--edges",
                              str(edges), "--scheme", "T"], capsys)
        assert code == 0
        assert len(rosters) == 2 and rosters[0] is not rosters[1]

    def test_symmetric_w_counts_distinct_eigenvalues_once(self, symmetric_pair,
                                                          capsys, monkeypatch):
        # the count both sets the default order and is printed
        edges, nodes = symmetric_pair
        calls = []
        original = identification.distinct_eigenvalues

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):     # every import site
            if name.startswith("sarnet") and \
                    getattr(module, "distinct_eigenvalues", None) is original:
                monkeypatch.setattr(module, "distinct_eigenvalues", counting)
        code, out, _ = run_cli(["estimate", "--data", str(nodes), "--edges",
                                str(edges)], capsys)
        assert code == 0
        assert "distinct_eigenvalues = 4" in out.splitlines()
        assert len(calls) == 1

    @pytest.mark.parametrize("pair,flags,order", [
        ("symmetric_pair", [], 3),             # 4 distinct eigenvalues - 1
        ("symmetric_pair", ["--order", "2"], 2),
        ("csv_pair", [], 10),                  # directed W
    ])
    def test_default_order_uses_spectral_count_when_symmetric(
            self, request, capsys, monkeypatch, pair, flags, order):
        edges, nodes = request.getfixturevalue(pair)
        orders = []

        def recording(net, X, order, **kwargs):
            orders.append(order)
            return cli_build(net, X, order, **kwargs)

        cli_build = cli.build_instruments
        monkeypatch.setattr(cli, "build_instruments", recording)
        code, _, _ = run_cli(["estimate", "--data", str(nodes), "--edges",
                              str(edges), *flags], capsys)
        assert code == 0
        assert orders == [order]


class TestSelect:
    def test_curve_csv(self, csv_pair, tmp_path, capsys):
        edges, nodes = csv_pair
        out_path = tmp_path / "curve.csv"
        code, _, err = run_cli(
            ["select", "--data", str(nodes), "--edges", str(edges),
             "--scheme", "T", "--out", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "alpha,criterion,S_hat"
        assert len(lines) == 41  # 40 grid points
        assert "alpha_star" in err


class TestSimulate:
    def test_text_output_reproducible(self, tmp_path, capsys):
        args = ["simulate", "--groups", "4", "--size", "8", "--max-links", "3",
                "--reps", "3", "--seed", "9"]
        code1, _, _ = run_cli(args + ["--out", str(tmp_path / "a.txt")], capsys)
        code2, _, _ = run_cli(args + ["--out", str(tmp_path / "b.txt")], capsys)
        assert code1 == code2 == 0
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
        text = (tmp_path / "a.txt").read_text()
        assert "T-2SLS" in text and "reps=3" in text

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--groups", "4", "--size", "8", "--max-links", "2",
             "--reps", "2", "--seed", "1", "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "estimator,parameter,mean,sd,rmse,n_used,n_failed"

    def test_transform_rho_table_is_worker_invariant(self, capsys):
        # whitening at rho_tilde is the one path where the finite-roster row
        # fits a first stage of its own, not delta_tilde
        args = ["simulate", "--groups", "4", "--size", "8", "--max-links", "3",
                "--reps", "4", "--seed", "3"]
        code, plain, _ = run_cli(args, capsys)
        code1, one, _ = run_cli(args + ["--transform-rho", "--workers", "1"], capsys)
        code2, two, _ = run_cli(args + ["--transform-rho", "--workers", "2"], capsys)
        assert code == code1 == code2 == 0
        assert one == two

        def finite_row(text):
            return next(line for line in text.splitlines() if line.startswith("2SLS (finite"))

        assert finite_row(one) != finite_row(plain)


    def test_broadcasting_bug_propagates_instead_of_exit_3(self, monkeypatch, capsys):
        # a shape bug raises numpy's plain ValueError: neither a numerical
        # failure of the fit nor bad input, so no exit code may absorb it
        grid_weights = selection._grid_weights

        def one_extra(kind, grid, spectrum):
            q = grid_weights(kind, grid, spectrum)
            return np.column_stack([q, q[:, :1]])

        monkeypatch.setattr(selection, "_grid_weights", one_extra)
        with pytest.raises(ValueError) as caught:
            main(["simulate", "--groups", "4", "--size", "8", "--max-links", "2",
                  "--reps", "1", "--seed", "1"])
        assert not isinstance(caught.value, estimation.NumericalFailure)
        assert "mismatch" in str(caught.value)


class TestBadInput:
    """Malformed numbers fail at load time as data errors naming the cell."""

    @pytest.fixture
    def files(self, tmp_path):
        net, data, _, _, _ = draw_dataset(seed=31, group_count=3, group_size=6)
        return write_network_csvs(tmp_path, net, data)

    @staticmethod
    def corrupt(path, line, column, value):
        lines = path.read_text().splitlines()
        cells = lines[line - 1].split(",")
        cells[column - 1] = value
        lines[line - 1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("value,reason", [("nan", "non-finite"),
                                              ("abc", "not a number")])
    def test_bad_outcome_names_file_line_and_column(self, files, capsys,
                                                    value, reason):
        edges, nodes = files
        self.corrupt(nodes, 4, 5, value)      # column 5 is y
        code, _, err = run_cli(["estimate", "--edges", str(edges),
                                "--data", str(nodes)], capsys)
        assert code == 2
        assert f"{nodes}, line 4, column 5 (y): {reason}" in err

    def test_infinite_weight_is_data_error(self, files, capsys):
        edges, nodes = files
        self.corrupt(edges, 3, 4, "inf")
        code, _, err = run_cli(["estimate", "--edges", str(edges),
                                "--data", str(nodes)], capsys)
        assert code == 2
        assert f"{edges}, line 3, column 4 (weight): non-finite" in err

    def test_negative_weight_is_data_error(self, files, capsys):
        edges, nodes = files
        self.corrupt(edges, 2, 4, "-1")
        code, _, err = run_cli(["estimate", "--edges", str(edges),
                                "--data", str(nodes)], capsys)
        assert code == 2
        assert f"{edges}, line 2, column 4 (weight): negative weight -1" in err

    def test_empty_edge_file_is_data_error(self, files, capsys):
        edges, _ = files
        edges.write_text("group_id,src,dst,weight\n")
        code, _, err = run_cli(["diagnose", "--edges", str(edges)], capsys)
        assert code == 2
        assert f"data error: {edges}: no data rows" in err

    def test_empty_node_file_is_data_error(self, files, capsys):
        edges, nodes = files
        nodes.write_text(nodes.read_text().splitlines()[0] + "\n")
        code, _, err = run_cli(["estimate", "--edges", str(edges),
                                "--data", str(nodes)], capsys)
        assert code == 2
        assert f"data error: {nodes}: no data rows" in err

    def test_mixed_id_kinds_is_data_error(self, files, capsys):
        edges, nodes = files
        self.corrupt(nodes, 3, 1, "a")        # group ids are integers elsewhere
        code, _, err = run_cli(["diagnose", "--edges", str(edges),
                                "--data", str(nodes)], capsys)
        assert code == 2
        assert f"{nodes}, line 3, column 1 (group_id): text id 'a' among integer ids" in err

    def test_unknown_node_names_line_and_column(self, files, capsys):
        edges, nodes = files
        self.corrupt(edges, 3, 3, "99")
        code, _, err = run_cli(["diagnose", "--edges", str(edges),
                                "--data", str(nodes)], capsys)
        assert code == 2
        assert f"{edges}, line 3, column 3 (dst): unknown node 99 in group 0" in err

    def test_m_edges_on_other_nodes_is_data_error(self, files, capsys):
        edges, _ = files
        m_edges = edges.with_name("m_edges.csv")
        m_edges.write_text(edges.read_text().replace(",2,", ",99,"))
        code, _, err = run_cli(["diagnose", "--edges", str(edges),
                                "--m-edges", str(m_edges)], capsys)
        assert code == 2
        assert f"data error: {m_edges}: M edge list does not match" in err

    def test_repeated_edge_is_data_error(self, files, capsys):
        edges, nodes = files
        lines = edges.read_text().splitlines()
        edges.write_text("\n".join(lines + [lines[1]]) + "\n")
        code, _, err = run_cli(["diagnose", "--edges", str(edges)], capsys)
        assert code == 2
        assert (f"{edges}, lines 2 and {len(lines) + 1}: repeated edge "
                "(group_id, src, dst)") in err

    def test_short_row_is_data_error(self, files, capsys):
        edges, _ = files
        edges.write_text(edges.read_text() + "0,1\n")
        code, _, err = run_cli(["diagnose", "--edges", str(edges)], capsys)
        assert code == 2
        assert "expected 4 columns, got 2" in err


class TestConfigAndErrors:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(["simulate", "--bogus"], capsys)
        assert code == 1
        assert "usage error" in err

    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, err = run_cli([], capsys)
        assert code == 1

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["diagnose", "--edges", str(tmp_path / "nope.csv")], capsys)
        assert code == 2
        assert "data error" in err

    def test_directory_path_is_data_error(self, tmp_path, capsys):
        code, _, err = run_cli(["diagnose", "--edges", str(tmp_path)], capsys)
        assert code == 2
        assert "data error" in err and str(tmp_path) in err

    def test_malformed_config_value_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("reps = 2\ngroups = ten\n")
        code, _, err = run_cli(["--config", str(cfg), "simulate"], capsys)
        assert code == 2
        assert f"data error: {cfg}:2: groups: " in err
        assert "'ten'" in err

    def test_criterion_choices_are_the_selection_criteria(self):
        parser = cli._build_parser({})
        sub = next(a for a in parser._actions if a.choices and "simulate" in a.choices)
        choices = [a.choices for p in sub.choices.values() for a in p._actions
                   if a.dest == "criterion"]
        assert len(choices) == 3            # simulate, estimate and select
        assert all(tuple(c) == selection._CRITERIA for c in choices)

    def test_config_criterion_outside_choices_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("reps = 2\ngroups = 4\nsize = 8\ncriterion = bogus\n")
        code, out, err = run_cli(["--config", str(cfg), "simulate"], capsys)
        assert code == 2
        assert out == ""
        assert "data error: config key criterion: 'bogus' is not one of " \
               "'cp', 'gcv', 'loo'" in err

    def test_config_scheme_outside_choices_is_data_error(self, csv_pair, tmp_path,
                                                          capsys):
        edges, nodes = csv_pair
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scheme = X\n")
        code, _, err = run_cli(["--config", str(cfg), "estimate", "--data", str(nodes),
                                "--edges", str(edges)], capsys)
        assert code == 2
        assert "config key scheme: 'X' is not one of 'T', 'LF', 'PC'" in err

    def test_config_boolean_typo_is_data_error(self, k5_edges, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol = 1e-8\ncorrelated = ture\n")
        code, out, err = run_cli(["--config", str(cfg), "diagnose", "--edges",
                                  str(k5_edges)], capsys)
        assert code == 2
        assert out == ""
        assert f"data error: {cfg}:2: correlated: 'ture' is not a boolean" in err
        assert "1, true, yes, on, 0, false, no, off" in err

    @pytest.mark.parametrize("value, expect", [("TRUE", True), ("On", True),
                                               ("no", False), ("0", False)])
    def test_config_boolean_spellings(self, tmp_path, value, expect):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"correlated = {value}\n")
        parser = cli._build_parser(cli._read_config_file(str(cfg)))
        assert parser.parse_args(["diagnose", "--edges", "e.csv"]).correlated is expect

    def test_standardized_normalization_is_refused(self, csv_pair, tmp_path, capsys):
        # every roster satisfies J Q = Q, so its columns already have zero
        # mean within each group; unit-variance is the only rescaling
        edges, nodes = csv_pair
        data = ["--data", str(nodes), "--edges", str(edges)]
        code, out, err = run_cli(["estimate", *data, "--normalize", "standardized"], capsys)
        assert (code, out) == (1, "")
        assert "usage error: argument --normalize: invalid choice: 'standardized'" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("normalize = standardized\n")
        code, out, err = run_cli(["--config", str(cfg), "estimate", *data], capsys)
        assert (code, out) == (2, "")
        assert "data error: config key normalize: 'standardized' is not one of " \
               "'none', 'unit-variance'" in err

    @pytest.mark.parametrize("order", ["0", "-2"])
    def test_nonpositive_order_flag_is_usage_error(self, csv_pair, order, capsys):
        edges, nodes = csv_pair
        code, out, err = run_cli(["estimate", "--data", str(nodes), "--edges", str(edges),
                                  "--order", order], capsys)
        assert code == 1
        assert out == ""
        assert f"usage error: --order must be a positive integer, got {order}" in err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_nonpositive_workers_is_usage_error(self, workers, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)   # starts nothing
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"workers = {workers}\n")
        for argv in (["simulate", "--reps", "2", "--workers", workers],
                     ["--config", str(cfg), "simulate", "--reps", "2"]):
            code, out, err = run_cli(argv, capsys)
            assert code == 1
            assert out == ""
            assert f"usage error: --workers must be a positive integer, got {workers}" in err

    def test_nonpositive_order_config_is_usage_error(self, csv_pair, tmp_path, capsys):
        edges, nodes = csv_pair
        cfg = tmp_path / "run.cfg"
        cfg.write_text("order = 0\n")
        code, out, err = run_cli(["--config", str(cfg), "select", "--data", str(nodes),
                                  "--edges", str(edges)], capsys)
        assert code == 1
        assert out == ""
        assert "usage error: --order must be a positive integer, got 0" in err

    @pytest.mark.parametrize("flag", ["--tol", "--weak-threshold"])
    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_bad_diagnose_tolerance_is_usage_error(self, k5_edges, tmp_path, flag, value,
                                                   capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag[2:]} = {value}\n")
        for argv in (["diagnose", "--edges", str(k5_edges), flag, value],
                     ["--config", str(cfg), "diagnose", "--edges", str(k5_edges)]):
            code, out, err = run_cli(argv, capsys)
            assert code == 1
            assert out == ""
            assert f"usage error: {flag} must be a nonnegative number, got {float(value)}" in err

    @pytest.mark.parametrize("flags,named", [
        (["--reps", "0"], "--reps must be a positive integer, got 0"),
        (["--groups", "0"], "--groups must be a positive integer, got 0"),
        (["--groups", "-3"], "--groups must be a positive integer, got -3"),
        (["--size", "0"], "--size must be a positive integer, got 0"),
        (["--seed", "-1"], "--seed must be a nonnegative integer, got -1"),
        (["--max-links", "-1"], "--max-links must be a nonnegative integer, got -1"),
        (["--max-links", "20"], "--max-links must be below --size (10), got 20"),
    ])
    def test_out_of_range_design_is_usage_error(self, monkeypatch, flags, named, capsys):
        monkeypatch.setattr(cli, "run_study", None)     # runs nothing
        code, out, err = run_cli(["simulate", *flags], capsys)
        assert code == 1
        assert out == ""
        assert f"usage error: {named}" in err

    def test_unstable_design_is_one_line_usage_error(self, monkeypatch, capsys):
        # a row of --max-links links has that row sum in the binary W, so
        # lambda = 0.1 keeps ||lambda W|| < 1 only up to 9 links
        monkeypatch.setattr(cli, "run_study", None)     # runs nothing
        code, out, err = run_cli(["simulate", "--size", "15", "--max-links", "10"], capsys)
        assert (code, out) == (1, "")
        assert err == "usage error: --max-links must be at most 9 at lambda = 0.1, got 10\n"

    def test_config_value_inside_choices_is_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("reps = 2\ngroups = 4\nsize = 8\ncriterion = gcv\n"
                       "format = csv\n")
        code, out, _ = run_cli(["--config", str(cfg), "simulate"], capsys)
        assert code == 0
        assert out.startswith("estimator,")

    def test_unwritable_simulate_out_is_data_error(self, tmp_path, capsys):
        code, out, err = run_cli(["simulate", "--reps", "2", "--groups", "4",
                                  "--size", "8", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert out == ""
        assert f"data error: cannot write {tmp_path}: " in err

    def test_unwritable_select_out_is_data_error(self, csv_pair, tmp_path, capsys):
        edges, nodes = csv_pair
        code, out, err = run_cli(["select", "--data", str(nodes), "--edges", str(edges),
                                  "--out", str(tmp_path)], capsys)
        assert code == 2
        assert out == ""
        assert f"data error: cannot write {tmp_path}: " in err

    def test_malformed_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        code, _, err = run_cli(["diagnose", "--edges", str(bad)], capsys)
        assert code == 2

    def test_cell_over_csv_field_limit_is_data_error(self, tmp_path, capsys):
        # the csv module refuses a field over 131072 characters
        bad = tmp_path / "long.csv"
        bad.write_text("group_id,src,dst,weight\n0,0,1,1\n0," + "7" * 200_000 + ",0,1\n")
        code, out, err = run_cli(["diagnose", "--edges", str(bad)], capsys)
        assert code == 2
        assert out == ""
        assert f"data error: {bad}, line 3: field larger than field limit" in err

    def test_degenerate_numeric_input_is_numerical_failure(self, tmp_path, capsys):
        # constant covariates: every instrument column is annihilated by J
        net, data, _, _, _ = draw_dataset(seed=7, group_count=3, group_size=6)
        import dataclasses
        flat = dataclasses.replace(data, x1=np.ones((net.n, 1)),
                                   x2=np.ones((net.n, 1)))
        edges, nodes = write_network_csvs(tmp_path, net, flat)
        code, _, err = run_cli(
            ["estimate", "--data", str(nodes), "--edges", str(edges)], capsys)
        assert code == 3
        assert "numerical failure" in err

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("reps = 2\nseed = 3\ngroups = 4\nsize = 8\nmax-links = 2\n")
        code, out, _ = run_cli(["--config", str(cfg), "simulate"], capsys)
        assert code == 0
        assert "reps=2" in out and "seed=3" in out

    def test_cli_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("reps = 2\nseed = 3\ngroups = 4\nsize = 8\nmax-links = 2\n")
        code, out, _ = run_cli(
            ["--config", str(cfg), "simulate", "--seed", "11"], capsys)
        assert code == 0
        assert "seed=11" in out

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus_key = 1\n")
        code, _, err = run_cli(["--config", str(cfg), "simulate", "--reps", "1"],
                               capsys)
        assert code == 2
        assert "unknown config key" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(["--help"], capsys)
        assert code == 0
