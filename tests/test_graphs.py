import numpy as np
import pytest

from sarnet.graphs import (GroupedNetwork, PanelData, build_block_diagonal,
                           generate_mc_network, lee_group_network,
                           load_edge_csv, load_network, load_node_csv,
                           row_normalize)
from conftest import write_network_csvs
from oracles import dense_M, dense_W, group_slices


class TestBuildBlockDiagonal:
    def test_two_singletons_give_zero_matrix(self):
        out = build_block_diagonal([np.zeros((1, 1)), np.zeros((1, 1))])
        assert out.shape == (2, 2)
        assert np.all(out == 0)

    def test_complete_graph_blocks(self):
        k2 = np.ones((2, 2)) - np.eye(2)
        k3 = np.ones((3, 3)) - np.eye(3)
        out = build_block_diagonal([k2, k3])
        assert out.shape == (5, 5)
        assert np.count_nonzero(out) == 2 + 6
        assert np.all(out[:2, 2:] == 0) and np.all(out[2:, :2] == 0)

    def test_matches_index_mapping_oracle(self):
        rng = np.random.default_rng(5)
        blocks = [rng.standard_normal((m, m)) for m in (2, 4, 3)]
        out = build_block_diagonal(blocks)
        # naive double-loop placement oracle
        n = sum(b.shape[0] for b in blocks)
        expect = np.zeros((n, n))
        offset = 0
        for b in blocks:
            m = b.shape[0]
            for i in range(m):
                for j in range(m):
                    expect[offset + i, offset + j] = b[i, j]
            offset += m
        np.testing.assert_array_equal(out, expect)

    def test_non_square_block_rejected_with_index(self):
        with pytest.raises(ValueError, match="block 1"):
            build_block_diagonal([np.zeros((2, 2)), np.zeros((2, 3))])


class TestRowNormalize:
    def test_already_normalized_rows_unchanged(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(row_normalize(W), W)

    def test_row_scaling(self):
        out = row_normalize(np.array([[0.0, 2.0, 2.0]] * 3) * [[1], [1], [0]])
        np.testing.assert_allclose(out[0], [0.0, 0.5, 0.5])
        np.testing.assert_array_equal(out[2], 0.0)

    def test_zero_row_stays_zero(self):
        W = np.array([[0.0, 0.0], [3.0, 0.0]])
        out = row_normalize(W)
        np.testing.assert_array_equal(out[0], 0.0)
        np.testing.assert_allclose(out[1], [1.0, 0.0])

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            row_normalize(np.array([[0.0, -1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("seed", range(5))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        W = rng.random((7, 7)) * (rng.random((7, 7)) < 0.5)
        np.fill_diagonal(W, 0.0)
        once = row_normalize(W)
        np.testing.assert_allclose(row_normalize(once), once, atol=1e-14)


class TestGenerateMcNetwork:
    @staticmethod
    def drawn_degrees(group_count, group_size, max_links, seed):
        """The out-degrees the generator draws: one vector per group, in order."""
        rng = np.random.default_rng(seed)
        return [rng.integers(0, max_links + 1, size=group_size) for _ in range(group_count)]

    def test_wrap_around_rule(self):
        # row i with out-degree k links to i+1 .. i+k, wrapping inside the group:
        # row 9 of a 10-node group with out-degree 3 links to 0, 1, 2
        net = generate_mc_network(30, 10, 3, seed=11)
        wrapped = 0
        for B, degrees in zip(net.blocks_W(), self.drawn_degrees(30, 10, 3, 11)):
            for i, k in enumerate(degrees):
                expect = np.zeros(10)
                expect[(i + 1 + np.arange(k)) % 10] = 1.0
                np.testing.assert_array_equal(B[i], expect)
                wrapped += i + k >= 10
                if i == 9 and k == 3:
                    assert B[9, 0] == B[9, 1] == B[9, 2] == 1.0 and B[9].sum() == 3
        assert wrapped > 0

    def test_zero_degree_gives_zero_row(self):
        net = generate_mc_network(30, 10, 3, seed=11)
        degrees = np.concatenate(self.drawn_degrees(30, 10, 3, 11))
        assert np.any(degrees == 0)
        np.testing.assert_array_equal(dense_W(net)[degrees == 0], 0.0)
        # zero rows of W stay zero rows of M
        np.testing.assert_array_equal(dense_W(net).sum(axis=1) == 0, degrees == 0)
        np.testing.assert_array_equal(dense_M(net)[degrees == 0], 0.0)

    def test_bit_reproducible(self):
        a = generate_mc_network(5, 9, 3, seed=123)
        b = generate_mc_network(5, 9, 3, seed=123)
        np.testing.assert_array_equal(dense_W(a), dense_W(b))
        np.testing.assert_array_equal(dense_M(a), dense_M(b))

    @pytest.mark.parametrize("seed", range(8))
    def test_invariants_over_seeds(self, seed):
        net = generate_mc_network(4, 7, 3, seed=seed)
        assert np.all(np.diag(dense_W(net)) == 0)
        # wrap-around stays within the group
        for sl in group_slices(net):
            outside = dense_W(net)[sl].copy()
            outside[:, sl] = 0.0
            assert np.all(outside == 0)
        sums = dense_M(net).sum(axis=1)
        nonzero = dense_W(net).sum(axis=1) > 0
        np.testing.assert_allclose(sums[nonzero], 1.0, atol=1e-12)

    def test_degree_histogram_uniform(self):
        # 300 draws over {0,1,2,3}: each count inside the 3-sigma binomial band
        net = generate_mc_network(30, 10, 3, seed=77)
        degrees = dense_W(net).sum(axis=1).astype(int)
        counts = np.bincount(degrees, minlength=4)
        n, p = 300, 0.25
        band = 3 * np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) < band), counts

    def test_max_links_must_be_below_group_size(self):
        with pytest.raises(ValueError):
            generate_mc_network(3, 4, 4, seed=0)
        with pytest.raises(ValueError):
            generate_mc_network(3, 4, 7, seed=0)


class TestGroupedNetworkInvariants:
    def test_off_block_entries_rejected(self):
        W = np.zeros((4, 4))
        W[0, 3] = 1.0  # crosses the 2|2 block boundary
        with pytest.raises(ValueError, match="outside the diagonal blocks"):
            GroupedNetwork((2, 2), W, np.zeros((4, 4)))

    def test_self_links_rejected(self):
        W = np.eye(3)
        with pytest.raises(ValueError, match="self-links"):
            GroupedNetwork((3,), W, np.zeros((3, 3)))

    def test_declared_row_normalization_checked(self):
        W = np.array([[0.0, 2.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="row-normalized"):
            GroupedNetwork((2,), W, W, m_row_normalized=True)

    def test_block_extraction_roundtrip(self):
        rng = np.random.default_rng(3)
        blocks = []
        for m in (3, 5, 2):
            B = rng.random((m, m)) * (rng.random((m, m)) < 0.6)
            np.fill_diagonal(B, 0.0)
            blocks.append(B)
        W = build_block_diagonal(blocks)
        net = GroupedNetwork((3, 5, 2), W, row_normalize(W), m_row_normalized=True)
        for got, expect in zip(net.blocks_W(), blocks):
            np.testing.assert_array_equal(got, expect)

    def test_stored_blocks_are_read_only_copies(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        net = GroupedNetwork.from_blocks([W], [W])
        W[0, 1] = 5.0                      # the caller's array is not aliased
        assert net.blocks_W()[0][0, 1] == 1.0
        with pytest.raises(ValueError):
            net.blocks_W()[0][0, 1] = 2.0
        with pytest.raises(ValueError):
            net.blocks_M()[0][1, 0] = 2.0
        dense = GroupedNetwork((2,), W, W)
        with pytest.raises(ValueError):
            dense.blocks_W()[0][0, 0] = 1.0

    def test_from_blocks_rejects_bad_blocks(self):
        with pytest.raises(ValueError, match="block 1"):
            GroupedNetwork.from_blocks([np.zeros((2, 2)), np.zeros((2, 3))],
                                       [np.zeros((2, 2)), np.zeros((2, 2))])
        with pytest.raises(ValueError, match="same"):
            GroupedNetwork.from_blocks([np.zeros((2, 2))], [np.zeros((3, 3))])
        with pytest.raises(ValueError, match="self-links"):
            GroupedNetwork.from_blocks([np.eye(2)], [np.zeros((2, 2))])

    def test_blockwise_lag_matches_dense(self):
        net = generate_mc_network(4, 6, 3, seed=2)
        V = np.random.default_rng(0).standard_normal((net.n, 3))
        np.testing.assert_allclose(net.lag_W(V), dense_W(net) @ V, atol=1e-12)
        np.testing.assert_allclose(net.lag_M(V), dense_M(net) @ V, atol=1e-12)


def test_lee_group_network_weights():
    net = lee_group_network([4, 6])
    assert dense_W(net)[0, 1] == pytest.approx(1 / 3)
    assert dense_W(net)[4, 5] == pytest.approx(1 / 5)
    assert np.all(np.diag(dense_W(net)) == 0)
    np.testing.assert_allclose(dense_W(net).sum(axis=1), 1.0)


class TestCsvIngestion:
    def test_roundtrip(self, tmp_path):
        from conftest import draw_dataset
        net, data, _, _, _ = draw_dataset(seed=9, group_count=3, group_size=5)
        edges, nodes = write_network_csvs(tmp_path, net, data)
        loaded_net, loaded_data = load_network(edges, nodes)
        np.testing.assert_allclose(dense_W(loaded_net), dense_W(net), atol=1e-12)
        np.testing.assert_allclose(dense_M(loaded_net), dense_M(net), atol=1e-12)
        np.testing.assert_allclose(loaded_data.y, data.y, atol=1e-9)
        np.testing.assert_allclose(loaded_data.x1, data.x1, atol=1e-9)

    def test_isolated_nodes_survive_via_node_file(self, tmp_path):
        (tmp_path / "edges.csv").write_text(
            "group_id,src,dst,weight\n1,0,1,1\n")
        (tmp_path / "nodes.csv").write_text(
            "group_id,node_id,x1,x2,y\n1,0,0.1,0.2,1\n1,1,0.3,0.4,2\n1,2,0.5,0.6,3\n")
        net, data = load_network(tmp_path / "edges.csv", tmp_path / "nodes.csv")
        assert net.n == 3
        assert dense_W(net).sum() == 1.0
        assert np.all(dense_W(net)[2] == 0)

    def test_deterministic_node_ordering(self, tmp_path):
        # rows shuffled on disk; loader sorts by (group_id, node_id)
        (tmp_path / "nodes.csv").write_text(
            "group_id,node_id,x1,x2,y\n"
            "2,1,4,4,4\n1,2,2,2,2\n1,1,1,1,1\n2,0,3,3,3\n")
        keys, data = load_node_csv(tmp_path / "nodes.csv")
        assert keys == [(1, 1), (1, 2), (2, 0), (2, 1)]
        np.testing.assert_array_equal(data.y, [1, 2, 3, 4])
        assert data.group_sizes == (2, 2)

    def test_edge_to_unknown_node_rejected(self, tmp_path):
        (tmp_path / "edges.csv").write_text("group_id,src,dst,weight\n1,0,9,1\n")
        (tmp_path / "nodes.csv").write_text(
            "group_id,node_id,x1,x2,y\n1,0,0,0,0\n1,1,0,0,0\n")
        with pytest.raises(ValueError, match="unknown node"):
            load_network(tmp_path / "edges.csv", tmp_path / "nodes.csv")

    def test_unknown_node_named_by_line_and_column(self, tmp_path):
        (tmp_path / "edges.csv").write_text(
            "group_id,src,dst,weight\n1,0,1,1\n\n1,7,0,1\n")
        (tmp_path / "nodes.csv").write_text(
            "group_id,node_id,x1,x2,y\n1,0,0,0,0\n1,1,0,0,0\n")
        with pytest.raises(ValueError, match=r"edges.csv, line 4, column 2 \(src\): "
                                             r"unknown node 7 in group 1$"):
            load_network(tmp_path / "edges.csv", tmp_path / "nodes.csv")

    def test_line_numbers_count_blank_and_multiline_records(self, tmp_path):
        (tmp_path / "nodes.csv").write_text(
            'group_id,node_id,x1,x2,y\n1,0,0,0,0\n\n1,"a\nb",0,0,0\n  \n1,2,0,0,x\n')
        with pytest.raises(ValueError, match=r"line 7, column 5 \(y\): not a number: 'x'"):
            load_node_csv(tmp_path / "nodes.csv")

    def test_repeated_node_rows_rejected_with_both_lines(self, tmp_path):
        (tmp_path / "nodes.csv").write_text(
            "group_id,node_id,x1,x2,y\n1,0,0,0,0\n1,1,0,0,0\n1, 01,0,0,0\n")
        with pytest.raises(ValueError, match=r"lines 3 and 4: repeated \(group_id, node_id\)"):
            load_node_csv(tmp_path / "nodes.csv")

    def test_mixed_node_id_kinds_rejected_in_an_edge_list(self, tmp_path):
        (tmp_path / "edges.csv").write_text("group_id,src,dst\n1,0,1\n1,1,b\n")
        with pytest.raises(ValueError, match=r"line 3, column 3 \(dst\): text id 'b' "
                                             r"among integer ids"):
            load_edge_csv(tmp_path / "edges.csv")

    def test_ids_sort_numerically_or_lexicographically(self, tmp_path):
        (tmp_path / "edges.csv").write_text(
            "group_id,src,dst\n10,b,a\n9,a,b\n9,b10,b\n9,b9,a\n")
        assert load_network(tmp_path / "edges.csv")[0].group_sizes == (4, 2)
        (tmp_path / "nodes.csv").write_text(
            "group_id,node_id,x1,x2,y\ng10,2,0,0,0\ng9,-3,0,0,0\ng9,10,0,0,0\n")
        keys, _ = load_node_csv(tmp_path / "nodes.csv")
        assert keys == [("g10", 2), ("g9", -3), ("g9", 10)]

    def test_node_keys_split_across_a_group_rejected(self, tmp_path):
        (tmp_path / "edges.csv").write_text("group_id,src,dst,weight\n1,0,1,1\n")
        with pytest.raises(ValueError, match="together"):
            load_edge_csv(tmp_path / "edges.csv", [(1, 0), (2, 0), (1, 1)])

    def test_missing_columns_rejected(self, tmp_path):
        (tmp_path / "bad.csv").write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="edge CSV needs"):
            load_edge_csv(tmp_path / "bad.csv")


class TestPanelData:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PanelData(y=np.zeros(4), x1=np.zeros((4, 1)), x2=np.zeros((4, 1)),
                      group_sizes=(3,))

    def test_regressors_stack_own_and_contextual(self, ring3_network):
        data = PanelData(y=np.zeros(3), x1=np.arange(3.0)[:, None],
                         x2=np.arange(3.0)[:, None], group_sizes=(3,))
        X = data.regressors(ring3_network)
        np.testing.assert_array_equal(X[:, 0], [0, 1, 2])
        np.testing.assert_array_equal(X[:, 1], dense_W(ring3_network) @ np.arange(3.0))
