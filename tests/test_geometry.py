import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from priobeacon.geometry import (
    Category,
    CategoryThresholds,
    DropMode,
    Point2D,
    RegionSpec,
    build_adjacency,
    categorize,
    category_counts,
    distance_to_danger,
    drop_nodes,
    save_scenario,
    scenario_to_text,
)

DEFAULT_REGION = RegionSpec()
DEFAULT_TH = CategoryThresholds()


class TestDistance:
    def test_three_four_five(self):
        assert distance_to_danger(Point2D(300, 400), Point2D(0, 0)) == pytest.approx(500.0)

    def test_coincident(self):
        assert distance_to_danger(Point2D(0, 0), Point2D(0, 0)) == 0.0

    def test_diagonal(self):
        assert distance_to_danger(Point2D(800, 800), Point2D(0, 0)) == pytest.approx(800 * math.sqrt(2))

    def test_symmetric(self):
        a, b = Point2D(12.5, -3.0), Point2D(-7.0, 44.0)
        assert distance_to_danger(a, b) == distance_to_danger(b, a)


class TestCategorize:
    def test_boundary_goes_to_more_dangerous(self):
        assert categorize(500.0, DEFAULT_TH) is Category.CAT2
        assert categorize(300.0, DEFAULT_TH) is Category.CAT1
        assert categorize(700.0, DEFAULT_TH) is Category.CAT3

    def test_zero_distance(self):
        assert categorize(0.0, DEFAULT_TH) is Category.CAT1

    def test_just_past_th3(self):
        assert categorize(700.001, DEFAULT_TH) is Category.UNCATEGORIZED

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            categorize(-1.0, DEFAULT_TH)

    @given(
        d_pair=st.tuples(st.floats(0, 5000), st.floats(0, 5000)),
        cuts=st.tuples(st.floats(1, 1000), st.floats(1, 1000), st.floats(1, 1000)),
    )
    def test_monotone_in_distance(self, d_pair, cuts):
        lo = sorted(set(cuts))
        if len(lo) < 3:
            return
        th = CategoryThresholds(*lo)
        d_a, d_b = sorted(d_pair)
        assert categorize(d_a, th) <= categorize(d_b, th)


class TestThresholds:
    def test_unordered_rejected(self):
        with pytest.raises(ValueError):
            CategoryThresholds(500, 300, 700)
        with pytest.raises(ValueError):
            CategoryThresholds(300, 300, 700)
        with pytest.raises(ValueError):
            CategoryThresholds(-1, 300, 700)


class TestDrop:
    def test_fixed_count_80(self):
        sc = drop_nodes(DEFAULT_REGION, DEFAULT_TH, 2e-5, DropMode.FIXED_COUNT, seed=1)
        assert sc.n_nodes == 80

    def test_rounding_to_zero(self):
        sc = drop_nodes(DEFAULT_REGION, DEFAULT_TH, 0.4 / DEFAULT_REGION.area, DropMode.FIXED_COUNT, seed=1)
        assert sc.n_nodes == 0

    def test_poisson_count_mean(self):
        # sample mean of the Poisson(80) count over many seeds
        counts = [
            drop_nodes(DEFAULT_REGION, DEFAULT_TH, 2e-5, DropMode.POISSON_COUNT, seed=s).n_nodes
            for s in range(10_000)
        ]
        assert 78 <= np.mean(counts) <= 82

    def test_seed_determinism(self):
        a = drop_nodes(DEFAULT_REGION, DEFAULT_TH, 2e-5, DropMode.FIXED_COUNT, seed=9)
        b = drop_nodes(DEFAULT_REGION, DEFAULT_TH, 2e-5, DropMode.FIXED_COUNT, seed=9)
        assert a == b

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            drop_nodes(DEFAULT_REGION, DEFAULT_TH, 0.0)
        with pytest.raises(ValueError):
            drop_nodes(DEFAULT_REGION, DEFAULT_TH, -1e-5)
        with pytest.raises(ValueError):
            RegionSpec(width=0, height=10)

    def test_partition_and_consistency(self):
        sc = drop_nodes(DEFAULT_REGION, DEFAULT_TH, 2e-5, seed=3)
        counts = category_counts(sc)
        assert sum(counts.values()) == sc.n_nodes
        for node in sc.nodes:
            d = distance_to_danger(node.position, sc.region.danger)
            assert abs(d - node.distance_to_danger) <= 1e-9 * max(d, 1.0)
            assert node.category is categorize(node.distance_to_danger, sc.thresholds)

    def test_uniformity_ks(self):
        sc = drop_nodes(RegionSpec(), DEFAULT_TH, 100_000 / DEFAULT_REGION.area, seed=5)
        assert sc.n_nodes == 100_000
        pos = sc.positions()
        for axis, extent in ((0, sc.region.width), (1, sc.region.height)):
            stat = stats.kstest(pos[:, axis], "uniform", args=(0, extent)).statistic
            # 1% critical value of the one-sample KS statistic
            assert stat < 1.628 / math.sqrt(sc.n_nodes)


class TestAdjacency:
    def _two_nodes(self, gap):
        sc = drop_nodes(DEFAULT_REGION, DEFAULT_TH, 2 / DEFAULT_REGION.area, seed=0)
        from dataclasses import replace

        from priobeacon.geometry import VehicleNode

        nodes = (
            VehicleNode(0, Point2D(100.0, 100.0), distance_to_danger(Point2D(100, 100), sc.region.danger), Category.CAT1),
            VehicleNode(1, Point2D(100.0 + gap, 100.0), distance_to_danger(Point2D(100 + gap, 100), sc.region.danger), Category.CAT1),
        )
        return replace(sc, nodes=nodes)

    def test_boundary_inclusive(self):
        adj = build_adjacency(self._two_nodes(699.0), 700.0)
        assert adj[0, 1] and adj[1, 0]

    def test_beyond_range(self):
        adj = build_adjacency(self._two_nodes(701.0), 700.0)
        assert not adj[0, 1] and not adj[1, 0]

    def test_complete_graph_edge_count(self):
        sc = drop_nodes(DEFAULT_REGION, DEFAULT_TH, 2e-5, seed=2)
        diagonal = math.hypot(sc.region.width, sc.region.height)
        adj = build_adjacency(sc, diagonal)
        # oracle: exhaustive pair enumeration
        expected = sum(
            1
            for i in range(sc.n_nodes)
            for j in range(i + 1, sc.n_nodes)
            if distance_to_danger(sc.nodes[i].position, sc.nodes[j].position) <= diagonal
        )
        assert expected == 80 * 79 // 2 == 3160
        assert adj.sum() // 2 == expected

    def test_symmetric_irreflexive_and_relabel_invariant(self):
        sc = drop_nodes(DEFAULT_REGION, DEFAULT_TH, 2e-5, seed=4)
        adj = build_adjacency(sc, 700.0)
        assert (adj == adj.T).all()
        assert not adj.diagonal().any()
        perm = np.random.default_rng(0).permutation(sc.n_nodes)
        from dataclasses import replace

        relabeled = replace(sc, nodes=tuple(sc.nodes[i] for i in perm))
        adj_p = build_adjacency(relabeled, 700.0)
        assert (adj_p == adj[np.ix_(perm, perm)]).all()


class TestScenarioFile:
    def test_writes_header_and_one_line_per_node(self, tmp_path):
        sc = drop_nodes(DEFAULT_REGION, DEFAULT_TH, 2e-5, DropMode.POISSON_COUNT, seed=11)
        path = tmp_path / "scenario.txt"
        save_scenario(sc, path)
        lines = path.read_text().splitlines()
        assert lines[:5] == [
            "region 2000.000000 2000.000000 1000.000000 1000.000000",
            "thresholds 300.000000 500.000000 700.000000",
            "density 2e-05",
            "seed 11",
            "mode poissoncount",
        ]
        assert len(lines) == 5 + sc.n_nodes
        for node, line in zip(sc.nodes, lines[5:]):
            nid, x, y, d, tok = line.split()
            assert int(nid) == node.id and tok == node.category.token
            assert abs(float(x) - node.position.x) <= 1e-6 and abs(float(y) - node.position.y) <= 1e-6
            assert abs(float(d) - node.distance_to_danger) <= 1e-6

    def test_save_is_deterministic(self, tmp_path):
        sc = drop_nodes(DEFAULT_REGION, DEFAULT_TH, 2e-5, seed=11)
        assert scenario_to_text(sc) == scenario_to_text(sc)


class TestSubsample:
    def test_preserves_categories_and_order(self):
        sc = drop_nodes(DEFAULT_REGION, DEFAULT_TH, 2e-5, seed=6)
        sub = sc.subsample(20, np.random.default_rng(0))
        assert sub.n_nodes == 20
        ids = [n.id for n in sub.nodes]
        assert ids == sorted(ids)
        by_id = {n.id: n for n in sc.nodes}
        for n in sub.nodes:
            assert by_id[n.id] == n
