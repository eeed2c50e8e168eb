import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from priobeacon.geometry import (
    Category,
    CategoryThresholds,
    DropMode,
    RegionSpec,
    build_adjacency,
    categorize,
    category_counts,
    drop_nodes,
    save_scenario,
    scenario_to_text,
)

DEFAULT_REGION = RegionSpec()
DEFAULT_TH = CategoryThresholds()


class TestCategorize:
    def test_boundary_goes_to_more_dangerous(self):
        assert categorize([500.0], DEFAULT_TH).tolist() == [Category.CAT2]
        assert categorize([300.0], DEFAULT_TH).tolist() == [Category.CAT1]
        assert categorize([700.0], DEFAULT_TH).tolist() == [Category.CAT3]

    def test_zero_distance(self):
        assert categorize([0.0], DEFAULT_TH).tolist() == [Category.CAT1]

    def test_just_past_th3(self):
        assert categorize([700.001], DEFAULT_TH).tolist() == [Category.UNCATEGORIZED]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            categorize([-1.0], DEFAULT_TH)

    @given(
        distances=st.lists(st.sampled_from([300.0, 500.0, 700.0]) | st.floats(0, 5000), max_size=20),
        cuts=st.tuples(st.floats(1, 1000), st.floats(1, 1000), st.floats(1, 1000)),
    )
    def test_matches_the_threshold_chain(self, distances, cuts):
        lo = sorted(set(cuts))
        th = CategoryThresholds(*lo) if len(lo) == 3 else DEFAULT_TH
        want = [
            Category.CAT1 if d <= th.th1 else Category.CAT2 if d <= th.th2 else Category.CAT3 if d <= th.th3
            else Category.UNCATEGORIZED
            for d in distances
        ]
        assert categorize(np.array(distances, dtype=float), th).tolist() == want

    def test_array_at_and_past_each_threshold(self):
        d = np.array([0.0, 300.0, np.nextafter(300.0, np.inf), 500.0, 700.0, np.nextafter(700.0, np.inf), 1e9])
        got = categorize(d, DEFAULT_TH)
        assert got.dtype == np.int64
        assert got.tolist() == [1, 1, 2, 2, 3, 4, 4]
        with pytest.raises(ValueError, match="non-negative"):
            categorize(np.array([10.0, -1e-9, 800.0]), DEFAULT_TH)

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
        for name in ("ids", "positions", "distances", "categories"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name
        for name in ("region", "thresholds", "density", "seed", "drop_mode"):
            assert getattr(a, name) == getattr(b, name), name

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            drop_nodes(DEFAULT_REGION, DEFAULT_TH, 0.0)
        with pytest.raises(ValueError):
            drop_nodes(DEFAULT_REGION, DEFAULT_TH, -1e-5)
        with pytest.raises(ValueError):
            RegionSpec(width=0, height=10)

    @pytest.mark.parametrize(
        "width, height", [(math.inf, 10.0), (10.0, math.nan), (1e200, 1e200), (-1.0, 10.0)]
    )
    def test_region_needs_finite_positive_sides_and_area(self, width, height):
        with pytest.raises(ValueError, match="positive and finite"):
            RegionSpec(width=width, height=height)

    def test_danger_point_defaults_to_center_and_must_lie_inside(self):
        region = RegionSpec(width=100.0, height=40.0)
        assert (region.danger_x, region.danger_y) == (50.0, 20.0)
        assert RegionSpec(100.0, 40.0, danger_x=0.0, danger_y=40.0).danger_y == 40.0
        for x, y in ((101.0, 0.0), (0.0, -1.0), (math.inf, 0.0)):
            with pytest.raises(ValueError, match="inside the region"):
                RegionSpec(100.0, 40.0, danger_x=x, danger_y=y)

    def test_rejects_an_infinite_expected_count(self):
        with pytest.raises(ValueError, match="finite"):
            drop_nodes(RegionSpec(1e154, 1e154), DEFAULT_TH, 1e100)

    def test_partition_and_consistency(self):
        sc = drop_nodes(DEFAULT_REGION, DEFAULT_TH, 2e-5, seed=3)
        counts = category_counts(sc)
        assert sum(counts.values()) == sc.n_nodes
        for (x, y), dist, cat in zip(sc.positions.tolist(), sc.distances.tolist(), sc.categories.tolist()):
            d = math.hypot(x - sc.region.danger_x, y - sc.region.danger_y)
            assert abs(d - dist) <= 1e-9 * max(d, 1.0)
            assert cat == categorize(dist, sc.thresholds)

    def test_uniformity_ks(self):
        sc = drop_nodes(RegionSpec(), DEFAULT_TH, 100_000 / DEFAULT_REGION.area, seed=5)
        assert sc.n_nodes == 100_000
        pos = sc.positions
        for axis, extent in ((0, sc.region.width), (1, sc.region.height)):
            stat = stats.kstest(pos[:, axis], "uniform", args=(0, extent)).statistic
            # 1% critical value of the one-sample KS statistic
            assert stat < 1.628 / math.sqrt(sc.n_nodes)


class TestAdjacency:
    def _two_nodes(self, gap):
        sc = drop_nodes(DEFAULT_REGION, DEFAULT_TH, 2 / DEFAULT_REGION.area, seed=0)
        positions = np.array([(100.0, 100.0), (100.0 + gap, 100.0)])
        distances = np.hypot(positions[:, 0] - sc.region.danger_x, positions[:, 1] - sc.region.danger_y)
        cats = np.full(2, Category.CAT1)
        return replace(sc, ids=np.arange(2), positions=positions, distances=distances, categories=cats)

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
            if math.hypot(*(sc.positions[i] - sc.positions[j])) <= diagonal
        )
        assert expected == 80 * 79 // 2 == 3160
        assert adj.sum() // 2 == expected

    def test_symmetric_irreflexive_and_relabel_invariant(self):
        sc = drop_nodes(DEFAULT_REGION, DEFAULT_TH, 2e-5, seed=4)
        adj = build_adjacency(sc, 700.0)
        assert (adj == adj.T).all()
        assert not adj.diagonal().any()
        perm = np.random.default_rng(0).permutation(sc.n_nodes)
        relabeled = sc.select(perm)
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
        for i, line in enumerate(lines[5:]):
            nid, x, y, d, tok = line.split()
            assert int(nid) == sc.ids[i] and tok == Category(sc.categories[i]).token
            assert abs(float(x) - sc.positions[i, 0]) <= 1e-6 and abs(float(y) - sc.positions[i, 1]) <= 1e-6
            assert abs(float(d) - sc.distances[i]) <= 1e-6

    def test_save_is_deterministic(self, tmp_path):
        sc = drop_nodes(DEFAULT_REGION, DEFAULT_TH, 2e-5, seed=11)
        assert scenario_to_text(sc) == scenario_to_text(sc)

    @pytest.mark.parametrize(
        "mode, seed, n, digest",
        [
            (DropMode.FIXED_COUNT, 1, 80, "cd8fe60463e27bbb6d5c917a1198f90912d2a30597f5d1f89b093e5d108b2aec"),
            (DropMode.POISSON_COUNT, 11, 68, "993afd5d2e44203a2a201b94a66e73560d37e064599ff1ca201feedc939c0dc5"),
        ],
    )
    def test_text_is_pinned(self, mode, seed, n, digest):
        # recorded when each node was one Python object; the array layout must write the same bytes
        sc = drop_nodes(DEFAULT_REGION, DEFAULT_TH, 2e-5, mode, seed=seed)
        assert sc.n_nodes == n
        assert hashlib.sha256(scenario_to_text(sc).encode("ascii")).hexdigest() == digest


class TestSubsample:
    def test_preserves_categories_and_order(self):
        sc = drop_nodes(DEFAULT_REGION, DEFAULT_TH, 2e-5, seed=6)
        sub = sc.subsample(20, np.random.default_rng(0))
        assert sub.n_nodes == 20
        ids = sub.ids.tolist()
        assert ids == sorted(ids)
        for name in ("positions", "distances", "categories"):  # ids are drop indices
            assert np.array_equal(getattr(sub, name), getattr(sc, name)[sub.ids]), name


class TestSelect:
    def test_mask_and_indices_pick_the_same_nodes(self):
        sc = drop_nodes(DEFAULT_REGION, DEFAULT_TH, 2e-5, seed=6)
        mask = sc.categories != Category.UNCATEGORIZED
        by_mask, by_index = sc.select(mask), sc.select(np.flatnonzero(mask))
        assert 0 < by_mask.n_nodes == int(mask.sum()) < sc.n_nodes
        for name in ("ids", "positions", "distances", "categories"):
            assert np.array_equal(getattr(by_mask, name), getattr(by_index, name)), name
            assert np.array_equal(getattr(by_mask, name), getattr(sc, name)[mask]), name
        assert (by_mask.region, by_mask.thresholds, by_mask.seed) == (sc.region, sc.thresholds, sc.seed)
        assert category_counts(by_mask)[Category.UNCATEGORIZED] == 0
        assert sc.select(np.zeros(sc.n_nodes, dtype=bool)).n_nodes == 0

    def test_adjacency_of_a_selection_is_the_sub_block(self):
        sc = drop_nodes(DEFAULT_REGION, DEFAULT_TH, 2e-5, seed=4)
        keep = np.array([70, 3, 41, 5, 12, 66, 0])
        adj = build_adjacency(sc, 700.0)
        assert np.array_equal(build_adjacency(sc.select(keep), 700.0), adj[np.ix_(keep, keep)])


class TestScenarioArrays:
    def test_arrays_are_read_only(self):
        sc = drop_nodes(DEFAULT_REGION, DEFAULT_TH, 2e-5, seed=6)
        for arr in (sc.ids, sc.positions, sc.distances, sc.categories, sc.subsample(5, np.random.default_rng(0)).ids):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_caller_array_stays_writable(self):
        sc = drop_nodes(DEFAULT_REGION, DEFAULT_TH, 2e-5, seed=6)
        distances = sc.distances.copy()
        replace(sc, distances=distances)
        assert distances.flags.writeable

    @pytest.mark.parametrize(
        "name, bad",
        [("ids", np.arange(79)), ("positions", np.zeros((80, 3))), ("distances", np.zeros(81)), ("categories", [])],
    )
    def test_mismatched_lengths_rejected(self, name, bad):
        sc = drop_nodes(DEFAULT_REGION, DEFAULT_TH, 2e-5, seed=6)
        with pytest.raises(ValueError, match="disagree") as exc:
            replace(sc, **{name: bad})
        assert f"{name} {np.shape(bad)}" in str(exc.value)
