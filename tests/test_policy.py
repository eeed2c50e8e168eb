import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from priobeacon.geometry import Category
from priobeacon.policy import BackoffPolicy, BackoffRange, backoff_range, draw_matrix

CATS = [Category.CAT1, Category.CAT2, Category.CAT3]


class TestRanges:
    def test_proposed_cw127(self):
        pol = BackoffPolicy.proposed(127)
        assert backoff_range(pol, Category.CAT1) == BackoffRange(0, 42)
        assert backoff_range(pol, Category.CAT2) == BackoffRange(43, 84)
        assert backoff_range(pol, Category.CAT3) == BackoffRange(85, 126)

    def test_proposed_cw127_partition_by_enumeration(self):
        pol = BackoffPolicy.proposed(127)
        covered = []
        for cat in CATS:
            r = backoff_range(pol, cat)
            covered.extend(range(r.lo, r.hi + 1))
        assert sorted(covered) == list(range(127))
        assert len(covered) == len(set(covered))

    def test_traditional_full_window(self):
        pol = BackoffPolicy.traditional(15)
        for cat in Category:
            assert backoff_range(pol, cat) == BackoffRange(0, 14)

    def test_uncategorized_uses_cat3_range(self):
        pol = BackoffPolicy.proposed(127)
        assert backoff_range(pol, Category.UNCATEGORIZED) == backoff_range(pol, Category.CAT3)

    def test_smallest_window(self):
        pol = BackoffPolicy.proposed(3)
        assert backoff_range(pol, Category.CAT1) == BackoffRange(0, 0)
        assert backoff_range(pol, Category.CAT2) == BackoffRange(1, 1)
        assert backoff_range(pol, Category.CAT3) == BackoffRange(2, 2)

    def test_proposed_rejects_small_cw(self):
        with pytest.raises(ValueError):
            BackoffPolicy.proposed(2)
        with pytest.raises(ValueError):
            BackoffPolicy.traditional(0)

    @given(cw=st.integers(3, 4096))
    def test_partition_property(self, cw):
        pol = BackoffPolicy.proposed(cw)
        ranges = [backoff_range(pol, cat) for cat in CATS]
        total = 0
        for r in ranges:
            assert 0 <= r.lo <= r.hi <= cw - 1
            total += r.hi - r.lo + 1
        assert total == cw
        assert ranges[0].hi < ranges[1].lo
        assert ranges[1].hi < ranges[2].lo
        assert ranges[0].lo == 0 and ranges[2].hi == cw - 1

    @given(cw=st.integers(3, 4096))
    def test_priority_ordering(self, cw):
        pol = BackoffPolicy.proposed(cw)
        r1, r2, r3 = (backoff_range(pol, c) for c in CATS)
        assert max(range(r1.lo, r1.hi + 1)) < min(range(r2.lo, r2.hi + 1))
        assert max(range(r2.lo, r2.hi + 1)) < min(range(r3.lo, r3.hi + 1))


class TestDraws:
    def test_proposed_cat1_mean(self):
        pol = BackoffPolicy.proposed(127)
        rng = np.random.default_rng(0)
        draws = draw_matrix(pol, np.full(1, int(Category.CAT1)), 1_000_000, rng)
        assert abs(draws.mean() - 21.0) < 0.5

    def test_traditional_mean(self):
        pol = BackoffPolicy.traditional(127)
        rng = np.random.default_rng(1)
        draws = draw_matrix(pol, np.full(1, int(Category.UNCATEGORIZED)), 1_000_000, rng)
        assert abs(draws.mean() - 63.0) < 0.5

    def test_degenerate_cat1_cw3(self):
        pol = BackoffPolicy.proposed(3)
        draws = draw_matrix(pol, np.full(3, int(Category.CAT1)), 50, np.random.default_rng(2))
        assert (draws == 0).all()

    def test_draws_within_declared_range(self):
        rng = np.random.default_rng(3)
        for cw in (3, 15, 127, 511):
            pol = BackoffPolicy.proposed(cw)
            for cat in Category:
                r = backoff_range(pol, cat)
                draws = draw_matrix(pol, np.full(4, int(cat)), 500, rng)
                assert draws.min() >= r.lo and draws.max() <= r.hi

    def test_traditional_uniform_chi_square(self):
        # goodness of fit at the 1% level on 10^6 draws
        pol = BackoffPolicy.traditional(127)
        rng = np.random.default_rng(4)
        draws = draw_matrix(pol, np.full(1, int(Category.CAT1)), 1_000_000, rng).ravel()
        observed = np.bincount(draws, minlength=127)
        expected = np.full(127, draws.size / 127)
        stat = (((observed - expected) ** 2) / expected).sum()
        assert stat < stats.chi2.ppf(0.99, df=126)

    def test_seed_determinism(self):
        pol = BackoffPolicy.proposed(127)
        cats = np.array([1, 2, 3, 4], dtype=np.int64)
        a = draw_matrix(pol, cats, 100, np.random.default_rng(7))
        b = draw_matrix(pol, cats, 100, np.random.default_rng(7))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", ["traditional", "proposed"])
    @pytest.mark.parametrize("cw", [3, 15, 127, 511])
    def test_each_column_draws_from_its_node_range(self, kind, cw):
        # reference: one backoff_range call per node, in one generator call
        pol = getattr(BackoffPolicy, kind)(cw)
        cats = np.array([4, 1, 3, 3, 2, 1, 4, 2], dtype=np.int64)
        lo = np.array([backoff_range(pol, Category(c)).lo for c in cats.tolist()])
        hi = np.array([backoff_range(pol, Category(c)).hi for c in cats.tolist()])
        want = np.random.default_rng(cw).integers(lo, hi + 1, size=(60, cats.size))
        assert np.array_equal(draw_matrix(pol, cats, 60, np.random.default_rng(cw)), want)

    @pytest.mark.parametrize("kind", ["traditional", "proposed"])
    @pytest.mark.parametrize("cw", [15, 127, 511])
    @pytest.mark.parametrize("chunk", [1, 7, 50])
    def test_draws_in_row_chunks_equal_one_draw(self, kind, cw, chunk):
        # sim draws an aligned run chunk by chunk from one generator; this is why that changes no draw
        pol = getattr(BackoffPolicy, kind)(cw)
        cats = np.array([4, 1, 3, 3, 2, 1, 4, 2, 1], dtype=np.int64)
        rng = np.random.default_rng(cw)
        chunks = [draw_matrix(pol, cats, min(chunk, 120 - first), rng) for first in range(0, 120, chunk)]
        assert np.array_equal(np.concatenate(chunks), draw_matrix(pol, cats, 120, np.random.default_rng(cw)))

    @pytest.mark.parametrize("cw", [3, 4, 15, 127, 511, 3 * 2**31 + 4, 3 * 2**32, 2**40])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_per_column_draws_keep_the_generator_stream(self, cw, seed):
        # draw_matrix maps raw 32-bit outputs for per-column bounds; numpy's per-column call is the
        # reference for the matrix, the generator state after it and the next call's draws.  cw 3
        # and 4 have width-1 columns, which numpy draws nothing for; at 3 * 2^31 + 4 the widths
        # are 2^31 + 1 and 2^31 + 2, about half of all outputs reject and the fallback runs; at
        # 3 * 2^32 every width is 2^32, where numpy returns the output itself; at 2^40 the widths
        # exceed 2^32.  Odd element counts leave half of a 64-bit output buffered.
        pol = BackoffPolicy.proposed(cw)
        cats = np.array([4, 1, 3, 3, 2, 1, 4, 2, 1], dtype=np.int64)
        lo = np.array([backoff_range(pol, Category(c)).lo for c in cats.tolist()])
        hi = np.array([backoff_range(pol, Category(c)).hi for c in cats.tolist()])
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for periods in (37, 11):
            draws = draw_matrix(pol, cats, periods, rng)
            assert np.array_equal(draws, ref.integers(lo, hi + 1, size=(periods, cats.size)))
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("top", [1, 14, 510, 2**16, 2**31 - 1])
    def test_int32_draws_equal_int64_draws(self, top):
        # draw_matrix draws int32 when every value fits; numpy's bounded draws of a range of up
        # to 2^32 values do not depend on the dtype, for scalar and per-column bounds alike, and
        # leave the generator where the int64 draw would, so a second call matches too
        lo = np.array([0, top // 3, 0, top, (2 * top) // 3])
        hi = np.array([top // 3, (2 * top) // 3, top, top, top])
        for low, high in ((0, top + 1), (lo, hi + 1)):
            narrow, wide = np.random.default_rng(top), np.random.default_rng(top)
            for periods in (37, 11):
                a = narrow.integers(low, high, size=(periods, 5), dtype=np.int32)
                b = wide.integers(low, high, size=(periods, 5), dtype=np.int64)
                assert a.dtype == np.int32 and np.array_equal(a, b)

    @pytest.mark.parametrize("kind", ["traditional", "proposed"])
    @pytest.mark.parametrize("cw, dtype", [(511, np.int32), (2**31, np.int32), (2**31 + 1, np.int64), (2**40, np.int64)])
    def test_draws_are_int32_where_the_window_fits(self, kind, cw, dtype):
        pol = getattr(BackoffPolicy, kind)(cw)
        cats = np.array([4, 1, 3, 3, 2, 1, 4, 2, 1], dtype=np.int64)
        draws = draw_matrix(pol, cats, 20, np.random.default_rng(5))
        assert draws.dtype == dtype and draws.max() <= cw - 1
