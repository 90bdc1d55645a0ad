"""Densities, block statistics, flags, verdicts, and the proof inequalities."""

import math
from itertools import combinations
from dataclasses import replace
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lacunary import (
    BlockEngine,
    CesaroC1,
    ConstantFamily,
    CustomFamily,
    ExpMinusOne,
    ExponentSequence,
    Explicit,
    Geometric,
    Identity,
    IndexPowerFamily,
    IndexScaledFamily,
    LinearSlope,
    Power,
    RhoSequence,
    Sequence,
    Shift,
    SpaceParams,
    SpikeFamily,
    Table,
    build_lacunary,
    classify_trajectory,
    thm31_block_bounds,
)
from lacunary import convergence
from lacunary.convergence import (
    BUNDLES,
    CONVERGES,
    DIVERGES,
    MODULAR_FLAGS,
    RAW_FLAGS,
    STRONG,
)
from lacunary.errors import NonFiniteStatistic, SupportExceedsHorizon
import oracle
from reference import (
    block_average,
    lacunary_density,
    shat_flags,
    strong_block_statistic,
    thm33_block_bounds,
    thm34_triangle_bounds,
    triangle_gap_statistic,
    window_mean,
)


def brute_density(flags, n, alpha):
    count = sum(1 for f in flags[:n] if f)
    return count / n**alpha


def initial_density(flags, n, alpha):
    """|{k <= n : flag_k}| / n**alpha, the engine's raw density of x = flags on the block (0, n]."""
    one_block = build_lacunary(Explicit((0, n)))
    p = SpaceParams(family=ConstantFamily(LinearSlope(1.0)), schedule=one_block,
                    alpha=alpha, epsilon=0.5, m_max=0)
    x = Sequence(np.asarray(flags[:n], dtype=np.float64))
    return BlockEngine([(p, (RAW_FLAGS,))])(x)[0][RAW_FLAGS].per_m[0, 0]


class TestDensityOrderAlpha:
    def test_all_false(self):
        assert all(initial_density([False] * 20, n, 1.0) == 0.0 for n in (1, 7, 20))

    def test_squares_at_alpha_one(self):
        n_max = 10_000
        flags = [math.isqrt(n) ** 2 == n for n in range(1, n_max + 1)]
        assert initial_density(flags, n_max, 1.0) == pytest.approx(0.01)  # 100 squares below 10**4
        for n in (10, 100, 5000, 10_000):
            assert initial_density(flags, n, 1.0) == pytest.approx(brute_density(flags, n, 1.0))

    def test_squares_at_alpha_half(self):
        n_max = 10_000
        flags = [math.isqrt(n) ** 2 == n for n in range(1, n_max + 1)]
        assert initial_density(flags, n_max, 0.5) == pytest.approx(1.0)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            initial_density([True], 1, 0.0)
        with pytest.raises(ValueError):
            initial_density([True], 1, 1.5)


class TestLacunaryDensity:
    def test_no_flags(self):
        s = build_lacunary(Geometric(1, 2, 6))
        t = lacunary_density([False] * s.last_index, s, 1.0)
        assert np.all(t == 0.0)

    def test_all_flags(self):
        s = build_lacunary(Geometric(1, 2, 6))
        t = lacunary_density([True] * s.last_index, s, 1.0)
        assert np.all(t == 1.0)

    def test_half_block_flags_give_half(self):
        s = build_lacunary(Geometric(1, 2, 10))
        flags = np.zeros(s.last_index, dtype=bool)
        for r in range(1, s.num_blocks + 1):
            start = s.cut_points[r - 1]
            h_r = s.cut_points[r] - start
            flags[start : start + math.ceil(h_r / 2)] = True
        t = lacunary_density(flags, s, 1.0)
        # even block lengths: exactly one half
        assert t[-1] == pytest.approx(0.5)
        for r in range(2, s.num_blocks + 1):
            assert t[r - 1] == pytest.approx(0.5, abs=1.0 / s.block_lengths[r - 1])

    def test_short_flags_raise(self):
        s = build_lacunary(Geometric(1, 2, 4))
        with pytest.raises(ValueError):
            lacunary_density([True] * (s.last_index - 1), s, 1.0)


def plain_block_averages(x, s, L=0.0):
    """The engine's plain space: (1/h_r) * sum_{k in I_r} |x_k - L| (M(u) = u, m = 0, alpha = 1)."""
    p = SpaceParams(family=ConstantFamily(LinearSlope(1.0)), schedule=s, L=L, m_max=0)
    return BlockEngine([(p, (STRONG,))])(x)[0][STRONG].per_m[0]


class TestNTheta:
    def test_constant_at_limit(self):
        s = build_lacunary(Geometric(1, 2, 6))
        x = Sequence(np.full(s.last_index, 4.0))
        assert np.all(plain_block_averages(x, s, L=4.0) == 0.0)
        assert np.max(plain_block_averages(x, s)) == pytest.approx(4.0)

    def test_alternating_around_half(self):
        s = build_lacunary(Geometric(1, 2, 8))  # even block lengths
        vals = np.zeros(s.last_index)
        vals[1::2] = 1.0
        t = plain_block_averages(Sequence(vals), s, L=0.5)
        assert np.allclose(t, 0.5, rtol=0, atol=1e-15)

    def test_block_spikes_normalize_to_one(self):
        s = build_lacunary(Geometric(1, 2, 8))
        vals = np.zeros(s.last_index)
        for r in range(1, s.num_blocks + 1):
            vals[s.cut_points[r] - 1] = float(s.block_lengths[r - 1])  # h_r**1
        t = plain_block_averages(Sequence(vals), s)
        assert np.allclose(t, 1.0, rtol=1e-15, atol=0)

    def test_horizon_check(self):
        s = build_lacunary(Geometric(1, 2, 6))
        with pytest.raises(SupportExceedsHorizon):
            plain_block_averages(Sequence(np.full(s.last_index - 1, 1.0)), s)


def _params(schedule, family=None, **kw):
    fam = family if family is not None else ConstantFamily(LinearSlope(1.0))
    defaults = dict(alpha=1.0, epsilon=1e-3, L=0.0, m_max=0)
    defaults.update(kw)
    return SpaceParams(family=fam, schedule=schedule, **defaults)


ENGINE_FAMILIES = [
    ConstantFamily(Power(2.0)),
    ConstantFamily(Power(1.5)),
    IndexScaledFamily(),
    IndexPowerFamily((1.0, 2.5, 1.5)),
    SpikeFamily(((2, 5.0), (9, 0.25), (20, 3.0)), default_slope=0.8),
]


class TestStrongStatistic:
    def test_zero_at_limit(self):
        s = build_lacunary(Geometric(1, 2, 6))
        p = _params(s, L=2.5, m_max=3)
        x = Sequence(np.full(s.last_index + 3, 2.5))
        stats = BlockEngine([(p, BUNDLES)])(x)[0]
        for key in BUNDLES:
            assert stats[key].per_m.shape == (4, s.num_blocks)
            assert np.all(stats[key].per_m == 0.0)

    def test_collapses_to_ntheta(self):
        rng = np.random.default_rng(3)
        s = build_lacunary(Geometric(1, 2, 7))
        for alpha in (0.4, 1.0):
            p = _params(s, alpha=alpha, L=0.25)
            x = Sequence(rng.uniform(-1, 1, s.last_index))
            strong = BlockEngine([(p, (STRONG,))])(x)[0][STRONG].per_m[0]
            base = block_average(x, s, L=0.25)
            expected = base * s.block_lengths.astype(float) ** (1.0 - alpha)
            assert strong == pytest.approx(expected, rel=1e-12)

    def test_matches_window_mean_composition(self):
        rng = np.random.default_rng(5)
        s = build_lacunary(Explicit((0, 3, 8, 16)))
        p = _params(s, family=ConstantFamily(Power(2.0)), L=0.1, m_max=4,
                    rho=RhoSequence(constant=1.3))
        m = 4
        x = Sequence(rng.uniform(-2, 2, s.last_index + m))
        got = BlockEngine([(p, (STRONG,))])(x)[0][STRONG].per_m[m]
        # direct composition: window_mean per index, then family term, block mean
        shifted = x.values - 0.1
        for r in range(1, s.num_blocks + 1):
            total = 0.0
            for k in range(s.cut_points[r - 1] + 1, s.cut_points[r] + 1):
                t = abs(window_mean(shifted, m, k))
                total += Power(2.0)(t / 1.3)
            assert got[r - 1] == pytest.approx(total / s.block_lengths[r - 1], rel=1e-12)

    def test_flag_density_consistency(self):
        rng = np.random.default_rng(9)
        s = build_lacunary(Geometric(1, 2, 6))
        p = _params(s, family=ConstantFamily(Power(2.0)), epsilon=0.2, alpha=0.7)
        x = Sequence(rng.uniform(-1, 1, s.last_index))
        flags = shat_flags(x, p, 0)
        dens = BlockEngine([(p, (MODULAR_FLAGS,))])(x)[0][MODULAR_FLAGS].per_m[0]
        manual = np.array(
            [np.count_nonzero(flags[a:b]) for a, b in zip(s.cut_points, s.cut_points[1:])]
        ) / s.block_lengths.astype(float) ** p.alpha
        assert np.array_equal(dens, manual)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_uniform_bundle_matches_standalone(self, data):
        """The one-pass engine reproduces every standalone per-m statistic bit for bit."""
        assert_bundle_matches_standalone(data)

    @given(data=st.data(), tile=st.sampled_from([1, 3, 8, 64]))
    @settings(max_examples=40, deadline=None)
    def test_tiled_bundle_matches_standalone(self, data, tile):
        """Tile edges inside blocks and a ragged last tile leave every bit unchanged."""
        with patch.object(convergence, "_TILE", tile):
            assert_bundle_matches_standalone(data)

    @pytest.mark.parametrize(
        "family",
        [
            ConstantFamily(Power(2.0)),
            IndexPowerFamily((1.0, 2.5, 1.5, 2.0)),
            CustomFamily((Power(2.0), ExpMinusOne(), LinearSlope(0.5)) * 3 + (Power(1.5),)),
        ],
        ids=["power", "index_power", "custom"],
    )
    def test_multi_tile_prefix_matches_standalone(self, family):
        """k_R = 2**17 spans several tiles of the real size, with per-index rho."""
        rng = np.random.default_rng(17)
        s = build_lacunary(Geometric(1, 2, 17))
        assert s.last_index > 2 * convergence._TILE
        rho = RhoSequence(constant=None, per_index=tuple(rng.uniform(0.5, 2.0, s.last_index)))
        p = _params(s, family=family, m_max=2, rho=rho, epsilon=0.1, L=0.05, alpha=0.6)
        assert_engine_matches_standalone(Sequence(rng.uniform(-2, 2, s.last_index + 2)), p)

    @pytest.mark.parametrize("tile", [1, 3, 64, 128, 129, 700])
    def test_split_blocks_match_standalone(self, tile):
        """Blocks past the node width max(tile, 128), of odd and even lengths, split into
        nodes of numpy's pairwise tree, and small blocks packed around them."""
        rng = np.random.default_rng(tile)
        s = build_lacunary(Explicit((0, 3, 4, 300, 1301, 1302, 1310, 3357)))
        p = _params(s, family=IndexPowerFamily((1.0, 2.5, 1.5, 2.0)), m_max=3, epsilon=0.1,
                    L=0.05, alpha=0.6, exponents=ExponentSequence(constant=0.5))
        with patch.object(convergence, "_TILE", tile):
            assert_engine_matches_standalone(Sequence(rng.uniform(-2, 2, s.last_index + 3)), p)

    def test_overflowing_power_matches_standalone(self):
        """A finite term past float64 under its exponent is +inf in the engine and the reference alike."""
        s = build_lacunary(Geometric(1, 2, 5))
        p = _params(s, family=ConstantFamily(Power(2.0)), m_max=2,
                    exponents=ExponentSequence(constant=3.0))
        x = Sequence(np.full(s.last_index + 2, 1e150))  # each term (1e150**2)**3 overflows
        assert_engine_matches_standalone(x, p)
        assert np.all(BlockEngine([(p, (STRONG,))])(x)[0][STRONG].sup == math.inf)


@pytest.mark.parametrize("k", range(1, 8))
def test_a_power_of_two_window_multiplies_to_the_quotients_bits(k):
    """x / 2**k and x * 2**-k are the correctly rounded value of the same real, so the m-loop
    multiplies when m + 1 = 2**k: the same bits on every double, subnormal, infinite or NaN."""
    rng = np.random.default_rng(k)
    x = np.concatenate([
        rng.integers(0, 2**64, 10**5, dtype=np.uint64, endpoint=False).view(np.float64),
        10.0 ** rng.uniform(-320, 308, 10**5) * rng.choice([-1.0, 1.0], 10**5),
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         math.inf, -math.inf, math.nan],
    ])
    quotient, product = x.copy(), x.copy()
    with np.errstate(under="ignore", invalid="ignore"):
        quotient /= 2**k
        product *= 1.0 / 2**k
    assert quotient.tobytes() == product.tobytes()


PLAN_LENGTHS = st.one_of(
    st.integers(1, 5000),
    st.builds(lambda k, d: max(1, 2**k + d), st.integers(7, 17), st.integers(-9, 9)),
)


@given(
    lengths=st.lists(PLAN_LENGTHS, min_size=1, max_size=4),
    tile=st.sampled_from([1, 3, 8, 64, 128, 129, 2**15]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_tile_plan_adds_up_numpys_pairwise_sum(lengths, tile, seed):
    """The leaf sums of the tile plan, added up each block's tree, are `np.add.reduce`
    of the block bit for bit; the tiles cover the indices in order, each at most `tile`
    wide unless it is one leaf, and no leaf is wider than max(tile, 128)."""
    cuts = tuple(np.cumsum([0, *lengths]).tolist())
    plan = convergence._TilePlan(cuts, tile)
    rng = np.random.default_rng(seed)
    n = cuts[-1]
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)  # many magnitudes
    leaf_sums = np.empty((1, plan.leaves))
    leaf_counts = np.empty((1, plan.leaves), dtype=np.int64)
    end = 0
    for a, b, leaves, pieces in plan.tiles:
        assert a == end and b > a and b - a <= plan.width
        assert b - a <= tile or len(pieces) == 1
        end = b
        tile_values = values[a:b]
        assert all(s.stop - s.start <= max(tile, 128) for s in pieces)
        leaf_sums[0, leaves] = [np.add.reduce(tile_values[s]) for s in pieces]
        leaf_counts[0, leaves] = [np.count_nonzero(tile_values[s] > 0) for s in pieces]
    assert end == n
    want = np.array([np.add.reduce(values[a:b]) for a, b in zip(cuts, cuts[1:])])
    assert plan.block_sums(leaf_sums)[0].tobytes() == want.tobytes(), (
        "the leaf sums no longer add up to numpy's pairwise sum: has numpy's pairwise "
        f"algorithm changed? (numpy {np.__version__})"
    )
    counts = [np.count_nonzero(values[a:b] > 0) for a, b in zip(cuts, cuts[1:])]
    assert plan.block_sums(leaf_counts)[0].tolist() == counts


def standalone(x, p, m, key):
    """The reference trajectory of bundle `key` of space p at window m."""
    if key == STRONG:
        return strong_block_statistic(x, p, m)
    return lacunary_density(shat_flags(x, p, m, key), p.schedule, p.alpha)


def assert_stats_match_standalone(x, p, stats):
    """Every bundle of one engine result for space p equals the standalone statistics bit for
    bit, as one read-only (m_max + 1, R) array and its read-only sup over m."""
    for key, bundle in stats.items():
        assert bundle.per_m.dtype == np.float64
        assert bundle.per_m.shape == (p.m_max + 1, p.schedule.num_blocks)
        for m in range(p.m_max + 1):
            assert bundle.per_m[m].tobytes() == standalone(x, p, m, key).tobytes()
        assert bundle.sup.tobytes() == bundle.per_m.max(axis=0).tobytes()
        assert not bundle.per_m.flags.writeable and not bundle.sup.flags.writeable


def assert_engine_matches_standalone(x, p):
    """A one-space engine asked for every bundle equals the standalone statistics bit for bit."""
    stats = BlockEngine([(p, BUNDLES)])(x)[0]
    assert list(stats) == list(BUNDLES)
    assert_stats_match_standalone(x, p, stats)


def draw_terms(data, rng, s, families=ENGINE_FAMILIES):
    """The fields a space's terms depend on: family, rho (constant or per-index) and exponents."""
    if data.draw(st.booleans(), label="per-index rho"):
        rho = RhoSequence(constant=None, per_index=tuple(rng.uniform(0.5, 2.0, s.last_index)))
    else:
        rho = RhoSequence(constant=data.draw(st.sampled_from([1.0, 0.7, 1.9])))
    # per-index lists end inside, at and past tile boundaries, and past the last index
    lengths = st.integers(1, s.last_index + 3)
    if data.draw(st.booleans(), label="per-index exponents"):
        n = data.draw(lengths, label="exponents listed")
        exponents = ExponentSequence(constant=None, per_index=tuple(rng.choice([1.0, 2.0, 0.5, 1.3], n)))
    else:
        exponents = ExponentSequence(constant=data.draw(st.sampled_from([1.0, 0.5, 2.0, 1.7])))
    family = data.draw(st.sampled_from(families))
    if isinstance(family, IndexPowerFamily):
        n = data.draw(lengths, label="index_power exponents listed")
        family = IndexPowerFamily(tuple(rng.choice([1.0, 2.5, 1.5, 2.0], n)))
    return dict(family=family, rho=rho, exponents=exponents)


def assert_bundle_matches_standalone(data):
    """Draw a space and a prefix; the engine must equal the standalone statistics bitwise."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    s = build_lacunary(Geometric(1, 2, data.draw(st.integers(1, 6), label="blocks")))
    m_max = data.draw(st.integers(0, 6), label="m_max")
    p = _params(
        s,
        matrix=data.draw(st.sampled_from([Identity(), CesaroC1(), Shift(d=2)])),
        m_max=m_max,
        epsilon=data.draw(st.sampled_from([1e-3, 0.1, 0.5])),
        L=data.draw(st.sampled_from([0.0, 0.05, -0.3])),
        alpha=data.draw(st.sampled_from([1.0, 0.6])),
        **draw_terms(data, rng, s),
    )
    assert_engine_matches_standalone(Sequence(rng.uniform(-2, 2, s.last_index + m_max + 2)), p)


class TestSharedEngine:
    @given(data=st.data(), tile=st.sampled_from([1, 3, 8, 64]))
    @settings(max_examples=40, deadline=None)
    def test_every_space_of_every_call_matches_standalone(self, data, tile):
        """One engine over 1-3 spaces, called on several sequences in a row.

        Each (sequence, space) result equals the standalone statistics bit
        for bit, also on the call after one that raised, and results of
        earlier calls do not change when the engine's buffers are reused.
        """
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        s = build_lacunary(Geometric(1, 2, data.draw(st.integers(2, 6), label="blocks")))
        shared = dict(
            schedule=s,
            m_max=data.draw(st.integers(1, 4), label="m_max"),  # >= 1: a window can be inf - inf
            matrix=data.draw(st.sampled_from([Identity(), Shift(d=2)])),
            epsilon=data.draw(st.sampled_from([1e-3, 0.1, 0.5])),
            L=data.draw(st.sampled_from([0.0, 0.05, -0.3])),
        )
        spaces = []
        for _ in range(data.draw(st.integers(1, 3), label="spaces")):
            alpha = data.draw(st.sampled_from([1.0, 0.6, 0.35]))
            if spaces and data.draw(st.booleans(), label="same terms, other alpha"):
                spaces.append(replace(spaces[-1], alpha=alpha))
            else:
                spaces.append(SpaceParams(alpha=alpha, **shared, **draw_terms(data, rng, s)))
        horizon = s.last_index + shared["m_max"] + 2
        overflowing = Sequence(np.full(horizon, 1e308))  # its prefix sum is inf from index 2 on
        with patch.object(convergence, "_TILE", tile):
            engine = BlockEngine([(q, BUNDLES) for q in spaces])
            calls = []
            for _ in range(data.draw(st.integers(2, 4), label="calls")):
                if data.draw(st.booleans(), label="a raising call first"):
                    with pytest.raises(NonFiniteStatistic, match=r"NaN at m=\d+, block r=\d+"):
                        engine(overflowing)
                x = Sequence(rng.uniform(-2, 2, horizon))
                results = engine(x)
                assert len(results) == len(spaces)
                for p, stats in zip(spaces, results):
                    assert_stats_match_standalone(x, p, stats)
                calls.append((results, _bits(results)))
        for results, bits in calls:
            assert _bits(results) == bits

    def test_spaces_must_share_the_pass(self):
        s = build_lacunary(Geometric(1, 2, 4))
        p = _params(s, m_max=1)
        for other in (dict(L=0.5), dict(epsilon=0.2), dict(m_max=2), dict(matrix=CesaroC1()),
                      dict(schedule=build_lacunary(Geometric(1, 2, 5)))):
            with pytest.raises(ValueError, match="must agree"):
                BlockEngine([(p, BUNDLES), (replace(p, **other), (STRONG,))])
        with pytest.raises(ValueError, match="at least one space"):
            BlockEngine([])


def _bits(results):
    """The bytes of every bundle of one engine call."""
    return [
        a.tobytes() for stats in results for bundle in stats.values() for a in (bundle.per_m, bundle.sup)
    ]


SUBSET_FAMILIES = [
    ConstantFamily(Power(2.0)),
    IndexPowerFamily((1.0, 2.5, 2.0)),
    ConstantFamily(Table(((0.0, 0.0), (0.5, 0.2), (1.0, 1.0)))),
    CustomFamily((Power(2.0), Table(((0.0, 0.0), (1.0, 0.5), (2.0, 3.0))), LinearSlope(0.5),
                  ExpMinusOne())),
]
SUBSETS = [subset for size in (1, 2, 3) for subset in combinations(BUNDLES, size)]


EVERY_FAMILY = [*ENGINE_FAMILIES, *SUBSET_FAMILIES[2:], ConstantFamily(LinearSlope(1.0))]
PLAIN = ConstantFamily(LinearSlope(1.0))  # with rho 1 and exponents 1, the plain-average space


class TestBundleSubsets:
    @given(data=st.data(), tile=st.sampled_from([1, 3, 8, 64]))
    @settings(max_examples=40, deadline=None)
    def test_each_subset_is_the_full_engine_restricted(self, data, tile):
        """One engine over 1-4 spaces, each asked for its own nonempty subset of the bundles:
        each space gets exactly those bundles, each bit for bit a one-space engine asked for
        all bundles and the reference.  The spaces draw every family kind, constant and
        per-index rho, exponent sequences and alpha; some share a previous space's terms, and
        some are the plain-average space, whose terms are its deviations."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        s = build_lacunary(Geometric(1, 2, data.draw(st.integers(1, 6), label="blocks")))
        shared = dict(
            schedule=s,
            m_max=data.draw(st.integers(0, 4), label="m_max"),
            matrix=data.draw(st.sampled_from([Identity(), Shift(d=2)])),
            epsilon=data.draw(st.sampled_from([1e-3, 0.1, 0.5])),
            L=data.draw(st.sampled_from([0.0, 0.05, -0.3])),
        )
        reads = []
        for _ in range(data.draw(st.integers(1, 4), label="spaces")):
            terms = data.draw(st.sampled_from(["plain", "drawn", "as the previous space"]))
            if terms == "plain":
                fields = dict(family=PLAIN)
            elif terms == "drawn" or not reads:
                fields = draw_terms(data, rng, s, EVERY_FAMILY)
            else:
                q = reads[-1][0]
                fields = dict(family=q.family, rho=q.rho, exponents=q.exponents)
            alpha = data.draw(st.sampled_from([1.0, 0.6, 0.35]), label="alpha")
            reads.append((SpaceParams(alpha=alpha, **shared, **fields), data.draw(st.sampled_from(SUBSETS))))
        x = Sequence(rng.uniform(-2, 2, s.last_index + shared["m_max"] + 2))
        with patch.object(convergence, "_TILE", tile):
            results = BlockEngine(reads)(x)
            assert len(results) == len(reads)
            for (p, subset), stats in zip(reads, results):
                assert list(stats) == list(subset)
                (alone,) = BlockEngine([(p, BUNDLES)])(x)
                for key in subset:
                    got, want = stats[key], alone[key]
                    assert got.per_m.tobytes() == want.per_m.tobytes()
                    assert got.sup.tobytes() == want.sup.tobytes()
                assert_stats_match_standalone(x, p, stats)

    def test_a_nan_strong_sum_raises_only_when_strong_is_asked_for(self):
        """A window sum inf - inf is a NaN strong statistic, which raises; the flags of the
        same windows are exact counts, so an engine without STRONG returns them."""
        s = build_lacunary(Geometric(1, 2, 4))
        p = _params(s, family=ConstantFamily(Power(2.0)), m_max=2)
        huge = Sequence(np.full(s.last_index + 2, 1e308))  # its prefix sum is inf from index 2 on
        for subset in SUBSETS:
            if STRONG in subset:
                with pytest.raises(NonFiniteStatistic, match="NaN at m=1"):
                    BlockEngine([(p, subset)])(huge)
            else:
                assert list(BlockEngine([(p, subset)])(huge)[0]) == list(subset)

    def test_bundles_must_be_a_nonempty_subset(self):
        p = _params(build_lacunary(Geometric(1, 2, 4)))
        for bundles in ((), ("strong", "shat"), STRONG):  # a bare string is its characters
            with pytest.raises(ValueError, match="nonempty subset"):
                BlockEngine([(p, BUNDLES), (p, bundles)])
        engine = BlockEngine([(p, (RAW_FLAGS, STRONG, RAW_FLAGS)), (p, {MODULAR_FLAGS})])
        assert [bundles for _, bundles in engine.reads] == [(STRONG, RAW_FLAGS), (MODULAR_FLAGS,)]


class TestResultArrays:
    def test_results_are_read_only_and_never_alias_the_workspaces(self):
        """Each bundle is one read-only (m_max + 1, R) array and its read-only sup, bitwise
        per_m.max(axis=0); neither shares memory with a workspace of the engine, and the
        arrays of a first call are unchanged by a second call on another sequence."""
        rng = np.random.default_rng(8)
        s = build_lacunary(Geometric(1, 2, 9))
        p = _params(s, family=ConstantFamily(Power(2.0)), m_max=3, epsilon=0.1, L=0.05)
        reads = [(p, BUNDLES), (replace(p, family=PLAIN, alpha=0.6), BUNDLES),
                 (replace(p, rho=RhoSequence(constant=0.7)), (STRONG, MODULAR_FLAGS))]
        horizon = s.last_index + p.m_max
        with patch.object(convergence, "_TILE", 64):
            engine = BlockEngine(reads)
            first = engine(Sequence(rng.uniform(-2, 2, horizon)))
            bits = _bits(first)
            workspaces = [engine._c, engine._dev, engine._raw_flags,
                          *(a for g in engine._groups for a in (g.terms, g.flags) if a is not None)]
            for stats in first:
                for bundle in stats.values():
                    assert bundle.per_m.shape == (p.m_max + 1, s.num_blocks)
                    assert bundle.sup.tobytes() == bundle.per_m.max(axis=0).tobytes()
                    for a in (bundle.per_m, bundle.sup):
                        assert not a.flags.writeable
                        with pytest.raises(ValueError, match="read-only"):
                            a[...] = 0.0
                        assert not any(np.shares_memory(a, w) for w in workspaces)
            second = engine(Sequence(rng.uniform(-2, 2, horizon)))
        assert _bits(second) != bits
        assert _bits(first) == bits


class TestVerdicts:
    def test_constant_at_limit_converges(self):
        s = build_lacunary(Geometric(1, 2, 6))
        p = _params(s, L=1.0, m_max=2)
        x = Sequence(np.full(s.last_index + 2, 1.0))
        stats = BlockEngine([(p, BUNDLES)])(x)[0]
        for key in BUNDLES:
            assert classify_trajectory(stats[key].sup).decision == CONVERGES

    def test_flat_positive_trajectory_diverges(self):
        v = classify_trajectory(np.full(12, 0.8))
        assert v.decision == DIVERGES

    def test_decaying_trajectory_converges(self):
        v = classify_trajectory(1e-4 * 2.0 ** -np.arange(12))
        assert v.decision == CONVERGES

    def test_growing_midscale_is_inconclusive(self):
        v = classify_trajectory(np.linspace(0.001, 0.005, 12))
        assert v.decision == "Inconclusive"

    def test_infinite_tail_diverges_without_a_slope(self):
        """+inf is an honest "too large": no NaN slope, no warning."""
        for tail in ([1.0, math.inf, math.inf], [math.inf, 2.0, 1.0]):
            v = classify_trajectory(np.array(tail), tail_window=3)
            assert (v.decision, v.tail_mean, v.tail_slope) == (DIVERGES, math.inf, None)

    def test_finite_tail_whose_sum_overflows_has_a_finite_mean(self):
        """The sum 3.7e308 is past float64; the mean of the tail scaled by its max is not."""
        v = classify_trajectory(np.array([1e308, 1.7e308, 1e308]), tail_window=3)
        assert (v.decision, v.tail_mean) == (DIVERGES, 1.2333333333333335e308)
        assert v.tail_mean == pytest.approx(1e308 / 3 + 1.7e308 / 3 + 1e308 / 3, rel=1e-15)
        small = classify_trajectory(np.array([1e300, 1.7e300, 1e300]), tail_window=3)
        assert small.tail_mean == pytest.approx(v.tail_mean * 1e-8, rel=1e-15)

    def test_tail_window_one(self):
        v = classify_trajectory(np.array([1.0, 0.0]), tail_window=1)
        assert v.tail_slope == 0.0 and v.decision == CONVERGES

    def test_flat_tails_have_slope_exactly_zero(self):
        """The overflowing tail of ROADMAP item 4 (polyfit gave 1.35e292), and level tails
        whose mean rounds (0.1 * 7 is not 0.7)."""
        for tail in ([1e308, 1.7e308, 1e308], [1.0] * 4, [0.1] * 7, [5e-324] * 2, [1e300] * 11):
            v = classify_trajectory(np.array(tail), tail_window=len(tail))
            assert v.tail_slope == 0.0 == oracle.tail_slope(tail)
        assert classify_trajectory(np.array([1e308, 1.7e308, 1e308]), tail_window=3).decision == DIVERGES

    def test_slope_past_float64_is_none(self):
        v = classify_trajectory(np.array([-1.7e308, 1.7e308]), tail_window=2)
        assert v.tail_slope is None and v.decision == "Inconclusive"
        assert oracle.tail_slope([-1.7e308, 1.7e308]) > Fraction(np.finfo(np.float64).max)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        # any floats of magnitude up to 1e300, with subnormals and both zeros
        st.lists(st.one_of(st.floats(-1e300, 1e300), st.floats(-2.0**-1022, 2.0**-1022),
                           st.sampled_from([0.0, -0.0])), min_size=1, max_size=11),
        # one scale from 1e-300 to 1e300 times values in [-1, 1]
        st.tuples(st.floats(1e-300, 1e300), st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=11))
        .map(lambda p: [p[0] * v for v in p[1]]),
        # constant tails, and tails a few ulps off constant
        st.tuples(st.floats(-1e300, 1e300), st.integers(1, 11)).map(lambda p: [p[0]] * p[1]),
        st.tuples(st.floats(1e-300, 1e300), st.lists(st.integers(-4, 4), min_size=1, max_size=11))
        .map(lambda p: [p[0] * (1.0 + k * 2.0**-52) for k in p[1]]),
    ))
    def test_mean_and_slope_within_their_bound_of_the_exact_values(self, tail):
        """`tests/oracle.py` derives both bounds; they are not tuned to the results."""
        v = classify_trajectory(np.array(tail), tail_window=len(tail))
        assert abs(Fraction(v.tail_mean) - oracle.tail_mean(tail)) <= oracle.mean_bound(tail)
        if len(tail) == 1:
            assert v.tail_slope == 0.0
        else:
            assert abs(Fraction(v.tail_slope) - oracle.tail_slope(tail)) <= oracle.slope_bound(tail)

    def test_invariant_converges_iff_small_tail_and_slope(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            vals = np.abs(rng.normal(0, 0.01, size=rng.integers(3, 15)))
            v = classify_trajectory(vals, tol=1e-2)
            expected = v.tail_mean <= v.tol and v.tail_slope <= v.slope_slack
            assert (v.decision == CONVERGES) == expected


class TestProofInequalities:
    def test_thm31_lower_bound_random(self):
        rng = np.random.default_rng(42)
        schedules = [build_lacunary(Geometric(1, 2, 7)),
                     build_lacunary(Explicit((0, 4, 9, 20, 41, 80)))]
        fam = ConstantFamily(Power(2.0))
        for s in schedules:
            for alpha in (0.3, 1.0):
                p = _params(s, family=fam, alpha=alpha, epsilon=0.5, L=0.0, m_max=3,
                            exponents=ExponentSequence(constant=None, per_index=(0.5, 1.5)))
                for _ in range(20):
                    x = Sequence(rng.uniform(-2, 2, s.last_index + 3))
                    lhs, rhs = thm31_block_bounds(x, p, beta=1.0)
                    assert lhs.shape == rhs.shape == (p.m_max + 1, s.num_blocks)
                    assert np.all(lhs >= rhs - 1e-12 * np.maximum(1.0, np.abs(rhs)))

    def test_thm31_infinite_floor_bounds_nothing_without_exceptions(self):
        s = build_lacunary(Geometric(1, 2, 4))
        p = _params(s, family=ConstantFamily(ExpMinusOne()), epsilon=1e300, alpha=0.5)
        lhs, rhs = thm31_block_bounds(Sequence(np.zeros(s.last_index)), p, beta=1.0)
        assert np.all(lhs == 0.0) and np.all(rhs == 0.0)

    def test_thm31_requires_alpha_below_beta(self):
        s = build_lacunary(Geometric(1, 2, 5))
        p = _params(s, family=ConstantFamily(Power(2.0)), alpha=0.9)
        x = Sequence(np.full(s.last_index, 1.0))
        with pytest.raises(ValueError):
            thm31_block_bounds(x, p, beta=0.5)

    def test_thm33_upper_bound_random(self):
        rng = np.random.default_rng(43)
        s = build_lacunary(Geometric(1, 2, 7))
        fam = ConstantFamily(Power(2.0))
        p = _params(s, family=fam, alpha=1.0, epsilon=0.4, L=0.0, m_max=2)
        for _ in range(30):
            x = Sequence(rng.uniform(-1.5, 1.5, s.last_index + 2))
            T = float(np.max(np.abs(x.values)))
            lhs, rhs = thm33_block_bounds(x, p, T=T)
            assert lhs.shape == rhs.shape == (p.m_max + 1, s.num_blocks)
            assert np.all(lhs <= rhs + 1e-12 * np.maximum(1.0, rhs))

    def test_bounds_overflow_to_inf_and_never_return_nan(self):
        """Powers past float64 are +inf in every bound, with no exception or RuntimeWarning;
        a NaN statistic raises NonFiniteStatistic."""
        s = build_lacunary(Geometric(1, 2, 5))
        p = _params(s, family=ConstantFamily(Power(2.0)), m_max=2,
                    exponents=ExponentSequence(constant=3.0))
        ones = Sequence(np.ones(s.last_index + 2))
        lhs, rhs = thm33_block_bounds(ones, p, T=1e150)  # M(T)**3 = (1e300)**3
        assert np.all(np.isfinite(lhs)) and np.all(rhs == math.inf)
        lhs, rhs = thm34_triangle_bounds(ones, p, 0.0, 1e60, 0.5, 0.5)  # (M(1e60))**3 = (1e120)**3
        assert np.all(lhs == math.inf) and np.all(rhs == math.inf)
        with pytest.raises(ValueError, match=r"\|L1 - L2\| = inf is not finite"):
            thm34_triangle_bounds(ones, p, 1e308, -1e308, 0.5, 0.5)
        big = Sequence(np.full(s.last_index + 2, 1e150))
        lhs, rhs = thm31_block_bounds(big, p, beta=1.0)
        assert np.all(lhs == math.inf) and np.all(np.isfinite(rhs))
        lhs, rhs = thm33_block_bounds(big, p, T=1e150)
        assert np.all(lhs == math.inf) and np.all(rhs == math.inf)
        huge = Sequence(np.full(s.last_index + 2, 1e308))  # a window sum at m = 1 is inf - inf
        with pytest.raises(NonFiniteStatistic, match="NaN at m=1"):
            thm31_block_bounds(huge, p, beta=1.0)

    def test_thm34_triangle_random(self):
        rng = np.random.default_rng(44)
        s = build_lacunary(Geometric(1, 2, 6))
        fam = ConstantFamily(Power(2.0))
        for exps in (ExponentSequence(constant=1.0),
                     ExponentSequence(constant=None, per_index=(0.5, 2.0, 1.0))):
            p = _params(s, family=fam, alpha=0.8, m_max=2, exponents=exps)
            for _ in range(20):
                x = Sequence(rng.uniform(-2, 2, s.last_index + 2))
                L1, L2 = rng.uniform(-1, 1, 2)
                rho1, rho2 = rng.uniform(0.5, 2.0, 2)
                lhs, rhs = thm34_triangle_bounds(x, p, L1, L2, rho1, rho2)
                assert lhs.shape == rhs.shape == (p.m_max + 1, s.num_blocks)
                assert np.all(lhs <= rhs + 1e-12 * np.maximum(1.0, rhs))

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_thm34_gap_side_matches_the_reference(self, data):
        """T34's left side, the engine's strong statistic of the constant prefix |L1 - L2|,
        equals the kernel-over-the-prefix formula bit for bit in every row."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        s = build_lacunary(Geometric(1, 2, data.draw(st.integers(1, 7), label="blocks")))
        families = ENGINE_FAMILIES + [
            ConstantFamily(ExpMinusOne()),
            ConstantFamily(LinearSlope(1.0)),
            ConstantFamily(Table(((0.0, 0.0), (0.5, 0.2), (2.0, 3.0)))),
            CustomFamily((Power(2.0), ExpMinusOne(), LinearSlope(0.5))),
        ]
        terms = draw_terms(data, rng, s, families)
        p = _params(s, family=terms["family"], exponents=terms["exponents"],
                    m_max=data.draw(st.integers(0, 3), label="m_max"),
                    alpha=data.draw(st.sampled_from([1.0, 0.6]), label="alpha"))
        L1, L2 = (data.draw(st.sampled_from([0.0, 0.3, -1.25, 2.0, 1e60]), label=f"L{i}") for i in (1, 2))
        rho1, rho2 = (data.draw(st.sampled_from([0.5, 0.25, 0.7, 1.9]), label=f"rho{i}") for i in (1, 2))
        x = Sequence(rng.uniform(-2, 2, s.last_index + p.m_max))
        lhs, rhs = thm34_triangle_bounds(x, p, L1, L2, rho1, rho2)
        reference = triangle_gap_statistic(p, L1, L2, rho1, rho2)
        assert lhs.shape == rhs.shape == (p.m_max + 1, s.num_blocks)
        assert all(row.tobytes() == reference.tobytes() for row in lhs)
