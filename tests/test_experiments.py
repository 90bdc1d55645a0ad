"""Constructions, witnesses, the inclusion matrix, and the corpus draws."""

import math
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lacunary import (
    BlockEngine,
    CesaroC1,
    ConstantFamily,
    CounterexampleSpec,
    CustomFamily,
    ExpMinusOne,
    Explicit,
    ExponentSequence,
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
    build_thm37,
    build_thm38,
    classify_trajectory,
    geometric_tail,
    liminf_growth_estimate,
    random_bounded_sequence,
    run_inclusion_matrix,
)
from lacunary import convergence, experiments
from lacunary.convergence import BUNDLES, CONVERGES, DIVERGES, MODULAR_FLAGS, RAW_FLAGS, STRONG
from lacunary.errors import HypothesisUnsatisfiable
from reference import row_table, whole_draw_bounded_sequence


@pytest.mark.parametrize("horizon", [1, 7, 2**15, 2**15 + 1, 3 * 2**15 - 5])
@pytest.mark.parametrize("density", [0.001, 0.3, 1.0])
def test_chunked_exception_draws_match_whole_draws(horizon, density):
    """The exception draws, taken a chunk at a time, are the values and the RNG stream of
    whole draws, also at a ragged last chunk."""
    rng, whole = np.random.default_rng(horizon), np.random.default_rng(horizon)
    x = random_bounded_sequence(rng, horizon, 0.5, 0.3, density, 3.0)
    want = whole_draw_bounded_sequence(whole, horizon, 0.5, 0.3, density, 3.0)
    assert x.values.tobytes() == want.tobytes()
    assert rng.random(3).tobytes() == whole.random(3).tobytes()


def valid_draw(center, radius, density, scale):
    """Whether random_bounded_sequence accepts these bounds: a finite band and exceptions."""
    finite = math.isfinite((center + radius) - (center - radius))
    return finite and (density <= 0 or all(math.isfinite(center + s * scale * radius) for s in (-1.0, 1.0)))


EXTREME_CENTERS = st.sampled_from([0.0, -0.0, -2.5, 5e-324, 1e300, -1e300, 1.7976931348623157e308])
EXTREME_RADII = st.sampled_from([0.0, 5e-324, 1e-300, 0.3, 1e300, 8e307])


class TestDrawnPrefix:
    @given(
        seed=st.integers(0, 2**32 - 1),
        horizon=st.integers(1, 3000),
        center=EXTREME_CENTERS | st.floats(-1e6, 1e6),
        radius=EXTREME_RADII | st.floats(0.0, 1e3),
        density=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0),
        scale=st.sampled_from([0.0, 3.0]) | st.floats(0.0, 10.0),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_read_is_the_slice_of_the_eager_draw(self, seed, horizon, center, radius, density, scale, data):
        """Any [a, b), read in any order, into `out` or not, is the eager reference's slice bit for
        bit, also at extreme centers and radii (the values are lo + span * random(), pinned here
        against Generator.uniform), and the caller's generator ends where the eager draw leaves it."""
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if not valid_draw(center, radius, density, scale):
            with pytest.raises(ValueError):
                random_bounded_sequence(rng, horizon, center, radius, density, scale)
            return
        x = random_bounded_sequence(rng, horizon, center, radius, density, scale)
        want = whole_draw_bounded_sequence(ref_rng, horizon, center, radius, density, scale)
        for _ in range(data.draw(st.integers(1, 3), label="reads")):
            a = data.draw(st.integers(0, horizon), label="a")
            b = data.draw(st.integers(a, horizon), label="b")
            if data.draw(st.booleans(), label="into out"):
                out = np.full(b - a, np.nan)
                assert x.read(a, b, out=out) is out
            else:
                out = x.read(a, b)
            assert out.tobytes() == want[a:b].tobytes()
        assert x.values.tobytes() == want.tobytes()
        assert rng.random() == ref_rng.random()  # the reads leave the caller's generator alone

    @given(
        seed=st.integers(0, 2**32 - 1),
        blocks=st.integers(1, 6),
        m_max=st.integers(0, 4),
        extra=st.integers(2, 40),
        center=st.floats(-2.0, 2.0),
        radius=st.floats(0.0, 1.0),
        density=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0),
        scale=st.floats(0.0, 3.0),
        tile=st.sampled_from([1, 3, 8, 64, convergence._TILE]),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_engine_over_the_draw_is_the_engine_over_its_values(
        self, seed, blocks, m_max, extra, center, radius, density, scale, tile, data
    ):
        """For every family and matrix kind, an engine over a drawn prefix returns the bits of
        the same engine over a Sequence of the eager reference's values."""
        s = build_lacunary(Geometric(1, 2, blocks))
        out_len = s.last_index + m_max
        horizon = out_len + extra
        x = random_bounded_sequence(np.random.default_rng(seed), horizon, center, radius, density, scale)
        want = Sequence(whole_draw_bounded_sequence(
            np.random.default_rng(seed), horizon, center, radius, density, scale))
        matrix = data.draw(st.sampled_from([
            Identity(), CesaroC1(), Shift(d=2),
            row_table(tuple(((n, 0.5), (n + 1, 0.5)) for n in range(1, out_len + 1))),
            geometric_tail(0.5, x_bound=5.0),  # |x| <= |center| + scale * radius <= 5
        ]), label="matrix")
        family = data.draw(st.sampled_from([
            ConstantFamily(Power(2.0)), ConstantFamily(LinearSlope(1.0)), IndexScaledFamily(),
            IndexPowerFamily((1.0, 2.5, 1.5)), SpikeFamily(((2, 5.0), (9, 0.25)), default_slope=0.8),
            CustomFamily((Power(2.0), Table(((0.0, 0.0), (1.0, 0.5), (2.0, 3.0))), ExpMinusOne())),
        ]), label="family")
        p = SpaceParams(family=family, schedule=s, m_max=m_max, matrix=matrix, matrix_tol=1.0,
                        epsilon=data.draw(st.sampled_from([1e-3, 0.5])), L=0.25)
        with patch.object(convergence, "_TILE", tile):
            got, expected = BlockEngine([(p, BUNDLES)])(x), BlockEngine([(p, BUNDLES)])(want)
        for key in BUNDLES:
            assert got[0][key].per_m.tobytes() == expected[0][key].per_m.tobytes()

    def test_a_32_bit_draw_left_in_the_generator_stays_there(self):
        """advance drops the half-used 64-bit output of a 32-bit draw; the draw puts it back."""
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        for g in (rng, ref_rng):
            g.integers(0, 2**32, dtype=np.uint32)
        random_bounded_sequence(rng, 50, 0.0, 1.0, 0.1, 3.0)
        whole_draw_bounded_sequence(ref_rng, 50, 0.0, 1.0, 0.1, 3.0)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.integers(0, 2**32, 3, dtype=np.uint32).tolist() == ref_rng.integers(
            0, 2**32, 3, dtype=np.uint32).tolist()

    def test_pcg64dxsm_draws_as_eagerly(self):
        rng = np.random.Generator(np.random.PCG64DXSM(9))
        x = random_bounded_sequence(rng, 300, 0.5, 0.3, 0.2, 3.0)
        want = whole_draw_bounded_sequence(np.random.Generator(np.random.PCG64DXSM(9)), 300, 0.5, 0.3, 0.2, 3.0)
        assert x.read(17, 250).tobytes() == want[17:250].tobytes()

    @pytest.mark.parametrize("bits", [np.random.Philox, np.random.MT19937, np.random.SFC64])
    def test_a_generator_without_a_stepwise_advance_is_refused(self, bits):
        """Philox's advance counts blocks of outputs, and the others have none: no eager fallback."""
        with pytest.raises(ValueError, match="PCG64"):
            random_bounded_sequence(np.random.Generator(bits(1)), 10)

    def test_horizon_and_prefix_draw_nothing(self):
        x = random_bounded_sequence(np.random.default_rng(1), 10**15, 0.0, 1.0, 0.01, 3.0)
        assert x.horizon == len(x) == 10**15
        head = x.prefix(100)
        assert head.horizon == 100
        assert head.values.tobytes() == x.read(0, 100).tobytes()
        with pytest.raises(IndexError):
            head.read(0, 101)


def decisions(x, p):
    """The verdicts of the strong statistic and the modular exception density of x in space p."""
    stats = BlockEngine([(p, (STRONG, MODULAR_FLAGS))])(x)[0]
    return tuple(classify_trajectory(stats[key].sup).decision for key in (STRONG, MODULAR_FLAGS))


class TestBuildThm37:
    def test_default_schedule_is_powers_of_two(self):
        x, s, p = build_thm37(CounterexampleSpec(theorem="thm37", r_max=10))
        assert s.cut_points == tuple(0 if r == 0 else 2**r for r in range(11))

    def test_half_block_pattern_is_exact(self):
        x, s, p = build_thm37(CounterexampleSpec(theorem="thm37", nu=2.5, r_max=8))
        for r in range(1, s.num_blocks + 1):
            start = s.cut_points[r - 1]
            h_r = s.cut_points[r] - start
            half = math.ceil(h_r / 2)
            block_vals = x.values[start : s.cut_points[r]]
            assert np.all(block_vals[:half] == 2.5)
            assert np.all(block_vals[half:] == 0.0)

    def test_defining_inequality_at_each_cut(self):
        x, s, p = build_thm37(CounterexampleSpec(theorem="thm37", r_max=9))
        for r in range(1, s.num_blocks + 1):
            val = p.family.member(s.cut_points[r] + 1)(1.0)
            assert val < 2.0**-r

    def test_flags_mark_exactly_the_plateau(self):
        x, s, p = build_thm37(CounterexampleSpec(theorem="thm37", r_max=8))
        # one index per block, so each block's density is that index's flag
        unit_blocks = build_lacunary(Explicit(tuple(range(s.last_index + 1))))
        stats = BlockEngine([(replace(p, schedule=unit_blocks, m_max=0), (MODULAR_FLAGS,))])(x)[0]
        flags = stats[MODULAR_FLAGS].per_m[0] == 1.0
        expected = x.values[: s.last_index] > 0
        assert np.array_equal(flags, expected)

    def test_verdicts_witness_the_non_inclusion(self):
        x, s, p = build_thm37(CounterexampleSpec(theorem="thm37", r_max=14))
        assert decisions(x, p) == (CONVERGES, DIVERGES)

    def test_degenerate_zero_height(self):
        x, s, p = build_thm37(CounterexampleSpec(theorem="thm37", nu=0.0, r_max=6))
        assert not np.any(x.values)
        assert decisions(x, p) == (CONVERGES, CONVERGES)

    def test_non_vanishing_family_is_rejected(self):
        spec = CounterexampleSpec(theorem="thm37", r_max=5, family=ConstantFamily(Power(2.0)))
        with pytest.raises(HypothesisUnsatisfiable):
            build_thm37(spec)

    def test_wrong_theorem_tag(self):
        with pytest.raises(ValueError):
            build_thm37(CounterexampleSpec(theorem="thm38"))


class TestBuildThm38:
    def test_spike_inequality_holds_with_equality(self):
        x, s, p = build_thm38(CounterexampleSpec(theorem="thm38", r_max=10))
        h_alpha = s.block_lengths.astype(float) ** p.alpha
        for r in range(1, s.num_blocks + 1):
            n_r = s.cut_points[r]
            nu_r = x.values[n_r - 1]
            got = p.family.member(n_r)(nu_r / 1.0)
            assert got >= h_alpha[r - 1] * (1 - 1e-12)
            assert got == pytest.approx(h_alpha[r - 1], rel=1e-12)

    def test_spikes_are_the_only_mass(self):
        x, s, p = build_thm38(CounterexampleSpec(theorem="thm38", r_max=8))
        mask = np.zeros(x.horizon, dtype=bool)
        for r in range(1, s.num_blocks + 1):
            mask[s.cut_points[r] - 1] = True
        assert np.all(x.values[~mask] == 0.0)
        assert np.all(x.values[mask] > 0.0)

    def test_statistics_match_analytic_values(self):
        x, s, p = build_thm38(CounterexampleSpec(theorem="thm38", r_max=10))
        stats = BlockEngine([(p, (STRONG, MODULAR_FLAGS))])(x)[0]
        strong = stats[STRONG].per_m[0]
        assert np.all(strong >= 1.0 - 1e-9)
        dens = stats[MODULAR_FLAGS].per_m[0]
        assert dens == pytest.approx(1.0 / s.block_lengths.astype(float), rel=1e-12)

    def test_single_block_boundary_case(self):
        x, s, p = build_thm38(CounterexampleSpec(theorem="thm38", r_max=1))
        assert s.num_blocks == 1
        assert BlockEngine([(p, (STRONG,))])(x)[0][STRONG].per_m[0, 0] >= 1.0 - 1e-9

    def test_explicit_spike_heights(self):
        x, s, p = build_thm38(
            CounterexampleSpec(theorem="thm38", r_max=3, nu_values=(1.0, 10.0, 100.0))
        )
        assert x.values[s.cut_points[2] - 1] == 10.0

    def test_decreasing_heights_rejected(self):
        with pytest.raises(HypothesisUnsatisfiable):
            build_thm38(
                CounterexampleSpec(theorem="thm38", r_max=3, nu_values=(3.0, 2.0, 1.0))
            )

    def test_user_family_validated_at_spikes(self):
        weak = SpikeFamily(slopes=(), default_slope=1e-6)
        with pytest.raises(HypothesisUnsatisfiable):
            build_thm38(CounterexampleSpec(theorem="thm38", r_max=4, family=weak))

    def test_strong_verdict_diverges(self):
        x, s, p = build_thm38(CounterexampleSpec(theorem="thm38", r_max=10))
        assert decisions(x, p)[0] == DIVERGES


def _plain_params(schedule, **kw):
    defaults = dict(alpha=0.5, epsilon=0.5, L=0.0, m_max=2)
    defaults.update(kw)
    return SpaceParams(family=ConstantFamily(Power(2.0)), schedule=schedule, **defaults)


class TestInclusionMatrix:
    def test_constant_corpus_never_fails(self):
        s = build_lacunary(Geometric(1, 2, 6))
        p = _plain_params(s, L=1.5)
        corpus = [(Sequence(np.full(s.last_index + 2, 1.5)), p)] * 3
        report = run_inclusion_matrix(corpus, ["T31", "T33", "T35", "T36"])
        assert all(imp["status"] != "FAIL" for imp in report.implications)
        for theorem in ("T31", "T33", "T35", "T36"):
            assert report.theorem_results[theorem]["pass"]
        assert report.theorem_results["T31"]["block_inequality_violations"] == 0

    def test_random_corpus_t31_zero_fail(self):
        rng = np.random.default_rng(77)
        s = build_lacunary(Geometric(1, 2, 7))
        p = _plain_params(s)
        corpus = [
            (random_bounded_sequence(rng, s.last_index + 2, 0.0, 1.0), p) for _ in range(30)
        ]
        report = run_inclusion_matrix(corpus, ["T31"], beta=1.0)
        assert report.theorem_results["T31"]["fail_rows"] == 0
        assert report.theorem_results["T31"]["block_inequality_violations"] == 0

    def test_planted_t31_violation_is_counted(self):
        """x_k = eps with L = 0, M(u) = u**2 and alpha = beta: every raw flag is set and
        T31's sides are equal in every block.  With the floor scaled by 1 + 1e-6, the
        run and thm31_block_bounds both see rhs above lhs in every block."""
        s = build_lacunary(Geometric(1, 2, 6))
        p = _plain_params(s, alpha=1.0, epsilon=0.5)
        x = Sequence(np.full(s.last_index + p.m_max, p.epsilon))
        lhs, rhs = experiments.thm31_block_bounds(x, p, beta=1.0)
        assert np.array_equal(lhs, rhs) and np.all(lhs > 0)
        report = run_inclusion_matrix([(x, p)], ["T31"], beta=1.0)
        assert report.theorem_results["T31"]["block_inequality_violations"] == 0

        floor = experiments._thm31_floor
        with patch.object(experiments, "_thm31_floor", lambda q, b: floor(q, b) * (1 + 1e-6)):
            report = run_inclusion_matrix([(x, p)], ["T31"], beta=1.0)
            lhs, rhs = experiments.thm31_block_bounds(x, p, beta=1.0)
        assert report.theorem_results["T31"]["block_inequality_violations"] == s.num_blocks
        assert np.all(lhs < rhs)

    def test_planted_t31_violation_at_a_later_window_is_counted(self):
        """x = 0, 1, 0, 1, ... with eps = 0.5, M(u) = u**2 and alpha = beta = 1.  At m = 0 the
        ones are the exceptions and lhs = 4 rhs / (1 + 1e-6); at m = 1 every window mean is 0.5,
        so every index is an exception and, with the floor scaled by 1 + 1e-6, rhs is above lhs
        in every block.  Only a check at every window counts them."""
        s = build_lacunary(Geometric(1, 2, 6))
        p = _plain_params(s, alpha=1.0, epsilon=0.5, m_max=1)
        x = Sequence(np.arange(s.last_index + p.m_max) % 2.0)
        floor = experiments._thm31_floor
        with patch.object(experiments, "_thm31_floor", lambda q, b: floor(q, b) * (1 + 1e-6)):
            report = run_inclusion_matrix([(x, p)], ["T31"], beta=1.0)
            lhs, rhs = experiments.thm31_block_bounds(x, p, beta=1.0)
        assert np.all(lhs[0] > rhs[0]) and np.all(lhs[1] < rhs[1])
        assert report.theorem_results["T31"]["block_inequality_violations"] == s.num_blocks

    @given(
        blocks=st.integers(2, 6),
        alpha=st.sampled_from([0.3, 0.7, 1.0]),
        beta_is_one=st.booleans(),
        epsilon=st.sampled_from([0.25, 0.5, 1.0]),
        m_max=st.integers(0, 3),
        rho=st.sampled_from([0.7, 1.0, 1.3]),
        exponents=st.sampled_from([ExponentSequence(constant=1.0), ExponentSequence(constant=2.0),
                                   ExponentSequence(constant=None, per_index=(0.5, 1.5, 1.0))]),
        function=st.sampled_from([Power(2.0), Power(1.5), ExpMinusOne(), LinearSlope(1.0)]),
        density=st.sampled_from([0.0, 0.05, 0.2]),
        scale=st.sampled_from([1.0, 1.0 + 1e-6, 1.5, 4.0]),
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_t31_count_is_the_blocks_where_the_bound_fails_at_some_window(
        self, blocks, alpha, beta_is_one, epsilon, m_max, rho, exponents, function, density,
        scale, seed, size,
    ):
        """`inclusion`'s count equals the blocks where thm31_block_bounds' sides, on the same
        draws, fail at some m; a floor scaled past 1 plants failures at some windows."""
        s = build_lacunary(Geometric(1, 2, blocks))
        beta = 1.0 if beta_is_one else alpha
        p = SpaceParams(family=ConstantFamily(function), schedule=s, alpha=alpha, epsilon=epsilon,
                        m_max=m_max, rho=RhoSequence(constant=rho), exponents=exponents)
        rng = np.random.default_rng(seed)
        corpus = [(random_bounded_sequence(rng, s.last_index + m_max, 0.0, 1.0, density), p)
                  for _ in range(size)]
        floor = experiments._thm31_floor
        expected = 0
        with patch.object(experiments, "_thm31_floor", lambda q, b: floor(q, b) * scale):
            report = run_inclusion_matrix(corpus, ["T31"], beta=beta)
            for x, _ in corpus:
                lhs, rhs = experiments.thm31_block_bounds(x, p, beta=beta)
                with np.errstate(invalid="ignore"):
                    gap = rhs - lhs
                bad = np.where(np.isinf(rhs), lhs < rhs, gap > 1e-12 * np.maximum(1.0, np.abs(rhs)))
                expected += int(np.count_nonzero(bad.any(axis=0)))
        assert report.theorem_results["T31"]["block_inequality_violations"] == expected

    def test_thm37_row_is_witnessed(self):
        x, s, p = build_thm37(CounterexampleSpec(theorem="thm37", r_max=14))
        report = run_inclusion_matrix([(x, p)], ["T37"])
        assert report.theorem_results["T37"]["witnesses_found"] == 1
        assert report.witnesses[0]["strong"] == CONVERGES
        assert report.witnesses[0]["shat"] == DIVERGES

    def test_thm38_row_is_witnessed(self):
        x, s, p = build_thm38(CounterexampleSpec(theorem="thm38", r_max=14))
        report = run_inclusion_matrix([(x, p)], ["T38"])
        assert report.theorem_results["T38"]["witnesses_found"] == 1

    def test_empty_corpus(self):
        report = run_inclusion_matrix([], ["T31", "T35"])
        assert report.implications == ()
        assert report.theorem_results["T31"]["pass"]
        assert run_inclusion_matrix(iter(()), ["T31", "T35"]).to_dict() == report.to_dict()

    def test_generator_corpus_matches_the_list(self):
        """A corpus read lazily, one entry at a time, gives the report of the same list."""
        rng = np.random.default_rng(11)
        s = build_lacunary(Geometric(1, 2, 7))
        p = _plain_params(s)
        corpus = [
            (random_bounded_sequence(rng, s.last_index + 2, 0.0, 1.0, 0.05, 3.0), p)
            for _ in range(6)
        ]
        x37, _, p37 = build_thm37(CounterexampleSpec(theorem="thm37", r_max=8))
        x38, _, p38 = build_thm38(CounterexampleSpec(theorem="thm38", r_max=8))
        corpus += [(x37, p37), (x38, p38)]
        want = run_inclusion_matrix(corpus).to_dict()
        assert run_inclusion_matrix(entry for entry in corpus).to_dict() == want

    def test_one_engine_call_per_sequence_matches_one_engine_per_space(self):
        """T31 at beta != alpha: the family space at both alphas (and the plain
        space) come from one engine call per sequence, and the report equals
        the one computed with a separate engine for every space."""
        rng = np.random.default_rng(31)
        s = build_lacunary(Geometric(1, 2, 7))
        p = _plain_params(s, alpha=0.5, epsilon=0.3)
        corpus = [
            (random_bounded_sequence(rng, s.last_index + 2, 0.0, 1.0, 0.05, 3.0), p)
            for _ in range(5)
        ]
        x37, _, p37 = build_thm37(CounterexampleSpec(theorem="thm37", r_max=8))
        x38, _, p38 = build_thm38(CounterexampleSpec(theorem="thm38", r_max=8))
        corpus += [(x37, p37), (x38, p38)]

        built, calls = [], []

        class Counted(BlockEngine):
            def __init__(self, reads):
                super().__init__(reads)
                built.append(tuple(bundles for _, bundles in self.reads))

            def __call__(self, x):
                calls.append(x)
                return super().__call__(x)

        class OneEnginePerSpace:
            def __init__(self, reads):
                self.engines = [BlockEngine([read]) for read in reads]

            def __call__(self, x):
                return [engine(x)[0] for engine in self.engines]

        for theorems, reads in (  # per space (alpha, beta, plain), the bundles read of it
            (["T31"], ((STRONG,), (RAW_FLAGS,))),
            (experiments.THEOREMS, ((STRONG, MODULAR_FLAGS, RAW_FLAGS), (RAW_FLAGS,), (STRONG,))),
        ):
            built.clear()
            calls.clear()
            with patch.object(experiments, "BlockEngine", Counted):
                shared = run_inclusion_matrix(corpus, theorems, beta=0.8).to_dict()
            # the draws share one engine, each construction has its own; each computes what is read
            assert built == [reads] * 3
            assert len(calls) == len(corpus)
            with patch.object(experiments, "BlockEngine", OneEnginePerSpace):
                assert run_inclusion_matrix(corpus, theorems, beta=0.8).to_dict() == shared
            assert any(row["space"].endswith("alpha=0.8,flags=raw") for row in shared["verdicts"])
            assert shared["theorem_results"]["T31"]["block_inequality_violations"] == 0

    def test_reports_are_deterministic(self):
        def make():
            rng = np.random.default_rng(5)
            s = build_lacunary(Geometric(1, 2, 6))
            p = _plain_params(s)
            corpus = [
                (random_bounded_sequence(rng, s.last_index + 2, 0.0, 1.0), p)
                for _ in range(5)
            ]
            return run_inclusion_matrix(corpus, ["T31", "T35", "T36"]).to_dict()

        assert make() == make()

    def test_t36_growth_estimate_reported(self):
        s = build_lacunary(Geometric(1, 2, 5))
        p = SpaceParams(
            family=ConstantFamily(LinearSlope(2.0)), schedule=s, alpha=1.0, m_max=0
        )
        corpus = [(Sequence(np.full(s.last_index, 0.0)), p)]
        report = run_inclusion_matrix(corpus, ["T36"])
        est = report.theorem_results["T36"]["liminf"]
        assert est["gamma"] == pytest.approx(2.0)
        assert est["bounded_away"]


class TestGrowthEstimate:
    def test_linear_family_has_constant_ratio(self):
        est = liminf_growth_estimate(ConstantFamily(LinearSlope(3.0)))
        assert est.gamma == pytest.approx(3.0)
        assert est.bounded_away

    def test_vanishing_family_is_not_bounded_away(self):
        from lacunary import IndexScaledFamily

        est = liminf_growth_estimate(IndexScaledFamily(), k_range=range(1, 200))
        assert est.gamma == pytest.approx(1.0 / 199)
        assert est.gamma < 0.01


class TestRandomBoundedSequence:
    def test_values_within_band_without_exceptions(self):
        rng = np.random.default_rng(1)
        x = random_bounded_sequence(rng, 500, center=2.0, radius=0.5)
        assert np.all(np.abs(x.values - 2.0) <= 0.5)

    def test_exceptions_leave_the_band(self):
        rng = np.random.default_rng(2)
        x = random_bounded_sequence(
            rng, 2000, center=0.0, radius=1.0, exception_density=0.1, exception_scale=3.0
        )
        outside = np.abs(x.values) > 1.0
        assert 100 < int(np.count_nonzero(outside)) < 320
        assert np.all(np.abs(x.values[outside]) == 3.0)

    @given(
        seed=st.integers(0, 2**32 - 1),
        horizon=st.integers(1, 3000),
        center=st.sampled_from([0.0, -2.5, 1e3]) | st.floats(-1e6, 1e6),
        radius=st.floats(0.0, 1e3),
        density=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        scale=st.floats(0.0, 10.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_in_place_draw_is_the_where_formula(self, seed, horizon, center, radius, density, scale):
        """Bit for bit the fresh-array formula, and the generator ends in the same state."""
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        x = random_bounded_sequence(rng, horizon, center, radius, density, scale)
        want = where_formula(ref_rng, horizon, center, radius, density, scale)
        assert x.values.tobytes() == want.tobytes()
        assert rng.random(3).tobytes() == ref_rng.random(3).tobytes()


def where_formula(rng, horizon, center, radius, exception_density, exception_scale):
    """Test-only copy of the draw with one fresh array per step, merged by np.where."""
    values = rng.uniform(center - radius, center + radius, size=horizon)
    if exception_density > 0:
        mask = rng.random(horizon) < exception_density
        signs = np.where(rng.random(horizon) < 0.5, -1.0, 1.0)
        values = np.where(mask, center + signs * exception_scale * radius, values)
    return values
