"""Constructions, witnesses, the inclusion matrix, and limit uniqueness."""

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
    Explicit,
    Geometric,
    LinearSlope,
    Power,
    Sequence,
    SpaceParams,
    SpikeFamily,
    build_lacunary,
    build_thm37,
    build_thm38,
    classify_trajectory,
    liminf_growth_estimate,
    random_bounded_sequence,
    run_inclusion_matrix,
    uniqueness_experiment,
)
from lacunary import experiments
from lacunary.convergence import CONVERGES, DIVERGES, MODULAR_FLAGS, STRONG
from lacunary.errors import HypothesisUnsatisfiable


def decisions(x, p):
    """The verdicts of the strong statistic and the modular exception density of x in space p."""
    stats = BlockEngine([p])(x)[0]
    return tuple(classify_trajectory(stats[key].sup.values).decision for key in (STRONG, MODULAR_FLAGS))


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
        stats = BlockEngine([replace(p, schedule=unit_blocks, m_max=0)])(x)[0]
        flags = stats[MODULAR_FLAGS].per_m[0].values == 1.0
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
        spec = CounterexampleSpec(
            theorem="thm37", r_max=5, family=ConstantFamily(Power(2.0)), horizon_cap=1 << 12
        )
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
        stats = BlockEngine([p])(x)[0]
        strong = stats[STRONG].per_m[0].values
        assert np.all(strong >= 1.0 - 1e-9)
        dens = stats[MODULAR_FLAGS].per_m[0].values
        assert dens == pytest.approx(1.0 / s.block_lengths.astype(float), rel=1e-12)

    def test_single_block_boundary_case(self):
        x, s, p = build_thm38(CounterexampleSpec(theorem="thm38", r_max=1))
        assert s.num_blocks == 1
        assert BlockEngine([p])(x)[0][STRONG].per_m[0].values[0] >= 1.0 - 1e-9

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
            def __init__(self, spaces):
                super().__init__(spaces)
                built.append(len(self.spaces))

            def __call__(self, x):
                calls.append(x)
                return super().__call__(x)

        class OneEnginePerSpace:
            def __init__(self, spaces):
                self.engines = [BlockEngine([q]) for q in spaces]

            def __call__(self, x):
                return [engine(x)[0] for engine in self.engines]

        for theorems, spaces in ((["T31"], 2), (experiments.THEOREMS, 3)):
            built.clear()
            calls.clear()
            with patch.object(experiments, "BlockEngine", Counted):
                shared = run_inclusion_matrix(corpus, theorems, beta=0.8).to_dict()
            assert built == [spaces] * 3  # the draws share one engine, each construction has its own
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


class TestUniqueness:
    def test_constant_sequence_argmin_at_value(self):
        s = build_lacunary(Geometric(1, 2, 6))
        p = _plain_params(s, alpha=1.0, m_max=1)
        x = Sequence(np.full(s.last_index + 1, 5.0))
        rep = uniqueness_experiment(x, p, [4.9, 5.0, 5.1])
        assert rep.argmin_L == 5.0
        assert rep.status == "UNIQUE"
        assert rep.passed

    def test_cesaro_alternating_argmin_at_half(self):
        s = build_lacunary(Geometric(1, 2, 12))
        p = SpaceParams(
            family=ConstantFamily(Power(1.0)),
            schedule=s,
            alpha=1.0,
            m_max=1,
            matrix=CesaroC1(),
        )
        vals = np.zeros(s.last_index + 1)
        vals[1::2] = 1.0
        rep = uniqueness_experiment(Sequence(vals), p, [0.3, 0.4, 0.5, 0.6, 0.7])
        assert rep.argmin_L == 0.5
        assert rep.status == "UNIQUE"

    def test_spike_construction_has_no_limit(self):
        x, s, p = build_thm38(CounterexampleSpec(theorem="thm38", r_max=8))
        rep = uniqueness_experiment(x, p, [-1.0, 0.0, 1.0])
        assert rep.status == "NO_LIMIT"
        assert min(rep.tail_means) >= 0.9


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
