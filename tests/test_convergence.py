"""Densities, block statistics, flags, verdicts, and the proof inequalities."""

import math

import numpy as np
import pytest

from lacunary import (
    CesaroC1,
    ConstantFamily,
    ExponentSequence,
    Explicit,
    Geometric,
    Identity,
    LinearSlope,
    Power,
    RhoSequence,
    Sequence,
    SpaceParams,
    build_lacunary,
    classify_trajectory,
    density_order_alpha,
    lacunary_density,
    ntheta_norm,
    ntheta_statistic,
    shat_flags,
    strong_block_statistic,
    thm31_block_bounds,
    thm33_block_bounds,
    thm34_triangle_bounds,
    uniform_trajectories,
    uniform_verdict,
    window_mean,
)
from lacunary.convergence import (
    CONVERGES,
    DIVERGES,
    MODULAR_FLAGS,
    RAW_FLAGS,
    SHAT_DENSITY,
    STRONG,
)
from lacunary.errors import FlagsShorterThanSchedule, HorizonTooShort


def brute_density(flags, n, alpha):
    count = sum(1 for f in flags[:n] if f)
    return count / n**alpha


class TestDensityOrderAlpha:
    def test_all_false(self):
        d = density_order_alpha([False] * 20, 1.0)
        assert np.all(d == 0.0)

    def test_squares_at_alpha_one(self):
        n_max = 10_000
        flags = [math.isqrt(n) ** 2 == n for n in range(1, n_max + 1)]
        d = density_order_alpha(flags, 1.0)
        assert d[-1] == pytest.approx(0.01)  # 100 squares below 10**4
        for n in (10, 100, 5000, 10_000):
            assert d[n - 1] == pytest.approx(brute_density(flags, n, 1.0))

    def test_squares_at_alpha_half(self):
        n_max = 10_000
        flags = [math.isqrt(n) ** 2 == n for n in range(1, n_max + 1)]
        d = density_order_alpha(flags, 0.5)
        assert d[-1] == pytest.approx(1.0)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            density_order_alpha([True], 0.0)
        with pytest.raises(ValueError):
            density_order_alpha([True], 1.5)


class TestLacunaryDensity:
    def test_no_flags(self):
        s = build_lacunary(Geometric(1, 2, 6))
        t = lacunary_density([False] * s.last_index, s, 1.0)
        assert np.all(t.values == 0.0)

    def test_all_flags(self):
        s = build_lacunary(Geometric(1, 2, 6))
        t = lacunary_density([True] * s.last_index, s, 1.0)
        assert np.all(t.values == 1.0)

    def test_half_block_flags_give_half(self):
        s = build_lacunary(Geometric(1, 2, 10))
        flags = np.zeros(s.last_index, dtype=bool)
        for r in range(1, s.num_blocks + 1):
            start = s.cut_points[r - 1]
            h_r = s.cut_points[r] - start
            flags[start : start + math.ceil(h_r / 2)] = True
        t = lacunary_density(flags, s, 1.0)
        # even block lengths: exactly one half
        assert t.values[-1] == pytest.approx(0.5)
        for r in range(2, s.num_blocks + 1):
            assert t.values[r - 1] == pytest.approx(0.5, abs=1.0 / s.block_lengths[r - 1])

    def test_short_flags_raise(self):
        s = build_lacunary(Geometric(1, 2, 4))
        with pytest.raises(FlagsShorterThanSchedule):
            lacunary_density([True] * (s.last_index - 1), s, 1.0)


class TestNTheta:
    def test_constant_at_limit(self):
        s = build_lacunary(Geometric(1, 2, 6))
        x = Sequence(np.full(s.last_index, 4.0))
        t = ntheta_statistic(x, s, L=4.0)
        assert np.all(t.values == 0.0)
        assert ntheta_norm(x, s) == pytest.approx(4.0)

    def test_alternating_around_half(self):
        s = build_lacunary(Geometric(1, 2, 8))  # even block lengths
        vals = np.zeros(s.last_index)
        vals[1::2] = 1.0
        t = ntheta_statistic(Sequence(vals), s, L=0.5)
        assert np.allclose(t.values, 0.5, rtol=0, atol=1e-15)

    def test_block_spikes_normalize_to_one(self):
        s = build_lacunary(Geometric(1, 2, 8))
        vals = np.zeros(s.last_index)
        for r in range(1, s.num_blocks + 1):
            vals[s.cut_points[r] - 1] = float(s.block_lengths[r - 1])  # h_r**1
        t = ntheta_statistic(Sequence(vals), s, L=0.0)
        assert np.allclose(t.values, 1.0, rtol=1e-15, atol=0)

    def test_horizon_check(self):
        s = build_lacunary(Geometric(1, 2, 6))
        with pytest.raises(HorizonTooShort):
            ntheta_statistic(Sequence(np.full(s.last_index - 1, 1.0)), s)


def _params(schedule, family=None, **kw):
    fam = family if family is not None else ConstantFamily(LinearSlope(1.0))
    defaults = dict(alpha=1.0, epsilon=1e-3, L=0.0, m_max=0)
    defaults.update(kw)
    return SpaceParams(family=fam, schedule=schedule, **defaults)


class TestStrongStatistic:
    def test_zero_at_limit(self):
        s = build_lacunary(Geometric(1, 2, 6))
        p = _params(s, L=2.5, m_max=3)
        x = Sequence(np.full(s.last_index + 3, 2.5))
        for m in range(4):
            assert np.all(strong_block_statistic(x, p, m).values == 0.0)
            assert not shat_flags(x, p, m).any()
            assert not shat_flags(x, p, m, mode=RAW_FLAGS).any()

    def test_collapses_to_ntheta(self):
        rng = np.random.default_rng(3)
        s = build_lacunary(Geometric(1, 2, 7))
        for alpha in (0.4, 1.0):
            p = _params(s, alpha=alpha, L=0.25)
            x = Sequence(rng.uniform(-1, 1, s.last_index))
            strong = strong_block_statistic(x, p, 0).values
            base = ntheta_statistic(x, s, L=0.25).values
            expected = base * s.block_lengths.astype(float) ** (1.0 - alpha)
            assert strong == pytest.approx(expected, rel=1e-12)

    def test_matches_window_mean_composition(self):
        rng = np.random.default_rng(5)
        s = build_lacunary(Explicit((0, 3, 8, 16)))
        p = _params(s, family=ConstantFamily(Power(2.0)), L=0.1, m_max=4,
                    rho=RhoSequence(constant=1.3))
        m = 4
        x = Sequence(rng.uniform(-2, 2, s.last_index + m))
        got = strong_block_statistic(x, p, m).values
        # direct composition: window_mean per index, then family term, block mean
        shifted = Sequence(x.values - 0.1)
        for r in range(1, s.num_blocks + 1):
            total = 0.0
            for k in s.block(r):
                t = abs(window_mean(shifted, m, k))
                total += Power(2.0)(t / 1.3)
            assert got[r - 1] == pytest.approx(total / s.block_lengths[r - 1], rel=1e-12)

    def test_flag_density_consistency(self):
        rng = np.random.default_rng(9)
        s = build_lacunary(Geometric(1, 2, 6))
        p = _params(s, family=ConstantFamily(Power(2.0)), epsilon=0.2, alpha=0.7)
        x = Sequence(rng.uniform(-1, 1, s.last_index))
        flags = shat_flags(x, p, 0)
        dens = lacunary_density(flags, s, p.alpha).values
        manual = np.array(
            [np.count_nonzero(flags[s.block_slice(r)]) for r in range(1, s.num_blocks + 1)]
        ) / s.block_lengths.astype(float) ** p.alpha
        assert np.array_equal(dens, manual)

    def test_uniform_bundle_matches_standalone(self):
        rng = np.random.default_rng(13)
        s = build_lacunary(Geometric(1, 2, 6))
        p = _params(s, family=ConstantFamily(Power(2.0)), m_max=5, L=0.05,
                    matrix=CesaroC1())
        x = Sequence(rng.uniform(-1, 1, s.last_index + 5))
        bundle = uniform_trajectories(x, p, STRONG)
        for m, traj in enumerate(bundle.per_m):
            assert np.array_equal(traj.values, strong_block_statistic(x, p, m).values)
        assert np.array_equal(bundle.sup.values,
                              np.max(np.stack([t.values for t in bundle.per_m]), axis=0))


class TestVerdicts:
    def test_constant_at_limit_converges(self):
        s = build_lacunary(Geometric(1, 2, 6))
        p = _params(s, L=1.0, m_max=2)
        x = Sequence(np.full(s.last_index + 2, 1.0))
        assert uniform_verdict(x, p, STRONG).decision == CONVERGES
        assert uniform_verdict(x, p, SHAT_DENSITY).decision == CONVERGES

    def test_flat_positive_trajectory_diverges(self):
        v = classify_trajectory(np.full(12, 0.8))
        assert v.decision == DIVERGES

    def test_decaying_trajectory_converges(self):
        v = classify_trajectory(1e-4 * 2.0 ** -np.arange(12))
        assert v.decision == CONVERGES

    def test_growing_midscale_is_inconclusive(self):
        v = classify_trajectory(np.linspace(0.001, 0.005, 12))
        assert v.decision == "Inconclusive"

    def test_tail_window_one(self):
        v = classify_trajectory(np.array([1.0, 0.0]), tail_window=1)
        assert v.tail_slope == 0.0 and v.decision == CONVERGES

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
                    for m in (0, 3):
                        lhs, rhs = thm31_block_bounds(x, p, beta=1.0, m=m)
                        assert np.all(lhs >= rhs - 1e-12 * np.maximum(1.0, np.abs(rhs)))

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
            for m in (0, 2):
                lhs, rhs = thm33_block_bounds(x, p, T=T, m=m)
                assert np.all(lhs <= rhs + 1e-12 * np.maximum(1.0, rhs))

    def test_thm33_warns_below_alpha_one(self):
        s = build_lacunary(Geometric(1, 2, 5))
        p = _params(s, family=ConstantFamily(Power(2.0)), alpha=0.5)
        x = Sequence(np.full(s.last_index, 0.5))
        with pytest.warns(UserWarning, match="alpha = 1"):
            thm33_block_bounds(x, p, T=1.0)

    def test_thm33_rejects_bad_bound(self):
        s = build_lacunary(Geometric(1, 2, 5))
        p = _params(s, family=ConstantFamily(Power(2.0)))
        x = Sequence(np.full(s.last_index, 2.0))
        with pytest.raises(ValueError, match="dominate"):
            thm33_block_bounds(x, p, T=1.0)

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
                for m in (0, 2):
                    lhs, rhs = thm34_triangle_bounds(x, p, L1, L2, rho1, rho2, m=m)
                    assert np.all(lhs <= rhs + 1e-12 * np.maximum(1.0, rhs))
