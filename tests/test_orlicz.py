"""Families, modulars, norms, conjugates, and the doubling check.

Norm values are pinned against closed forms (ell_p); the conjugate is
checked both against its closed form and an independent dense-grid
maximizer, so the golden-section route never verifies itself.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lacunary import (
    ConstantFamily,
    CustomFamily,
    ExpMinusOne,
    ExponentSequence,
    IndexPowerFamily,
    IndexScaledFamily,
    LinearSlope,
    Power,
    PowerOverP,
    RhoSequence,
    ScaledPower,
    Sequence,
    SpikeFamily,
    Table,
    complementary,
    delta2_check,
    luxemburg_norm,
    modular,
    orlicz_norm,
    verify_orlicz_axioms,
)
from lacunary.orlicz import table_axiom_failures
from lacunary.errors import BracketTooSmall, EmptyAdmissibleSet, NegativeArgument


def dense_grid_conjugate(M, v, u_max=1e3, n_grid=20001):
    """Independent maximizer of |v|u - M(u): dense grid plus local refinement."""
    us = np.linspace(0.0, u_max, n_grid)
    g = abs(v) * us - M.eval_many(us)
    i = int(np.argmax(g))
    lo = us[max(i - 1, 0)]
    hi = us[min(i + 1, n_grid - 1)]
    # parabolic-free local refinement: repeatedly shrink around the best third
    for _ in range(200):
        mids = np.linspace(lo, hi, 9)
        vals = abs(v) * mids - M.eval_many(mids)
        j = int(np.argmax(vals))
        lo = mids[max(j - 1, 0)]
        hi = mids[min(j + 1, 8)]
        if hi - lo < 1e-12:
            break
    best = abs(v) * ((lo + hi) / 2) - M((lo + hi) / 2)
    return max(best, float(np.max(g)), 0.0)


class TestEval:
    def test_examples(self):
        assert Power(2.0)(3.0) == 9.0
        assert ExpMinusOne()(0.0) == 0.0
        assert IndexScaledFamily().member(5)(2.0) == pytest.approx(0.4)
        assert ScaledPower(p=2.0, c=3.0)(2.0) == 12.0
        assert PowerOverP(2.0)(4.0) == 8.0
        assert LinearSlope(2.5)(2.0) == 5.0

    def test_negative_argument(self):
        with pytest.raises(NegativeArgument):
            Power(2.0)(-0.5)

    def test_zero_is_exact(self):
        for M in [Power(1.7), ExpMinusOne(), LinearSlope(0.3), PowerOverP(3.0)]:
            assert M(0.0) == 0.0

    def test_table_interpolates_and_extrapolates(self):
        M = Table(((0.0, 0.0), (1.0, 1.0), (2.0, 4.0)))
        assert M(0.5) == pytest.approx(0.5)
        assert M(1.5) == pytest.approx(2.5)
        assert M(3.0) == pytest.approx(7.0)  # last slope 3 continues

    def test_eval_many_agrees_with_scalar(self):
        us = np.array([0.0, 0.3, 1.0, 7.5])
        for M in [Power(2.5), ScaledPower(1.5, 2.0), PowerOverP(2.0), ExpMinusOne(),
                  LinearSlope(0.7), Table(((0.0, 0.0), (1.0, 2.0), (3.0, 8.0)))]:
            many = M.eval_many(us)
            assert many == pytest.approx([M(u) for u in us], rel=1e-15)

    @given(
        slopes=st.dictionaries(st.integers(-3, 40), st.floats(1e-3, 1e3), max_size=8),
        default=st.floats(1e-3, 1e3),
        pairs=st.lists(st.tuples(st.integers(-3, 45), st.floats(0.0, 1e6)), max_size=40),
    )
    @settings(max_examples=80, deadline=None)
    def test_spike_eval_at_matches_member_loop(self, slopes, default, pairs):
        fam = SpikeFamily(slopes=tuple(slopes.items()), default_slope=default)
        ks = np.array([k for k, _ in pairs], dtype=np.int64)
        us = np.array([u for _, u in pairs], dtype=np.float64)
        loop = np.array([fam.member(int(k))(float(u)) for k, u in zip(ks, us)], dtype=np.float64)
        assert fam.eval_at(ks, us).tobytes() == loop.tobytes()


class TestAxioms:
    def test_power_passes(self):
        rep = verify_orlicz_axioms(Power(1.5), [0, 0.5, 1, 2, 4])
        assert rep.all_pass

    def test_concave_table_fails_convexity(self):
        M = Table(((0.0, 0.0), (1.0, 2.0), (2.0, 3.0)))
        rep = verify_orlicz_axioms(M, [0, 1, 2])
        assert not rep.midpoint_convex
        assert "midpoint_convex" in rep.failures

    def test_table_axiom_failures_name_the_member(self):
        concave = Table(((0.0, 0.0), (1.0, 5.0), (2.0, 5.5)))
        convex = Table(((0.0, 0.0), (1.0, 1.5), (2.0, 4.5)))
        assert table_axiom_failures(ConstantFamily(concave)) == {"function": ["midpoint_convex"]}
        assert table_axiom_failures(CustomFamily((convex, concave, Power(2.0)))) == {
            "functions[1]": ["midpoint_convex"]
        }
        assert table_axiom_failures(ConstantFamily(convex)) == {}
        assert table_axiom_failures(IndexScaledFamily()) == {}

    def test_linear_passes_any_grid(self):
        for grid in ([0, 1], [0, 0.1, 0.2], [0, 3, 10, 100]):
            assert verify_orlicz_axioms(LinearSlope(1.0), grid).all_pass

    def test_grid_preconditions(self):
        with pytest.raises(ValueError):
            verify_orlicz_axioms(Power(2.0), [])
        with pytest.raises(ValueError):
            verify_orlicz_axioms(Power(2.0), [1, 2])

    def test_all_shipped_families_pass_on_log_grid(self):
        grid = [0.0] + list(np.geomspace(1e-3, 10.0, 99))
        shipped = [
            Power(1.0),
            Power(1.5),
            Power(2.0),
            Power(3.0),
            ScaledPower(p=2.0, c=0.5),
            PowerOverP(1.5),
            PowerOverP(2.0),
            PowerOverP(3.0),
            ExpMinusOne(),
            LinearSlope(2.0),
            Table(((0.0, 0.0), (1.0, 1.0), (2.0, 3.0), (4.0, 9.0))),
        ]
        for M in shipped:
            rep = verify_orlicz_axioms(M, grid)
            assert rep.all_pass, (M, rep.failures)


class TestModular:
    def test_zero_sequence(self):
        fam = ConstantFamily(ExpMinusOne())
        assert modular(fam, Sequence(np.zeros(7))) == 0.0

    def test_squares(self):
        fam = ConstantFamily(Power(2.0))
        assert modular(fam, Sequence(np.array([1.0, 2.0, 3.0]))) == 14.0

    def test_scaled_by_rho(self):
        fam = ConstantFamily(Power(1.0))
        x = Sequence(np.ones(4))
        assert modular(fam, x, RhoSequence(constant=2.0)) == pytest.approx(2.0)

    def test_per_index_rho_must_cover_horizon(self):
        fam = ConstantFamily(Power(1.0))
        rho = RhoSequence(constant=None, per_index=(1.0, 2.0))
        with pytest.raises(ValueError):
            modular(fam, Sequence(np.ones(3)), rho)

    @given(
        vals=st.lists(st.floats(-5, 5), min_size=1, max_size=20),
        rho1=st.floats(0.1, 2.0),
        factor=st.floats(1.01, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_nonincreasing_in_rho(self, vals, rho1, factor):
        fam = ConstantFamily(Power(2.0))
        x = Sequence(np.asarray(vals))
        lo = modular(fam, x, RhoSequence(constant=rho1 * factor))
        hi = modular(fam, x, RhoSequence(constant=rho1))
        assert lo <= hi + 1e-12 * max(1.0, hi)


class TestComplementary:
    def test_closed_form_and_oracle(self):
        fam = ConstantFamily(PowerOverP(2.0))
        got = complementary(fam, 1, 3.0)
        assert not got.at_boundary
        assert got.value == pytest.approx(4.5, abs=1e-8)
        assert got.value == pytest.approx(dense_grid_conjugate(PowerOverP(2.0), 3.0), abs=1e-6)

    def test_zero_argument(self):
        assert complementary(ConstantFamily(ExpMinusOne()), 1, 0.0).value == 0.0

    def test_linear_conjugate_flags_boundary(self):
        got = complementary(ConstantFamily(LinearSlope(1.0)), 1, 2.0)
        assert got.at_boundary
        with pytest.raises(BracketTooSmall):
            complementary(ConstantFamily(LinearSlope(1.0)), 1, 2.0, require_interior=True)

    def test_young_conjugate_grid(self):
        for p in (1.5, 2.0, 3.0):
            q = p / (p - 1.0)
            fam = ConstantFamily(PowerOverP(p))
            for v in np.linspace(0.0, 10.0, 21):
                got = complementary(fam, 1, v)
                assert got.value == pytest.approx(v**q / q, abs=1e-6)

    def test_family_index_is_respected(self):
        fam = SpikeFamily(slopes=((3, 10.0),), default_slope=1.0)
        # at k=3 the slope is 10, sup of (2-10)u is at u=0
        assert complementary(fam, 3, 2.0).value == 0.0


class TestLuxemburg:
    def test_ell1_closed_form(self):
        fam = ConstantFamily(Power(1.0))
        got = luxemburg_norm(fam, Sequence(np.array([1.0, 2.0, 3.0])))
        assert got == pytest.approx(6.0, abs=1e-9)

    def test_ell2_closed_form(self):
        fam = ConstantFamily(Power(2.0))
        got = luxemburg_norm(fam, Sequence(np.array([3.0, 4.0])))
        assert got == pytest.approx(5.0, abs=1e-9)

    def test_zero_sequence(self):
        assert luxemburg_norm(ConstantFamily(Power(2.0)), Sequence(np.zeros(3))) == 0.0

    def test_feasibility_of_returned_value(self):
        fam = ConstantFamily(ExpMinusOne())
        x = Sequence(np.array([0.2, 1.5, 0.9]))
        rho = luxemburg_norm(fam, x, tol=1e-12)
        assert modular(fam, x, RhoSequence(constant=rho)) <= 1.0 + 1e-12

    @given(
        vals=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=12),
        c=st.floats(0.1, 2.0),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_absolute_homogeneity(self, vals, c, sign):
        fam = ConstantFamily(Power(2.0))
        x = Sequence(np.asarray(vals))
        tol = 1e-9
        lhs = luxemburg_norm(fam, x.scaled(sign * c), tol=tol)
        rhs = c * luxemburg_norm(fam, x, tol=tol)
        assert lhs == pytest.approx(rhs, abs=2 * tol)

    def test_unit_ball_modular_consistency(self):
        rng = np.random.default_rng(7)
        fam = ConstantFamily(Power(1.5))
        for _ in range(25):
            x = Sequence(rng.uniform(-1, 1, size=rng.integers(1, 20)) * 0.2)
            if not np.any(x.values):
                continue
            if luxemburg_norm(fam, x, tol=1e-12) <= 1.0:
                assert modular(fam, x) <= 1.0 + 1e-9


class TestOrliczNorm:
    def test_ell1_like_infimum_at_infinity(self):
        fam = ConstantFamily(Power(1.0))
        got = orlicz_norm(fam, Sequence(np.array([1.0, 1.0])))
        assert got.at_boundary
        assert got.value == pytest.approx(2.0, abs=1e-6)

    def test_zero_sequence(self):
        got = orlicz_norm(ConstantFamily(Power(2.0)), Sequence(np.zeros(4)))
        assert got.value == 0.0 and not got.at_boundary

    def test_interior_minimum_from_calculus(self):
        # objective (1 + k**2)/k has derivative zero at k = 1, value 2
        fam = ConstantFamily(Power(2.0))
        got = orlicz_norm(fam, Sequence(np.array([1.0, 0.0, 0.0])))
        assert not got.at_boundary
        assert got.value == pytest.approx(2.0, abs=1e-6)

    def test_sandwich_against_luxemburg(self):
        rng = np.random.default_rng(11)
        for M in [Power(1.0), Power(2.0), Power(3.0), ExpMinusOne()]:
            fam = ConstantFamily(M)
            for _ in range(15):
                x = Sequence(rng.uniform(-2, 2, size=rng.integers(1, 16)))
                if not np.any(x.values):
                    continue
                lux = luxemburg_norm(fam, x, tol=1e-10)
                orl = orlicz_norm(fam, x, tol=1e-9).value
                assert lux - 1e-6 <= orl <= 2 * lux + 1e-6


class TestDelta2:
    def test_power_families_hit_two_to_p(self):
        for p in (1.0, 2.0, 3.0):
            rep = delta2_check(ConstantFamily(Power(p)))
            assert rep.K_estimate <= 2**p + 1e-6
            assert rep.K_estimate >= 2**p - 1e-6
            assert rep.held

    def test_exp_family_no_violations(self):
        # dense grid near the admissible boundary u = log 2 (where M(u) = a)
        grid = np.geomspace(1e-6, math.log(2.0), 200)
        rep = delta2_check(ConstantFamily(ExpMinusOne()), a=1.0, u_samples=grid)
        assert rep.held
        # brute-force ratio sweep over the same samples, scalar code path
        M = ExpMinusOne()
        best = 0.0
        for k in range(1, 33):
            for u in grid:
                if M(u) <= 1.0 and M(u) > 0.0:
                    best = max(best, (M(2 * u) - 2.0**-k) / M(u))
        assert rep.K_estimate == pytest.approx(best, rel=1e-12)

    def test_index_scaled_doubles(self):
        rep = delta2_check(IndexScaledFamily())
        assert rep.K_estimate <= 2.0 + 1e-9
        assert rep.held

    def test_empty_admissible_set(self):
        fam = ConstantFamily(ScaledPower(p=1.0, c=1e12))
        with pytest.raises(EmptyAdmissibleSet):
            delta2_check(fam, a=1e-9)


class TestScalarSequences:
    def test_rho_validation(self):
        with pytest.raises(ValueError):
            RhoSequence(constant=0.0)
        with pytest.raises(ValueError):
            RhoSequence(constant=None, per_index=(1.0, -1.0))
        with pytest.raises(ValueError):
            RhoSequence(constant=1.0, per_index=(1.0,))

    def test_exponent_envelope(self):
        s = ExponentSequence(constant=None, per_index=(0.5, 2.0, 1.0))
        assert s.h_inf == 0.5 and s.H_sup == 2.0
        assert s.D == 2.0  # max(1, 2**(2-1))
        assert ExponentSequence(constant=1.0).D == 1.0
        assert s.at(10) == 1.0  # past the list: repeat last

    def test_family_index_extension(self):
        fam = IndexPowerFamily((1.0, 2.0))
        assert fam.member(5)(3.0) == 9.0
        cf = CustomFamily((Power(1.0), Power(2.0)))
        assert cf.member(9)(2.0) == 4.0
