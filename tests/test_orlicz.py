"""Families, modulars, norms, conjugates, and the doubling check.

Norm values are pinned against closed forms (ell_p); the conjugate is
checked both against its closed form and an independent dense-grid
maximizer, so the golden-section route never verifies itself.
"""

import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from lacunary import orlicz
from lacunary.errors import BracketTooSmall, EmptyAdmissibleSet, NegativeArgument
from lacunary.optimize import bisect_nonincreasing, grid_then_golden_min
from lacunary.orlicz import AmemiyaValue, table_axiom_failures


EXTREME_ARGUMENTS = [
    math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1.0, -1.0
]


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
        assert fam.bind(ks)(us).tobytes() == loop.tobytes()


# Test-only copies of the formulas the array kernels replaced: the per-kind
# `eval_many` and family `eval_at` bodies, and the scalar `_eval` bodies.
OLD_EVAL_MANY = {
    Power: lambda M, us: us**M.p,
    ScaledPower: lambda M, us: M.c * us**M.p,
    PowerOverP: lambda M, us: us**M.p / M.p,
    ExpMinusOne: lambda M, us: np.expm1(us),
    LinearSlope: lambda M, us: M.c * us,
    Table: lambda M, us: old_table_eval_many(M, us),
}


def old_table_eval_many(M, us):
    xs = np.array([a for a, _ in M.knots])
    ys = np.array([b for _, b in M.knots])
    out = np.interp(us, xs, ys)
    slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
    return np.where(us > xs[-1], ys[-1] + slope * (us - xs[-1]), out)


def old_eval_at(family, ks, us):
    ks = np.asarray(ks, dtype=np.int64)
    us = np.asarray(us, dtype=np.float64)
    with np.errstate(over="ignore"):
        if isinstance(family, ConstantFamily):
            return OLD_EVAL_MANY[type(family.function)](family.function, us)
        if isinstance(family, IndexScaledFamily):
            return us / np.asarray(ks, dtype=np.float64)
        if isinstance(family, IndexPowerFamily):
            return us ** np.asarray(family.exponents)[np.minimum(ks - 1, len(family.exponents) - 1)]
        c = np.full(ks.shape, family.default_slope)
        table = dict(family.slopes)
        keys = np.array(sorted(table), dtype=np.int64)
        if keys.size:
            pos = np.minimum(np.searchsorted(keys, ks), keys.size - 1)
            hit = keys[pos] == ks
            c[hit] = np.array([table[k] for k in sorted(table)])[pos[hit]]
        return c * us


def old_scalar(M, u):
    if u == 0.0:
        return 0.0
    try:
        if isinstance(M, Power):
            return u**M.p
        if isinstance(M, ScaledPower):
            return M.c * u**M.p
        if isinstance(M, PowerOverP):
            return u**M.p / M.p
        if isinstance(M, ExpMinusOne):
            return math.expm1(u)
        if isinstance(M, LinearSlope):
            return M.c * u
    except OverflowError:
        return math.inf
    us, vs = [a for a, _ in M.knots], [b for _, b in M.knots]
    if u <= us[-1]:
        return float(np.interp(u, us, vs))
    return vs[-1] + (vs[-1] - vs[-2]) / (us[-1] - us[-2]) * (u - us[-1])


def ordered_bits(x):
    """float64 bit patterns as integers that count ULPs across the sign."""
    i = np.asarray(x, dtype=np.float64).view(np.int64)
    return np.where(i < 0, np.iinfo(np.int64).min - i, i)


@st.composite
def tables(draw, convex=None):
    """Tables with 2-8 knots; convex ones have nondecreasing nonnegative slopes."""
    n = draw(st.integers(1, 7))
    steps = np.array(draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n)))
    xs = np.concatenate([[0.0], np.cumsum(steps)])
    if convex is None:
        convex = draw(st.booleans())
    if convex:
        slopes = np.sort(draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n)))
        ys = np.concatenate([[0.0], np.cumsum(slopes * steps)])
    else:
        ys = [0.0] + draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    return Table(tuple(zip(xs, ys)))


EXPONENTS = st.floats(1.0, 12.0)
FUNCTIONS = st.one_of(
    st.builds(Power, EXPONENTS),
    st.builds(ScaledPower, EXPONENTS, st.floats(1e-3, 1e3)),
    st.builds(PowerOverP, st.floats(1.01, 12.0)),
    st.just(ExpMinusOne()),
    st.builds(LinearSlope, st.floats(1e-3, 1e3)),
    tables(convex=True),
)
ARGUMENT = st.one_of(st.floats(0.0, 20.0), st.floats(0.0, 1e300))
ARGUMENTS = st.lists(ARGUMENT, min_size=1, max_size=40)
PAIRS = st.lists(st.tuples(st.integers(1, 60), ARGUMENT), max_size=40)


def split(pairs):
    """(k, u) pairs as an index array and an argument array."""
    ks = np.array([k for k, _ in pairs], dtype=np.int64)
    return ks, np.array([u for _, u in pairs], dtype=np.float64)


FAMILIES = st.one_of(
    st.builds(ConstantFamily, FUNCTIONS),
    st.just(IndexScaledFamily()),
    st.builds(IndexPowerFamily, st.lists(EXPONENTS, min_size=1, max_size=6).map(tuple)),
    st.builds(
        SpikeFamily,
        st.dictionaries(st.integers(-3, 60), st.floats(1e-3, 1e3), max_size=8).map(
            lambda d: tuple(d.items())
        ),
        st.floats(1e-3, 1e3),
    ),
)
CUSTOM_FAMILIES = st.builds(CustomFamily, st.lists(FUNCTIONS, min_size=1, max_size=5).map(tuple))


class TestKernels:
    """One array formula per kind: the kernels keep the bits of the formulas they replaced."""

    @given(family=FAMILIES, pairs=PAIRS)
    @settings(max_examples=150, deadline=None)
    def test_bind_is_bitwise_the_old_eval_at(self, family, pairs):
        ks, us = split(pairs)
        kernel = family.bind(ks)
        assert kernel(us).tobytes() == old_eval_at(family, ks, us).tobytes()
        assert kernel(2.0 * us).tobytes() == old_eval_at(family, ks, 2.0 * us).tobytes()

    @given(
        functions=st.lists(FUNCTIONS, min_size=1, max_size=5).map(tuple),
        pairs=PAIRS,
    )
    @settings(max_examples=80, deadline=None)
    def test_custom_is_each_member_on_its_indices(self, functions, pairs):
        fam = CustomFamily(functions)
        ks, us = split(pairs)
        got = fam.bind(ks)(us)
        for k in set(ks.tolist()):
            at = ks == k
            assert got[at].tobytes() == fam.member(k).eval_many(us[at]).tobytes()

    @given(family=st.one_of(FAMILIES, CUSTOM_FAMILIES), pairs=PAIRS)
    @example(family=IndexScaledFamily(), pairs=[(5, 0.1)])  # (1/5) * 0.1 != 0.1 / 5
    @example(family=IndexPowerFamily((2.0,)), pairs=[(1, 3.2530809568010897)])  # u ** 2.0 is np.square
    @settings(max_examples=150, deadline=None)
    def test_member_is_the_one_index_kernel(self, family, pairs):
        """M_k(u) from `member(k)` has the bits the engine sees, bind([k])([u])[0]."""
        for k, u in pairs:
            one = family.member(k)(u)
            assert np.float64(one).tobytes() == family.bind([k])(np.array([u]))[0].tobytes()

    @given(M=FUNCTIONS, us=ARGUMENTS)
    @settings(max_examples=100, deadline=None)
    def test_call_is_the_one_element_kernel(self, M, us):
        us = np.array(us)
        many = M.eval_many(us)
        for i, u in enumerate(us):
            one = M(float(u))
            assert np.float64(one).tobytes() == M.eval_many([u])[0].tobytes()
            assert np.float64(one).tobytes() == many[i].tobytes()

    @given(M=st.one_of(FUNCTIONS, tables()), us=ARGUMENTS)
    @settings(max_examples=150, deadline=None)
    def test_within_two_ulp_of_the_old_scalar_formulas(self, M, us):
        us = np.array(us)
        old = np.array([old_scalar(M, float(u)) for u in us])
        assert np.all(np.abs(ordered_bits(M.eval_many(us)) - ordered_bits(old)) <= 2)

    def test_overflow_is_a_silent_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Power(200.0)(1e3) == math.inf
            assert ExpMinusOne()(1e3) == math.inf
            assert IndexPowerFamily((400.0,)).bind([1, 2])(np.array([100.0, 0.5]))[0] == math.inf
            assert SpikeFamily(((1, 10.0),)).bind([1])(np.array([1e308]))[0] == math.inf

    def test_bind_checks_arguments(self):
        kernel = IndexScaledFamily().bind(np.arange(1, 4))
        with pytest.raises(NegativeArgument):
            kernel(np.array([1.0, -0.5, 2.0]))

    @given(
        us=st.one_of(
            st.lists(st.sampled_from(EXTREME_ARGUMENTS) | st.floats(), max_size=6),
            st.sampled_from(EXTREME_ARGUMENTS),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_argument_check_rejects_exactly_the_negatives(self, us):
        """The argument check rejects exactly when `np.any(us < 0)`: NaN is skipped, -0.0 passes."""
        arr = np.asarray(us, dtype=np.float64)
        if np.any(arr < 0):
            with pytest.raises(NegativeArgument):
                orlicz._arguments(us)
        else:
            assert orlicz._arguments(us).tobytes() == arr.tobytes()


def pairwise_axioms(M, grid, growth_floor=0.0, tol=1e-12):
    """Test-only copy of the axiom check with its O(g**2) loop of scalar calls."""
    g = sorted(float(u) for u in grid)
    vals = {u: M(u) for u in g}
    scale = max(abs(v) for v in vals.values()) or 1.0
    slack = tol * max(1.0, scale)
    zero_at_zero = vals[0.0] == 0.0
    positive = all(vals[u] > 0 for u in g if u > 0)
    nondecreasing = all(vals[b] >= vals[a] - slack for a, b in zip(g, g[1:]))
    midpoint_convex = True
    for i, a in enumerate(g):
        for b in g[i + 1 :]:
            if M(0.5 * (a + b)) > 0.5 * (vals[a] + vals[b]) + slack:
                midpoint_convex = False
                break
        if not midpoint_convex:
            break
    growth = vals[g[-1]] > growth_floor
    checks = [("zero_at_zero", zero_at_zero), ("positive", positive), ("nondecreasing", nondecreasing),
              ("midpoint_convex", midpoint_convex), ("growth", growth)]
    failures = tuple(name for name, ok in checks if not ok)
    return orlicz.AxiomReport(
        zero_at_zero, positive, nondecreasing, midpoint_convex, growth, growth_floor, failures
    )


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

    @given(
        M=st.one_of(tables(), st.builds(Power, st.floats(1.0, 40.0)), st.just(ExpMinusOne())),
        extra=st.lists(st.one_of(st.floats(0.0, 80.0), st.floats(0.0, 1e300)), max_size=30),
        use_knots=st.booleans(),
        growth_floor=st.floats(0.0, 100.0),
        tol=st.sampled_from([0.0, 1e-12, 1e-3]),
    )
    @settings(max_examples=150, deadline=None)
    def test_broadcast_matches_the_pairwise_loop(self, M, extra, use_knots, growth_floor, tol):
        knots = [u for u, _ in M.knots] if isinstance(M, Table) and use_knots else [0.0]
        grid = knots + extra
        got = verify_orlicz_axioms(M, grid, growth_floor, tol)
        assert got == pairwise_axioms(M, grid, growth_floor, tol)
        assert type(got.midpoint_convex) is bool and type(got.nondecreasing) is bool

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

    def test_overflow_at_the_bracket_end_is_halved_away(self):
        # u**200 is +inf at both first golden-section probes of [0, 1e3]
        fam = ConstantFamily(Power(200.0))
        got = complementary(fam, 1, 1.0)
        assert not got.at_boundary
        assert got.value == pytest.approx(complementary(fam, 1, 1.0, u_max=2.0).value, abs=1e-10)
        assert got.value == pytest.approx(dense_grid_conjugate(Power(200.0), 1.0, u_max=2.0), abs=1e-6)


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
        lhs = luxemburg_norm(fam, Sequence(x.values * (sign * c)), tol=tol)
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


def reference_luxemburg(family, x, tol):
    """The Luxemburg search with one `modular` call per step (the reference)."""
    if not np.any(x.values):
        return 0.0

    def g(rho):
        return modular(family, x, RhoSequence(constant=rho))

    lo = hi = 1.0
    if g(1.0) > 1.0:
        for _ in range(200):
            hi *= 2.0
            if g(hi) <= 1.0:
                break
        else:
            raise BracketTooSmall("up")
        lo = hi / 2.0
    else:
        for _ in range(200):
            lo *= 0.5
            if g(lo) > 1.0:
                break
        else:
            raise BracketTooSmall("down")
        hi = lo * 2.0
    return orlicz.bisect_nonincreasing(g, 1.0, lo, hi, tol)


def reference_amemiya(family, x, tol):
    """The Amemiya search with one `modular` of a scaled copy per step (the reference)."""
    if not np.any(x.values):
        return AmemiyaValue(0.0, False)

    def objective(k):
        return (1.0 + modular(family, Sequence(x.values * k))) / k

    grid = [2.0**e for e in range(-20, 21)]
    _, value, at_boundary = orlicz.grid_then_golden_min(objective, grid, tol)
    return AmemiyaValue(value, at_boundary)


TABLE = Table(((0.0, 0.0), (1.0, 1.5), (2.0, 4.5)))
SEARCH_FAMILIES = [
    ConstantFamily(Power(2.5)),
    ConstantFamily(ScaledPower(2.0, 0.75)),
    ConstantFamily(PowerOverP(3.0)),
    ConstantFamily(ExpMinusOne()),
    ConstantFamily(LinearSlope(2.0)),
    ConstantFamily(TABLE),
    IndexScaledFamily(),
    IndexPowerFamily((1.5, 2.5, 2.0, 3.0)),
    SpikeFamily(((2, 5.0), (7, 0.5)), 1.0),
    CustomFamily((TABLE, ScaledPower(2.0, 0.75), PowerOverP(3.0), Power(2.5))),
]


def recorded(search, *args):
    """The result (or error class) of a search and every (argument, value) its solver evaluated."""
    steps = []

    def recording(solver):
        def wrapper(f, *rest, **kwargs):
            def logged(u):
                steps.append((u, f(u)))
                return steps[-1][1]

            return solver(logged, *rest, **kwargs)

        return wrapper

    with mock.patch.object(orlicz, "bisect_nonincreasing", recording(bisect_nonincreasing)), \
            mock.patch.object(orlicz, "grid_then_golden_min", recording(grid_then_golden_min)):
        try:
            return search(*args), steps
        except Exception as exc:  # the searches must fail alike
            return type(exc), steps


class TestSearchesAgainstModularPerStep:
    """The norm searches reuse |x| and the indices; every solver step must equal
    the value the reference gets from a `modular` call, bit for bit."""

    @given(
        family=st.sampled_from(SEARCH_FAMILIES),
        n=st.integers(1, 200),
        scale=st.sampled_from([0.0, 1e-3, 0.1, 1.0, 10.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal(self, family, n, scale, seed):
        x = Sequence(np.random.default_rng(seed).uniform(-1.0, 1.0, n) * scale)
        assert recorded(luxemburg_norm, family, x, 1e-10) == recorded(reference_luxemburg, family, x, 1e-10)
        assert recorded(orlicz_norm, family, x, 1e-9) == recorded(reference_amemiya, family, x, 1e-9)

    def test_overflowing_scale_raises_like_a_scaled_sequence(self):
        with pytest.raises(ValueError) as scaled:
            Sequence(np.array([np.inf]))
        with pytest.raises(ValueError, match=re.escape(str(scaled.value))):
            orlicz_norm(ConstantFamily(LinearSlope(1.0)), Sequence(np.array([1e303, 1.0])))

    @pytest.mark.parametrize("value", [1e303, 1e-70], ids=["too-large", "too-small"])
    def test_exhausted_bracket_is_a_lacunary_error(self, value):
        with pytest.raises(BracketTooSmall):
            luxemburg_norm(ConstantFamily(LinearSlope(1.0)), Sequence(np.array([value, 0.0])))


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
        assert s.array(10, 10)[0] == 1.0  # past the list: repeat last

    def test_family_index_extension(self):
        fam = IndexPowerFamily((1.0, 2.0))
        assert fam.member(5)(3.0) == 9.0
        cf = CustomFamily((Power(1.0), Power(2.0)))
        assert cf.member(9)(2.0) == 4.0
