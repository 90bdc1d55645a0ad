"""Families, modulars, norms, conjugates, and the doubling check.

Norm values are pinned against closed forms (ell_p); the conjugate is
checked both against its closed form and an independent dense-grid
maximizer, so the search never verifies itself.  The searches are also
compared with the plain bisection and grid + golden-section route in
`tests/reference.py`.
"""

import dataclasses
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lacunary import (
    BlockEngine,
    ConstantFamily,
    CustomFamily,
    ExpMinusOne,
    ExponentSequence,
    Geometric,
    IndexPowerFamily,
    IndexScaledFamily,
    LinearSlope,
    Power,
    PowerOverP,
    PrefixNorms,
    RhoSequence,
    ScaledPower,
    Sequence,
    SpaceParams,
    SpikeFamily,
    Table,
    build_lacunary,
    complementary,
    delta2_check,
)
from lacunary import experiments, orlicz
from lacunary.cli import cmd_norms
from lacunary.config import FAMILY
from lacunary.convergence import BUNDLES
from lacunary.errors import (
    BracketTooSmall,
    ConfigError,
    EmptyAdmissibleSet,
    LacunaryError,
    NegativeArgument,
)
from lacunary.experiments import build_thm37, random_bounded_sequence
from lacunary.optimize import brent_min, secant_crossing
from reference import (
    allocating_bind,
    allocating_eval_many,
    amemiya_objective,
    modular,
    one_member,
    pairwise_axioms,
    per_index_delta2_check,
    per_index_growth_estimate,
    raw_table,
    reference_amemiya,
    reference_conjugate,
    reference_luxemburg,
    WholePrefixNorms,
)


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
        assert IndexScaledFamily().bind([5])([2.0])[0] == pytest.approx(0.4)
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
        loop = np.array([fam.bind([k])([u])[0] for k, u in zip(ks, us)], dtype=np.float64)
        assert fam.bind(ks)(us).tobytes() == loop.tobytes()


# Test-only copies of the scalar `_eval` bodies the array kernels replaced.
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
def tables(draw):
    """Tables with 2-8 knots built by cumulative sums from positive nondecreasing slopes.

    Convex by construction, so `Table`'s rounding allowance must accept every
    draw, or the tests that draw from here fail.
    """
    n = draw(st.integers(1, 7))
    steps = np.array(draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n)))
    slopes = np.sort(draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n)))
    xs = np.concatenate([[0.0], np.cumsum(steps)])
    ys = np.concatenate([[0.0], np.cumsum(slopes * steps)])
    return Table(tuple(zip(xs, ys)))


EXPONENTS = st.floats(1.0, 12.0)
FUNCTIONS = st.one_of(
    st.builds(Power, EXPONENTS),
    st.builds(ScaledPower, EXPONENTS, st.floats(1e-3, 1e3)),
    st.builds(PowerOverP, st.floats(1.01, 12.0)),
    st.just(ExpMinusOne()),
    st.builds(LinearSlope, st.floats(1e-3, 1e3)),
    tables(),
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
        assert kernel(us).tobytes() == allocating_bind(family, ks, us).tobytes()
        assert kernel(2.0 * us).tobytes() == allocating_bind(family, ks, 2.0 * us).tobytes()

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
            assert got[at].tobytes() == functions[min(k, len(functions)) - 1].eval_many(us[at]).tobytes()

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


class TestKernelOut:
    """`kernel(us, out=w)` writes the bits of the allocating formulas (`tests/reference.py`)
    wherever `w` is, and `kernel(us)` leaves `us` as it was."""

    @given(family=st.one_of(FAMILIES, CUSTOM_FAMILIES), pairs=PAIRS, offset=st.integers(0, 5))
    @example(family=IndexPowerFamily((2.0,)), pairs=[(1, 3.2530809568010897)], offset=0)  # see power_in_place
    @example(family=IndexPowerFamily((2.0, 3.0)), pairs=[(1, 3.2530809568010897), (2, 1.5)], offset=1)
    @settings(max_examples=150, deadline=None)
    def test_every_layout_gives_the_reference_bits(self, family, pairs, offset):
        ks, us = split(pairs)
        want = allocating_bind(family, ks, us).tobytes()
        kernel = family.bind(ks)
        given_us = us.tobytes()

        fresh = kernel(us)
        assert fresh.tobytes() == want
        assert us.tobytes() == given_us and not np.shares_memory(fresh, us)

        inplace = us.copy()  # out is us itself
        assert kernel(inplace, out=inplace) is inplace
        assert inplace.tobytes() == want

        separate = np.full(us.shape, np.nan)
        assert kernel(us, out=separate) is separate
        assert separate.tobytes() == want and us.tobytes() == given_us

        work = np.full(us.size + offset + 3, -1.0)  # an offset view into a larger workspace
        view = work[offset : offset + us.size]
        assert kernel(us, out=view) is view
        assert view.tobytes() == want
        view[:] = us
        assert kernel(view, out=view) is view
        assert view.tobytes() == want
        assert np.all(work[:offset] == -1.0) and np.all(work[offset + us.size :] == -1.0)

    @given(
        us=ARGUMENTS,
        exponents=st.lists(
            st.sampled_from([0.5, 1.0, 2.0, 3.0]) | st.floats(0.1, 12.0), min_size=1, max_size=40
        ),
        offset=st.integers(0, 5),
    )
    @example(us=[3.2530809568010897], exponents=[2.0], offset=0)
    @example(us=[0.3], exponents=[0.5], offset=3)
    @settings(max_examples=150, deadline=None)
    def test_power_in_place_is_the_allocating_power(self, us, exponents, offset):
        """The engine's exponent step and the index_power kernel: `out ** p` bit for bit,
        one-element arrays included, in the array itself and in an offset view."""
        us = np.array(us)
        p = np.resize(np.array(exponents), us.shape)
        with np.errstate(over="ignore"):
            want = (us**p).tobytes()
            inplace = us.copy()
            orlicz.power_in_place(inplace, p)
            work = np.full(us.size + offset, -1.0)
            view = work[offset:]
            view[:] = us
            orlicz.power_in_place(view, p)
        assert inplace.tobytes() == want
        assert view.tobytes() == want


@given(M=tables(), us=st.lists(st.floats(0.0, 1e3) | st.sampled_from([0.0, 5e-324, 1e300, math.inf]),
                              min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_table_built_once_keeps_the_bits_of_the_knot_formula(M, us):
    """A table builds its knot arrays and last slope once; every call, the one-element M(u) of
    the conjugate search too, has the bits of the formula that rebuilt them per call."""
    us = np.array(us)
    want = allocating_eval_many(M, us).tobytes()
    for _ in range(2):
        assert M.eval_many(us).tobytes() == want
        assert np.array([M(float(u)) for u in us]).tobytes() == want
    xs, ys, _ = M._interp
    assert not (xs.flags.writeable or ys.flags.writeable)


# 0, -0, subnormals, normals whose square is subnormal or overflows, the largest float, +inf
SQUARE_EXTREMES = [
    0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-160, 1.4e-154, 1e154, 1.35e154,
    1.3407807929942596e154, 1e200, 1.7976931348623157e308, math.inf,
]


class TestSquarePath:
    """The scalar-exponent formulas send p = 2 to `np.square`; the bits stay those of `us ** 2.0`."""

    @given(
        us=st.lists(st.sampled_from(SQUARE_EXTREMES) | st.floats(0.0), min_size=1, max_size=40),
        c=st.sampled_from([1.0, 0.5, 3.0, 1e300]) | st.floats(1e-3, 1e3),
    )
    @example(us=SQUARE_EXTREMES, c=1e300)
    @settings(max_examples=100, deadline=None)
    def test_square_keeps_the_bits_of_us_squared(self, us, c):
        us = np.array(us)
        given_us = us.tobytes()
        with np.errstate(over="ignore"):
            square = us**2.0
            cases = [(Power(2.0), square), (ScaledPower(2.0, c), square * c),
                     (PowerOverP(2.0), square / 2.0)]
        for M, want in cases:
            want = want.tobytes()
            assert allocating_eval_many(M, us).tobytes() == want
            assert M.eval_many(us).tobytes() == want
            assert np.array([M(float(u)) for u in us]).tobytes() == want
            kernel = ConstantFamily(M).bind(np.arange(1, us.size + 1))
            assert kernel(us).tobytes() == want
            separate = np.full(us.shape, np.nan)
            assert kernel(us, out=separate).tobytes() == want
            inplace = us.copy()
            assert kernel(inplace, out=inplace).tobytes() == want
            assert us.tobytes() == given_us

    def test_square_overflow_is_a_silent_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for M in (Power(2.0), ScaledPower(2.0, 2.0), PowerOverP(2.0)):
                assert M(1e200) == math.inf
                assert M.eval_many(np.array([1e200, 1.0]))[0] == math.inf


def test_engine_tiles_skip_the_argument_check(monkeypatch):
    """The engine runs each family's formula unchecked (its arguments are >= 0 or NaN);
    the public kernel still checks, and still raises on a negative argument."""
    calls = []
    check = orlicz._arguments

    def counted(us):
        calls.append(1)
        return check(us)

    monkeypatch.setattr(orlicz, "_arguments", counted)
    s = build_lacunary(Geometric(1, 2, 6))
    rng = np.random.default_rng(11)
    rho = RhoSequence(constant=None, per_index=tuple(rng.uniform(0.5, 2.0, s.last_index)))
    families = [
        ConstantFamily(Power(2.0)), IndexPowerFamily((1.0, 2.5, 2.0)), IndexScaledFamily(),
        ConstantFamily(Table(((0.0, 0.0), (1.0, 0.5), (2.0, 3.0)))),
        CustomFamily((Power(2.0), ExpMinusOne(), LinearSlope(0.5))),
    ]
    spaces = [SpaceParams(family=f, schedule=s, m_max=2, rho=r, epsilon=0.1)
              for f in families for r in (rho, RhoSequence())]
    x = Sequence(rng.uniform(-2, 2, s.last_index + 2))
    assert len(BlockEngine([(q, BUNDLES) for q in spaces])(x)) == len(spaces)
    assert calls == []
    with pytest.raises(NegativeArgument):
        ConstantFamily(Power(2.0)).bind(np.arange(1, 3))(np.array([1.0, -0.5]))
    assert calls == [1]


@st.composite
def knot_slopes(draw):
    """Knots from a first slope of any sign, then slope gaps each 0 or >= 1e-6 relative.

    Abscissae step by 0.5-4 and slopes stay of order 1, so a gap of 0
    rounds apart by far less than the rounding allowance of `Table` (below 1e-12 here),
    and a fall of 1e-6 or more bends the knots by far more than the grid's
    slack of 1e-12 * max(1, max |M|): both checks see the same tables.
    Half the draws have a positive first slope and no fall; the rest may have either.
    """
    n = draw(st.integers(1, 7))
    steps = np.array(draw(st.lists(st.floats(0.5, 4.0), min_size=n, max_size=n)))
    first, gap = st.floats(1.0, 4.0), st.just(0.0) | st.floats(1e-6, 0.25)
    if draw(st.booleans()):
        first, gap = first | st.just(0.0) | st.floats(-4.0, -1.0), gap | st.floats(-0.25, -1e-6)
    slopes = [draw(first)]
    for _ in range(n - 1):
        slopes.append(slopes[-1] + abs(slopes[-1]) * draw(gap))
    xs = np.concatenate([[0.0], np.cumsum(steps)])
    ys = np.concatenate([[0.0], np.cumsum(np.array(slopes) * steps)])
    return [(float(u), float(v)) for u, v in zip(xs, ys)]


def builds(knots) -> bool:
    """Whether `Table` accepts `knots`."""
    try:
        Table(knots)
    except ValueError:
        return False
    return True


class TestAxioms:
    def test_power_passes(self):
        assert pairwise_axioms(Power(1.5), [0, 0.5, 1, 2, 4]) == ()

    def test_concave_table_fails_convexity(self):
        knots = ((0.0, 0.0), (1.0, 2.0), (2.0, 3.0))
        assert pairwise_axioms(raw_table(knots), [0, 1, 2]) == ("midpoint_convex",)
        with pytest.raises(ValueError, match="knot slopes must not fall"):
            Table(knots)

    def test_table_axiom_failures_name_the_member(self):
        """A refused table is a config error naming the member as the config does."""
        concave = {"kind": "table", "knots": [[0.0, 0.0], [1.0, 5.0], [2.0, 5.5]]}
        convex = {"kind": "table", "knots": [[0.0, 0.0], [1.0, 1.5], [2.0, 4.5]]}
        with pytest.raises(ConfigError, match=r"^function: knot slopes must not fall"):
            FAMILY.build({"kind": "constant", "function": concave})
        with pytest.raises(ConfigError, match=r"^functions\[1\]: knot slopes must not fall"):
            FAMILY.build({"kind": "custom", "functions": [convex, concave, {"kind": "power", "p": 2.0}]})
        FAMILY.build({"kind": "custom", "functions": [convex, convex]})

    @pytest.mark.parametrize(
        "knots,message",
        [
            (((0.0, 0.0), (1.0, 0.0), (2.0, 1.0)), "first knot slope must be > 0"),
            (((0.0, 0.0), (1.0, -1.0)), "first knot slope must be > 0"),
            (((0.0, 0.0), (1.0, -1.7e308), (2.0, 1.7e308)), "knot slopes must be finite"),
            (((0.0, 0.0), (0.5, 1.7e308), (1.0, 1.75e308)), "knot slopes must be finite"),
            (((0.0, 0.0), (1.0, 1.0), (2.0, 2.0 - 1e-11)), "knot slopes must not fall"),
            (((0.0, 0.0), (1.0, 1.0), (1.0 + 2**-52, 1.0 + 2**-52), (2.0, 1.5)), "knot slopes must not fall"),
            (((0.0, 0.0), (1.0, 1.0), (1.0 + 2**-52, 1.0)), "every knot slope must be > 0"),
        ],
    )
    def test_table_refuses_knots_that_break_an_axiom(self, knots, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                Table(knots)

    def test_slack_is_relative_to_the_slope(self):
        """The rounding allowance scales with the knots: on (0, 0), (1, s), (2, s + s (1 - f)) it is
        e_1 + e_2 = 4 eps (2 s) + 4 eps (3 s + 3 s) = 32 eps s to first order, so the second slope
        may fall by 16 eps of itself, whatever its size, and not by 64 eps."""
        eps = 2.0**-52
        for s in (1e-200, 1.0, 1e200):
            assert builds(((0.0, 0.0), (1.0, s), (2.0, s + s * (1 - 16 * eps))))
            assert not builds(((0.0, 0.0), (1.0, s), (2.0, s + s * (1 - 64 * eps))))

    def test_rounding_allowance_accepts_a_line_with_a_short_last_step(self):
        """A line sampled by a cumulative sum, six steps of 10 and then one of 0.0015, builds:
        its last slope rounds off the others by far more than 1e-12 of itself, and by less
        than the allowance."""
        steps = [10.0] * 6 + [0.0015118216247002568]
        xs = np.concatenate([[0.0], np.cumsum(steps)])
        ys = np.concatenate([[0.0], np.cumsum(9.504686499563027 * np.array(steps))])
        slopes = np.diff(ys) / np.diff(xs)
        assert slopes[-2] - slopes[-1] > 1e-12 * slopes[-2]
        assert builds(tuple(zip(xs, ys)))

    @given(knots=knot_slopes())
    @example(knots=[(0.0, 0.0), (1.0, 0.0)])
    @example(knots=[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
    @settings(max_examples=300, deadline=None)
    def test_exact_rules_agree_with_the_grid_on_the_knots(self, knots):
        passes = pairwise_axioms(raw_table(knots), [u for u, _ in knots]) == ()
        assert builds(knots) == passes

    @given(M=tables(), fall=st.floats(1e-3, 0.999))
    @settings(max_examples=100, deadline=None)
    def test_exact_rules_are_stricter_when_the_last_segment_falls(self, M, fall):
        """A last segment that falls within the grid's slack passes the grid on the knots, though
        M goes below 0 past them; `Table` refuses it."""
        top = M.knots[-1][1]
        knots = [(u, v * 1e-14 / top) for u, v in M.knots]  # every value, so every bend, below the slack
        knots.append((knots[-1][0] + 1.0, knots[-1][1] * (1.0 - fall)))
        assert pairwise_axioms(raw_table(knots), [u for u, _ in knots]) == ()
        assert raw_table(knots)(1e6) < 0
        assert not builds(knots)

    def test_linear_passes_any_grid(self):
        for grid in ([0, 1], [0, 0.1, 0.2], [0, 3, 10, 100]):
            assert pairwise_axioms(LinearSlope(1.0), grid) == ()

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
            assert pairwise_axioms(M, grid) == (), M

    @given(family=st.one_of(FAMILIES, CUSTOM_FAMILIES), pairs=PAIRS)
    @settings(max_examples=150, deadline=None)
    def test_every_buildable_member_is_nonnegative(self, family, pairs):
        """Every family member that can be built is >= 0 on u >= 0, so no block statistic of the
        engine is negative and it checks none."""
        ks, us = split(pairs)
        assert np.all(family.bind(ks)(us) >= 0)


class TestModular:
    """`PrefixNorms.modular`, the modular `norms` reports."""

    def test_zero_sequence(self):
        fam = ConstantFamily(ExpMinusOne())
        assert PrefixNorms(fam, Sequence(np.zeros(7))).modular() == 0.0

    def test_squares(self):
        fam = ConstantFamily(Power(2.0))
        assert PrefixNorms(fam, Sequence(np.array([1.0, 2.0, 3.0]))).modular() == 14.0

    def test_scaled_by_rho(self):
        fam = ConstantFamily(Power(1.0))
        x = Sequence(np.ones(4))
        assert PrefixNorms(fam, x).modular(RhoSequence(constant=2.0)) == pytest.approx(2.0)

    def test_per_index_rho_must_cover_horizon(self):
        fam = ConstantFamily(Power(1.0))
        rho = RhoSequence(constant=None, per_index=(1.0, 2.0))
        with pytest.raises(ValueError):
            PrefixNorms(fam, Sequence(np.ones(3))).modular(rho)

    def test_is_the_reference_modular_bit_for_bit(self):
        """One workspace for the searches and the modular: the bits of a fresh |x| / rho."""
        rng = np.random.default_rng(8)
        x = Sequence(rng.uniform(-3.0, 3.0, 300))
        rhos = [RhoSequence(), RhoSequence(constant=0.3),
                RhoSequence(constant=None, per_index=tuple(rng.uniform(0.1, 2.0, 310)))]
        for family in (ConstantFamily(Power(2.5)), IndexPowerFamily((1.0, 3.0, 1.5)), IndexScaledFamily(),
                       SpikeFamily(((3, 2.0), (40, 0.5))), CustomFamily((Power(2.0), ExpMinusOne()))):
            norms = PrefixNorms(family, x)
            norms.luxemburg()
            for rho in rhos:
                assert norms.modular(rho) == modular(family, x, rho)

    @given(
        vals=st.lists(st.floats(-5, 5), min_size=1, max_size=20),
        rho1=st.floats(0.1, 2.0),
        factor=st.floats(1.01, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_nonincreasing_in_rho(self, vals, rho1, factor):
        fam = ConstantFamily(Power(2.0))
        x = Sequence(np.asarray(vals))
        norms = PrefixNorms(fam, x)
        lo = norms.modular(RhoSequence(constant=rho1 * factor))
        hi = norms.modular(RhoSequence(constant=rho1))
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

    def test_u_max_below_the_probe_step(self):
        # the slope probe u_max - 1e-9 would be negative; it is clamped at u = 0
        got = complementary(ConstantFamily(Power(2.0)), 1, 1.0, u_max=1e-10)
        assert got.at_boundary
        assert got.value == 1e-10 - 1e-20

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
        # u**200 is +inf on most of [0, 1e3]
        fam = ConstantFamily(Power(200.0))
        got = complementary(fam, 1, 1.0)
        assert not got.at_boundary
        assert got.value == pytest.approx(complementary(fam, 1, 1.0, u_max=2.0).value, abs=1e-10)
        assert got.value == pytest.approx(dense_grid_conjugate(Power(200.0), 1.0, u_max=2.0), abs=1e-6)


class TestLuxemburg:
    def test_ell1_closed_form(self):
        fam = ConstantFamily(Power(1.0))
        got = PrefixNorms(fam, Sequence(np.array([1.0, 2.0, 3.0]))).luxemburg()
        assert got == pytest.approx(6.0, abs=1e-9)

    def test_ell2_closed_form(self):
        fam = ConstantFamily(Power(2.0))
        got = PrefixNorms(fam, Sequence(np.array([3.0, 4.0]))).luxemburg()
        assert got == pytest.approx(5.0, abs=1e-9)

    def test_zero_sequence(self):
        assert PrefixNorms(ConstantFamily(Power(2.0)), Sequence(np.zeros(3))).luxemburg() == 0.0

    def test_feasibility_of_returned_value(self):
        fam = ConstantFamily(ExpMinusOne())
        x = Sequence(np.array([0.2, 1.5, 0.9]))
        rho = PrefixNorms(fam, x).luxemburg(tol=1e-12)
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
        lhs = PrefixNorms(fam, Sequence(x.values * (sign * c))).luxemburg(tol=tol)
        rhs = c * PrefixNorms(fam, x).luxemburg(tol=tol)
        assert lhs == pytest.approx(rhs, abs=2 * tol)

    def test_unit_ball_modular_consistency(self):
        rng = np.random.default_rng(7)
        fam = ConstantFamily(Power(1.5))
        for _ in range(25):
            x = Sequence(rng.uniform(-1, 1, size=rng.integers(1, 20)) * 0.2)
            if not np.any(x.values):
                continue
            if PrefixNorms(fam, x).luxemburg(tol=1e-12) <= 1.0:
                assert modular(fam, x) <= 1.0 + 1e-9


class TestOrliczNorm:
    def test_ell1_like_infimum_at_infinity(self):
        fam = ConstantFamily(Power(1.0))
        got = PrefixNorms(fam, Sequence(np.array([1.0, 1.0]))).amemiya()
        assert got.at_boundary
        assert got.value == pytest.approx(2.0, abs=1e-6)

    def test_zero_sequence(self):
        got = PrefixNorms(ConstantFamily(Power(2.0)), Sequence(np.zeros(4))).amemiya()
        assert got.value == 0.0 and not got.at_boundary

    def test_interior_minimum_from_calculus(self):
        # objective (1 + k**2)/k has derivative zero at k = 1, value 2
        fam = ConstantFamily(Power(2.0))
        got = PrefixNorms(fam, Sequence(np.array([1.0, 0.0, 0.0]))).amemiya()
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
                norms = PrefixNorms(fam, x)
                lux, orl = norms.luxemburg(tol=1e-10), norms.amemiya(tol=1e-9).value
                assert lux - 1e-6 <= orl <= 2 * lux + 1e-6


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
EPS = np.finfo(np.float64).eps


def recorded(search, *args):
    """The result (or error class) of a search and every (argument, value) its kernels saw.

    The values handed to a kernel (the bracket ends of the secant, the start
    point of Brent's method) count as steps, as do its own evaluations.
    """
    steps = []

    def logged(f):
        def wrapper(u):
            steps.append((u, f(u)))
            return steps[-1][1]

        return wrapper

    def secant(g, lo, g_lo, hi, g_hi, tol):
        steps.extend([(lo, g_lo), (hi, g_hi)])
        return secant_crossing(logged(g), lo, g_lo, hi, g_hi, tol)

    def brent(f, a, b, tol, start=None, **kwargs):
        if start is not None:
            steps.append(start)
        return brent_min(logged(f), a, b, tol, start, **kwargs)

    with mock.patch.object(orlicz, "secant_crossing", secant), \
            mock.patch.object(orlicz, "brent_min", brent):
        try:
            return search(*args), steps
        except LacunaryError as exc:  # the searches must fail alike
            return type(exc), steps


def outcome(search, *args):
    try:
        return search(*args)
    except LacunaryError as exc:
        return type(exc)


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
        norms = PrefixNorms(family, x)
        _, steps = recorded(norms.luxemburg, 1e-10)
        assert bool(steps) == bool(np.any(x.values))
        assert [v for _, v in steps] == [modular(family, x, RhoSequence(constant=rho)) for rho, _ in steps]
        _, steps = recorded(norms.amemiya, 1e-9)
        assert bool(steps) == bool(np.any(x.values))
        objective = amemiya_objective(family, x)
        assert [v for _, v in steps] == [objective(k) for k, _ in steps]

    def test_overflowing_scale_raises_like_a_scaled_sequence(self):
        with pytest.raises(ValueError) as scaled:
            Sequence(np.array([np.inf]))
        with pytest.raises(ValueError, match=re.escape(str(scaled.value))):
            PrefixNorms(ConstantFamily(LinearSlope(1.0)), Sequence(np.array([1e303, 1.0]))).amemiya()

    @pytest.mark.parametrize("value", [1e303, 1e-70], ids=["too-large", "too-small"])
    def test_exhausted_bracket_is_a_lacunary_error(self, value):
        with pytest.raises(BracketTooSmall):
            PrefixNorms(ConstantFamily(LinearSlope(1.0)), Sequence(np.array([value, 0.0]))).luxemburg()


class TestUncheckedNorms:
    """`PrefixNorms` runs the family's bound formula unchecked in its workspace; each value is
    that of the checked kernel on a fresh scaled prefix (`WholePrefixNorms`), bit for bit."""

    @given(
        family=st.one_of(FAMILIES, CUSTOM_FAMILIES),
        n=st.integers(1, 600),
        scale=st.sampled_from([1e-3, 1.0, 10.0]),
        per_index_rho=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_modular_and_norms_are_the_checked_kernels(self, family, n, scale, per_index_rho, seed):
        rng = np.random.default_rng(seed)
        x = Sequence(rng.uniform(-1.0, 1.0, n) * scale)
        rho = (RhoSequence(constant=None, per_index=tuple(rng.uniform(0.1, 2.0, n)))
               if per_index_rho else RhoSequence(constant=float(rng.uniform(0.1, 2.0))))
        norms, whole = PrefixNorms(family, x), WholePrefixNorms(family, x)
        assert norms.modular(rho) == whole.modular(rho) == modular(family, x, rho)
        assert outcome(norms.luxemburg, 1e-10) == outcome(whole.luxemburg, 1e-10)
        assert outcome(norms.amemiya, 1e-9) == outcome(whole.amemiya, 1e-9)


class TestUncheckedMembers:
    """The package's own member evaluations skip `bind`'s check, with the bits of the checked path."""

    @given(family=st.one_of(FAMILIES, CUSTOM_FAMILIES), k=st.integers(1, 60), u=ARGUMENT)
    @settings(max_examples=150, deadline=None)
    def test_member_is_the_checked_kernel(self, family, k, u):
        with np.errstate(over="ignore"):
            got = orlicz._member(family, k)(u)
        assert np.float64(got).tobytes() == np.float64(one_member(family, k)(u)).tobytes()

    @pytest.mark.parametrize("family", SEARCH_FAMILIES, ids=lambda f: type(f).__name__)
    def test_complementary_is_the_checked_path(self, family):
        for k in (1, 2, 3, 5):
            for v in (0.5, 1.0, 2.0, 7.0):
                for u_max in (1e3, 1e-10):
                    got = complementary(family, k, v, u_max)
                    with mock.patch.object(orlicz, "_member", one_member):
                        assert complementary(family, k, v, u_max) == got

    @pytest.mark.parametrize("family", SEARCH_FAMILIES, ids=lambda f: type(f).__name__)
    def test_complementary_refuses_a_negative_u_max(self, family):
        """The bracket [0, u_max] is checked once, as the checked kernel checked M_k(u_max)."""
        with pytest.raises(NegativeArgument):
            complementary(family, 3, 1.0, u_max=-1.0)

    @pytest.mark.parametrize("fields", [
        {},
        {"nu": 3.0, "rho": 0.5, "r_max": 9, "m_max": 4},
        {"nu": 0.7, "r_max": 5, "m_max": 0,
         "family": CustomFamily(tuple(LinearSlope(2.0**-i) for i in range(12)))},
        {"r_max": 5, "m_max": 0, "family": SpikeFamily(((3, 4.0),), 2.0**-12)},
        {"nu": 0.7, "r_max": 6, "family": CustomFamily((LinearSlope(0.5),))},
    ], ids=["default", "scaled", "custom", "spike", "unsatisfiable"])
    def test_thm37_tail_values_are_the_checked_path(self, fields):
        got = outcome(lambda: build_thm37(**fields))
        with mock.patch.object(experiments, "_member", one_member):
            want = outcome(lambda: build_thm37(**fields))
        if isinstance(want, type):
            assert got is want
            return
        (x, params), (x_ref, params_ref) = got, want
        assert x.values.tobytes() == x_ref.values.tobytes()
        assert params == params_ref


def amemiya_slack(family, x, k, tol):
    """How far above the reference the Amemiya search may end, for its final point k.

    Brent's stop test puts k within 2 (tol max(1, a) / 3 + eps k) <= delta =
    tol max(1, k) of a minimizer k* of F(k) = (1 + I(k)) / k over its final
    bracket, where I(k) = modular(k x).  The reference's value is at least
    that minimum (an interior k* minimizes F over (0, inf); at the boundary
    both searches end on the same bracket [k_last / 2, 2 k_last], since they
    double on powers of two by the same stop rule).  So
    new - reference <= F(k) - F(k*) <= delta * L, with L the largest |F'| on
    [a, b] = [k - 2 delta, k + 2 delta] (which holds k and k*).  With I
    convex and nondecreasing, F' = I'/k - (1 + I)/k**2 is a difference of two
    nonnegative terms, I'(k) <= I'(b) <= (I(c) - I(b)) / (c - b) for c > b,
    and so L <= max((I(c) - I(b)) / ((c - b) a), (1 + I(b)) / a**2) with
    c = 2 b - a.  Each computed F carries a relative rounding error of at
    most (n + 2) eps (the n-term sum, the 1 and the division); it enters the
    two values compared and any comparison it decides, so 4 (n + 2) eps F(k)
    is added.
    """
    delta = tol * max(1.0, k)
    a, b = k - 2 * delta, k + 2 * delta
    c = 2 * b - a
    I = lambda t: modular(family, Sequence(x.values * t))
    slope = max((I(c) - I(b)) / ((c - b) * a), (1.0 + I(b)) / a**2)
    return delta * slope + 4 * (x.horizon + 2) * EPS * (1.0 + I(k)) / k


class TestSearchesAgainstReference:
    """The secant and Brent searches against bisection and grid + golden section
    (`tests/reference.py`), on every search family, at scales up to 1e3 and with
    one value near float64's largest."""

    @given(
        family=st.sampled_from(SEARCH_FAMILIES),
        n=st.integers(1, 200),
        scale=st.sampled_from([0.0, 1e-3, 0.1, 1.0, 10.0, 1e3]),
        huge=st.one_of(st.none(), st.floats(1e303, 1.7e308)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    @example(family=CustomFamily((TABLE, ScaledPower(2.0, 0.75), PowerOverP(3.0), Power(2.5))),
             n=1, scale=1.0, huge=1e303, seed=0)
    def test_within_tolerance_of_the_reference(self, family, n, scale, huge, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0, 1.0, n) * scale
        if huge is not None:
            values[rng.integers(n)] = huge * rng.choice([-1.0, 1.0])
        x = Sequence(values)

        norms = PrefixNorms(family, x)
        lux, ref = outcome(norms.luxemburg, 1e-10), outcome(reference_luxemburg, family, x, 1e-10)
        if isinstance(ref, type) or isinstance(lux, type):  # an error class
            assert lux is ref
        else:
            assert abs(lux - ref) <= 1e-10
            assert lux == 0.0 or modular(family, x, RhoSequence(constant=lux)) <= 1.0

        (ame, steps), ref = recorded(norms.amemiya, 1e-9), outcome(reference_amemiya, family, x, 1e-9)
        if isinstance(ref, type) or isinstance(ame, type):
            assert ame is ref
            return
        ref_value, _ = ref
        assert ame.at_boundary == ref_value.at_boundary
        if ame.value == 0.0:
            assert ref_value.value == 0.0
            return
        k = [k for k, v in steps if v == ame.value][-1]  # Brent's final point
        assert ame.value <= ref_value.value + amemiya_slack(family, x, k, 1e-9)


class TestSearchEvaluationCount:
    """Modular evaluations per search on the norms shapes of the benchmark's cli-mix workload."""

    @staticmethod
    def kernel_calls(family, answer):
        """The modulars of a scaled prefix that `PrefixNorms` evaluates while `answer()` runs."""
        calls = 0
        evaluate = PrefixNorms._scaled_modular

        def counted(self, scale, factor):
            nonlocal calls
            calls += 1
            return evaluate(self, scale, factor)

        with mock.patch.object(PrefixNorms, "_scaled_modular", counted):
            answer()
        return calls

    @pytest.mark.parametrize("family, horizon", [
        (ConstantFamily(Power(2.5)), 100_000),
        (IndexPowerFamily((1.5, 2.5, 2.0, 3.0)), 100_000),
        (CustomFamily((TABLE, ScaledPower(2.0, 0.75), PowerOverP(3.0), Power(2.5))), 1_000),
    ], ids=["constant-power", "index-power", "custom"])
    def test_at_most_20_luxemburg_and_25_amemiya_evaluations(self, family, horizon):
        """Each search alone stays within its budget; one object answering both
        evaluates the bracket once, so it saves exactly the bracket's evaluations."""
        for seed in range(2):
            x = random_bounded_sequence(
                np.random.default_rng(seed), horizon, radius=1.0, exception_density=0.001
            )
            lux = self.kernel_calls(family, lambda: PrefixNorms(family, x).luxemburg(1e-10))
            ame = self.kernel_calls(family, lambda: PrefixNorms(family, x).amemiya(1e-9))
            assert lux <= 20
            assert ame <= 25
            bracket = self.kernel_calls(family, lambda: PrefixNorms(family, x).bracket)

            def both():
                norms = PrefixNorms(family, x)
                norms.luxemburg(1e-10)
                norms.amemiya(1e-9)

            assert self.kernel_calls(family, both) == lux + ame - bracket

    def test_norms_command_binds_the_full_prefix_once(self):
        """The modular and the two searches share one `_bind` of the indices 1..N."""
        horizon = 1_000
        doc = {
            "command": "norms",
            "sequence": {"kind": "random_bounded", "horizon": horizon, "radius": 1.0, "seed": 3},
            "family": {"kind": "constant", "function": {"kind": "power", "p": 2.5}},
            "complementary": {"indices": [1, 2], "v_values": [1.0], "u_max": 1e3},
            "delta2": {"a": 1.0, "k_max": 4},
        }
        sizes = []
        bind = ConstantFamily._bind

        def counting_bind(self, ks):
            sizes.append(len(ks))
            return bind(self, ks)

        with mock.patch.object(ConstantFamily, "_bind", counting_bind):
            cmd_norms(doc)
        assert sizes.count(horizon) == 1


class TestConjugateAgainstReference:
    @pytest.mark.parametrize("family", SEARCH_FAMILIES, ids=lambda f: type(f).__name__)
    def test_within_tolerance_of_golden_section(self, family):
        """Brent's argmax is within tol + 2 eps u of the maximizer u*, golden
        section's within tol, so both lie in [a, b] = [u_ref - 3 tol, u_ref + 3 tol]
        and the two values differ by at most 3 tol L, L the largest |g'| of the
        integrand g(u) = v u - M_k(u) on [a, b].  g is concave with g' <= v
        (M_k is nondecreasing), so every slope on [a, b] lies between the secant
        slope (g(b + h) - g(b)) / h and v.  Each value carries a rounding error
        of a few eps (v u + M_k(u))."""
        tol = orlicz._CONJUGATE_TOL
        for k in (1, 2, 3, 5):
            M = one_member(family, k)
            for v in (0.5, 1.0, 2.0, 7.0):
                got = complementary(family, k, v)
                if got.at_boundary:
                    continue
                ref, u_ref = reference_conjugate(family, k, v, 1e3, tol)
                b, h = u_ref + 3 * tol, 6 * tol
                slope = max(v, -(v * h - (M(b + h) - M(b))) / h)
                assert abs(got.value - ref) <= 3 * tol * slope + 4 * EPS * (v * b + M(b))


class TestDelta2:
    def test_default_grid_is_the_sorted_unique_grid(self):
        """The grid is built in order, with 1.0 once, bit for bit the old `np.unique` of the two ranges."""
        old = np.unique(np.concatenate([np.geomspace(1e-6, 1.0, 31), np.linspace(1.0, 10.0, 19)]))
        assert orlicz._default_u_grid().tobytes() == old.tobytes()

    def test_power_families_hit_two_to_p(self):
        for p in (1.0, 2.0, 3.0):
            rep = delta2_check(ConstantFamily(Power(p)))
            assert rep.K_estimate <= 2**p + 1e-6
            assert rep.K_estimate >= 2**p - 1e-6
            assert rep.held

    def test_exp_family_no_violations(self):
        rep = delta2_check(ConstantFamily(ExpMinusOne()), a=1.0)
        assert rep.held
        # brute-force ratio sweep over the default (k, u) grid, scalar code path
        M = ExpMinusOne()
        best, tested = 0.0, 0
        for k in range(1, 33):
            for u in orlicz._default_u_grid().tolist():
                if M(u) <= 1.0:
                    tested += 1
                    if M(u) > 0.0:
                        best = max(best, (M(2 * u) - 2.0**-k) / M(u))
        assert rep.samples_tested == tested
        assert rep.K_estimate == pytest.approx(best, rel=1e-12)

    def test_index_scaled_doubles(self):
        rep = delta2_check(IndexScaledFamily())
        assert rep.K_estimate <= 2.0 + 1e-9
        assert rep.held

    def test_empty_admissible_set(self):
        fam = ConstantFamily(ScaledPower(p=1.0, c=1e12))
        with pytest.raises(EmptyAdmissibleSet):
            delta2_check(fam, a=1e-9)


def typed(value):
    """`value` with the type of every leaf beside it, so that == also compares the types."""
    if isinstance(value, tuple):
        return tuple(typed(v) for v in value)
    return type(value), value


def assert_same_report(run, reference, *args):
    """`run(*args)` and `reference(*args)` give the same report field for field, types and
    all, or the same EmptyAdmissibleSet message."""
    try:
        want = reference(*args)
    except EmptyAdmissibleSet as exc:
        with pytest.raises(EmptyAdmissibleSet) as got:
            run(*args)
        assert str(got.value) == str(exc)
        return
    got = run(*args)
    assert type(got) is type(want)
    assert typed(dataclasses.astuple(got)) == typed(dataclasses.astuple(want))


TINY_SLOPES = st.sampled_from([5e-324, 1e-320, 1e-310, 1e-300])  # M(u) rounds to 0 on small u
CHECK_FAMILIES = st.one_of(
    FAMILIES,
    CUSTOM_FAMILIES,
    st.builds(ConstantFamily, st.builds(LinearSlope, TINY_SLOPES)),
    st.builds(
        SpikeFamily,
        st.dictionaries(st.integers(1, 80), st.one_of(TINY_SLOPES, st.floats(1e-3, 1e300)), max_size=8)
        .map(lambda d: tuple(d.items())),
        st.one_of(TINY_SLOPES, st.floats(1e-3, 1e3)),
    ),
)
THRESHOLDS = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1e-9, 1.0, 1e300, 1.7976931348623157e308, math.inf]),
    st.floats(1e-12, 1e12),
)
RHOS = st.one_of(
    st.builds(RhoSequence, st.one_of(st.sampled_from([5e-324, 1e-300, 1.0, 1e300]), st.floats(1e-6, 1e6))),
    st.lists(
        st.one_of(st.sampled_from([5e-324, 1.0, 1e308]), st.floats(1e-6, 1e6)), min_size=1, max_size=80
    ).map(lambda values: RhoSequence(constant=None, per_index=tuple(values))),
)


class TestSampledChecksAgainstReference:
    """The sampled checks evaluate their whole (k, u) grid at once; the per-index loops of
    `tests/reference.py` must give the same reports."""

    @given(family=CHECK_FAMILIES, a=THRESHOLDS, k_max=st.one_of(st.integers(1, 80), st.just(1100)))
    @settings(max_examples=150, deadline=None)
    @example(family=ConstantFamily(Power(2.0)), a=1.0, k_max=1100)  # c_k is 0.0 past k = 1074
    @example(family=ConstantFamily(Power(2000.0)), a=1.0, k_max=32)  # M_k(u) = 0 < M_k(2u)
    @example(family=SpikeFamily((), 5e-324), a=1.0, k_max=1100)  # the same, past c_k = 0.0
    @example(family=ConstantFamily(ScaledPower(12.0, 1e300)), a=math.inf, k_max=3)  # inf / inf ratios
    @example(family=ConstantFamily(ScaledPower(1.0, 1e12)), a=1e-9, k_max=4)  # nothing admissible
    def test_delta2_matches_the_per_index_loop(self, family, a, k_max):
        assert_same_report(delta2_check, per_index_delta2_check, family, a, k_max)

    @given(family=CHECK_FAMILIES, rho=RHOS)
    @settings(max_examples=150, deadline=None)
    @example(family=IndexScaledFamily(), rho=RhoSequence(5e-324))  # no finite sample
    @example(family=IndexScaledFamily(), rho=RhoSequence(None, (1.0, 2.0)))  # a short rho
    @example(family=IndexScaledFamily(), rho=RhoSequence(None, (1.0,) * 80))  # a long one
    @example(family=IndexScaledFamily(), rho=RhoSequence(None, (5e-324, 2.0, 5e-324)))
    def test_growth_matches_the_per_index_loop(self, family, rho):
        assert_same_report(experiments.liminf_growth_estimate, per_index_growth_estimate, family, rho)


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
        assert s.array(10, 10)[0] == 1.0  # past the list: repeat last

    def test_family_index_extension(self):
        fam = IndexPowerFamily((1.0, 2.0))
        assert fam.bind([5])([3.0])[0] == 9.0
        cf = CustomFamily((Power(1.0), Power(2.0)))
        assert cf.bind([9])([2.0])[0] == 4.0
