"""The search kernels on known 1-D problems.

`TestBisect` covers `secant_crossing` (secant steps, bisection as the
safeguard); `TestGoldenSection` covers `brent_min` on a fixed bracket and
`TestGridThenGolden` with an open right end.
"""

import math

import pytest

from lacunary.errors import NoInteriorMinimum
from lacunary.optimize import brent_min, secant_crossing


def logged(f):
    """f, plus the list of arguments it was called with."""
    calls = []

    def wrapper(u):
        calls.append(u)
        return f(u)

    return wrapper, calls


class TestBisect:
    def test_finds_crossing_of_reciprocal(self):
        # g(rho) = 4 / rho crosses 1 at rho = 4
        got = secant_crossing(lambda r: 4.0 / r, 1.0, 4.0, 8.0, 0.5, tol=1e-10)
        assert got == pytest.approx(4.0, abs=1e-9)
        assert 4.0 / got <= 1.0  # upper end of bracket: always feasible

    def test_result_within_tol_above_crossing(self):
        # 2 exp(-r) crosses 1 where exp(-r) = 0.5
        g = lambda r: 2.0 * math.exp(-r)
        got = secant_crossing(g, 0.1, g(0.1), 10.0, g(10.0), tol=1e-8)
        assert 0.0 <= got - math.log(2.0) <= 1e-8

    def test_tolerance_below_the_ulp_terminates(self):
        g, calls = logged(lambda r: 4.0 / r)
        got = secant_crossing(g, 1.0, 4.0, 8.0, 0.5, tol=1e-300)
        assert 4.0 / got <= 1.0
        assert got <= math.nextafter(4.0, math.inf)
        assert len(calls) < 200

    def test_infinite_value_inside_the_bracket_gives_no_nan_step(self):
        # +inf (a modular past float64) below rho = 3: the secant has no finite value there
        g, calls = logged(lambda r: math.inf if r < 3.0 else 4.0 / r)
        got = secant_crossing(g, 1.0, math.inf, 8.0, 0.5, tol=1e-10)
        assert not any(math.isnan(r) for r in calls)
        assert 0.0 <= got - 4.0 <= 1e-10


class TestGoldenSection:
    def test_quadratic_minimum(self):
        x, v, boundary = brent_min(lambda u: (u - 3.0) ** 2 + 1.0, 0.0, 10.0, tol=1e-10)
        assert not boundary
        assert x == pytest.approx(3.0, abs=1e-6)
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_concave_maximum(self):
        x, v, _ = brent_min(lambda u: (u - 2.0) ** 2, 0.0, 5.0, tol=1e-10)
        assert x == pytest.approx(2.0, abs=1e-6)
        assert -v == pytest.approx(0.0, abs=1e-12)

    def test_infinite_value_inside_the_bracket_gives_no_nan_step(self):
        f, calls = logged(lambda u: math.inf if u > 5.0 else (u - 3.0) ** 2)
        x, v, _ = brent_min(f, 0.0, 10.0, tol=1e-10)
        assert not any(math.isnan(u) for u in calls)
        assert x == pytest.approx(3.0, abs=1e-6)

    def test_kinked_objective_within_the_absolute_tol(self):
        # the negated conjugate integrand 2u - M(u) of the table (0,0), (1,1.5), (2,4.5):
        # a kink at u = 1, where the slope jumps from -0.5 to +1
        x, v, _ = brent_min(lambda u: max(-0.5 * u, u - 1.5), 0.0, 1e3, tol=1e-10)
        assert abs(x - 1.0) <= 1e-10
        assert abs(v + 0.5) <= 1e-10

    def test_tolerance_below_the_ulp_terminates(self):
        f, calls = logged(lambda u: (u - 3.0) ** 2)
        x, _, _ = brent_min(f, 0.0, 10.0, tol=1e-300)
        assert abs(x - 3.0) <= 1e-7
        assert len(calls) < 500


class TestGridThenGolden:
    def test_interior_minimum(self):
        f = lambda k: (1 + k * k) / k
        k0 = 2.0**-10
        x, v, boundary = brent_min(f, k0 / 2, 2 * k0, tol=1e-10, start=(k0, f(k0)), max_expansions=60)
        assert not boundary
        assert v == pytest.approx(2.0, abs=1e-8)
        assert x == pytest.approx(1.0, abs=1e-4)

    def test_monotone_objective_flags_boundary(self):
        f = lambda k: 2.0 + 1.0 / k
        x, v, boundary = brent_min(f, 0.5, 2.0, tol=1e-6, start=(1.0, f(1.0)), max_expansions=60)
        assert boundary
        assert v == pytest.approx(2.0, abs=1e-5)

    def test_pathologically_slow_descent_raises(self):
        f = lambda k: 1.0 / math.log(k + 2.0)
        with pytest.raises(NoInteriorMinimum):
            brent_min(f, 0.5, 2.0, tol=1e-30, start=(1.0, f(1.0)), max_expansions=20)
