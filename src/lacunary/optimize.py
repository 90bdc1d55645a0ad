"""1-D search kernels: a safeguarded secant root-finder and Brent's minimiser.

Both kernels are deterministic and allocation-free, keep a bracket that
always holds the answer, and call the objective once per step; they back
the norm searches and the conjugate-function evaluation.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import NoInteriorMinimum

_GOLD = (3.0 - math.sqrt(5.0)) / 2.0  # 1 - 1/phi: the golden-section fraction
_EPS = 2.0**-52  # float64 machine epsilon: a step of eps * |x| moves x by at least one ulp
_MAX_ITER = 500  # Brent steps before `brent_min` returns its best point


def secant_crossing(
    g: Callable[[float], float],
    lo: float,
    g_lo: float,
    hi: float,
    g_hi: float,
    tol: float,
) -> float:
    """Locate where a positive, nonincreasing map g crosses 1.

    Requires 0 < lo < hi with g(lo) = g_lo > 1 >= g_hi = g(hi).  Returns the
    upper end of the final bracket, so g(result) <= 1 and the result lies
    within `tol` above the crossing; the loop also ends when the bracket has
    no representable interior point (`tol` below the ulp of `hi`).

    Each step is an Illinois secant on log g against log x: for a power-type
    g the two are linear in each other, so the first step lands almost on the
    crossing.  The step is kept at least tol/2 inside the bracket, so once it
    is that close the next step crosses over and the bracket closes to `tol`.
    A bisection step replaces the secant when the secant leaves the bracket or
    has no finite value (g overflowed to +inf or underflowed to 0), and when
    three steps in a row failed to halve the bracket (the secant stalls).
    """
    y_lo, y_hi = _log(g_lo), _log(g_hi)
    side = 0  # which end the last step replaced: +1 lo, -1 hi
    width_ref, slow = hi - lo, 0
    while True:
        mid = lo + 0.5 * (hi - lo)
        if hi - lo <= tol or not lo < mid < hi:
            return hi
        x = mid
        if slow < 3 and math.isfinite(y_lo) and math.isfinite(y_hi):
            t_lo, t_hi = math.log(lo), math.log(hi)
            t = t_hi - y_hi * (t_lo - t_hi) / (y_lo - y_hi)  # y_lo > 0 >= y_hi
            secant = min(max(math.exp(t), lo + 0.5 * tol), hi - 0.5 * tol)
            if lo < secant < hi:
                x = secant
        gx = g(x)
        if gx > 1.0:
            lo, y_lo = x, _log(gx)
            if side == 1:
                y_hi *= 0.5  # Illinois: the same end moved twice, so weight the other less
            side = 1
        else:
            hi, y_hi = x, _log(gx)
            if side == -1:
                y_lo *= 0.5
            side = -1
        if hi - lo <= 0.5 * width_ref:
            width_ref, slow = hi - lo, 0
        else:
            slow += 1


def _log(v: float) -> float:
    return math.log(v) if v > 0.0 else -math.inf


def brent_min(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    start: tuple[float, float] | None = None,
    max_expansions: int = 0,
) -> tuple[float, float, bool]:
    """Minimize a unimodal f on [a, b] by Brent's method; returns (argmin, min, at_boundary).

    `start` is an interior point and its known value (by default the golden
    point of [a, b] is evaluated).

    With `max_expansions` > 0 the right end is open: while f(b) is below the
    best value by more than `tol`, the bracket moves right and b doubles.
    `at_boundary` is set when the last doubling still descended (by at most
    `tol`): the infimum is approached as x -> inf, and the search ends on
    [previous point, 2 b].  NoInteriorMinimum is raised when `max_expansions`
    doublings each improve by more than `tol`.

    The stop test is absolute, on the tolerance tol * max(1, a) of the final
    bracket [a, b]: the argmin is within that tolerance (plus 2 eps |x|, a
    term that only keeps each step at least one ulp long) of the minimizer.  A parabolic step is taken only when the parabola through
    the last three points is finite and falls well inside the bracket;
    otherwise, e.g. when a value is +inf, the step is golden.
    """
    if start is None:
        x = a + _GOLD * (b - a)
        fx = f(x)
    else:
        x, fx = start
    w, fw, v, fv = x, fx, x, fx
    d = e = 0.0  # the last step and the one before it
    at_boundary = False
    for n_ext in range(max_expansions):
        fb = f(b)
        if fb >= fx:
            # a parabolic first step through the known points (previous x, x, b)
            w, fw, e = b, fb, b - a
            break
        improved = fx - fb
        v, fv, a, x, fx, b = x, fx, x, b, fb, 2.0 * b
        if improved <= tol:
            at_boundary = True
            break
        if n_ext == max_expansions - 1:
            raise NoInteriorMinimum(
                f"objective still improving by more than {tol} after "
                f"{max_expansions} bracket expansions"
            )
    tol = tol * max(1.0, a)
    for _ in range(_MAX_ITER):
        m = 0.5 * (a + b)
        tol1 = 0.5 * tol + _EPS * abs(x)
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            # written so that a NaN (from a +inf value) fails every test
            if q > 0.0 and abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = tol1 if m >= x else -tol1
                parabolic = True
        if not parabolic:
            e = (a - x) if x >= m else (b - x)
            d = _GOLD * e
        u = x + d if abs(d) >= tol1 else x + math.copysign(tol1, d)
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx, at_boundary
