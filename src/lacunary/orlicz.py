"""Orlicz function families, modulars, Luxemburg/amemiya norms, conjugates.

An Orlicz function M: [0, inf) -> [0, inf) is continuous, nondecreasing and
convex with M(0) = 0, M(u) > 0 for u > 0 and M(u) -> inf.  A family (M_k)
indexed by position generalizes this; the modular of a finite prefix is

    I(x) = sum_k M_k(|x_k| / rho_k),

and the two norms computed here, both by one `PrefixNorms(family, x)`, are

    luxemburg:  inf { rho > 0 : I(x / rho) <= 1 }
    amemiya:    inf { (1 + I(k x)) / k : k > 0 }   (the "second" norm)

Kernel contract: each function kind has exactly one array formula, an
in-place one (`_formula(out)` overwrites out with M(out)), run by
`eval_many`; the scalar `M(u)` is its one-element case, so both give the
same bits.  A family kind has one hook, `_bind(ks)`, its in-place array
formula with the per-index data (exponents, slopes, member groups) of the
indices `ks` gathered.  `family.bind(ks)` is that hook behind the argument
check (u >= 0, NegativeArgument otherwise): a kernel `us -> M_{ks}(us)`
that takes `out=` like a numpy ufunc; one member's M_k(u) is
`family.bind([k])([u])[0]`.  The package's own callers pass u >= 0 (or
NaN) by construction and run the `_bind` formulas unchecked, with the same
bits.  Overflow is a silent +inf, an honest "too large" value that the
searches and verdicts handle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .errors import BracketTooSmall, EmptyAdmissibleSet, NegativeArgument, ScaledPrefixOverflow
from .optimize import brent_min, secant_crossing
from .sequences import Sequence

Formula = Callable[[np.ndarray], object]  # overwrites its argument `out` with M(out)


def _arguments(us) -> np.ndarray:
    us = np.asarray(us, dtype=np.float64)
    if np.fmin.reduce(us, axis=None, initial=np.inf) < 0:  # NaN is skipped, -0.0 passes
        raise NegativeArgument("Orlicz functions take u >= 0")
    return us


def power_in_place(out: np.ndarray, p: np.ndarray) -> None:
    """out **= p elementwise for an exponent array `p`, with the bits of `out ** p`.

    On a one-element `out`, numpy's in-place power reads `p` as a scalar
    exponent and takes its shortcuts (square for 2, sqrt for 0.5), which
    `out ** p` does not; that one case goes through a temporary.
    """
    if out.size == 1:
        out[...] = out**p
    else:
        np.power(out, p, out=out)


def scalar_power_in_place(out: np.ndarray, p: float) -> None:
    """out **= p for a scalar exponent `p`, with the bits of `out ** p`.

    numpy turns `out ** 2.0` into a square (x * x), and `out **= 2.0` gives
    the same bits, but its in-place path took about twice as long as
    `np.square` on numpy 2.4 (18 against 8.5 µs per 2^15 elements); so
    p == 2.0 goes to `np.square` in place.
    """
    if p == 2.0:
        np.square(out, out=out)
    else:
        out **= p


def _run(formula: Formula, us: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The in-place `formula` on the float64 `us` >= 0, unchecked, run in `out` (or a fresh copy)."""
    if out is None:
        out = us.copy()
    elif out is not us:
        np.copyto(out, us)
    with np.errstate(over="ignore"):
        formula(out)
    return out


def _member(family: MusielakOrliczFamily, k: int) -> Callable[[float], float]:
    """u -> M_k(u) for u >= 0, unchecked, on one reused buffer; the caller ignores overflow."""
    formula, buf = family._bind(np.array([k], dtype=np.int64)), np.empty(1)

    def M(u: float) -> float:
        buf[0] = u
        formula(buf)
        return buf.item()

    return M


# ---------------------------------------------------------------------------
# single Orlicz functions
# ---------------------------------------------------------------------------


class OrliczFunction:
    """Base class; subclasses implement their one array formula, in place, in `_formula`.

    A subclass refuses at construction the parameters that break the Orlicz
    axioms, so its `_formula` is >= 0 on u >= 0: the block engine reads its
    terms as nonnegative and does not check them.
    """


    def _formula(self, out: np.ndarray) -> None:
        """Overwrite `out` with M(out) elementwise."""
        raise NotImplementedError

    def eval_many(self, us: np.ndarray) -> np.ndarray:
        """M(us) elementwise, as a fresh array; overflow gives +inf without a warning."""
        return _run(self._formula, _arguments(us))

    def __call__(self, u: float) -> float:
        """M(u), the one-element case of `eval_many`: the same bits as in an array."""
        return float(self.eval_many(np.array([u]))[0])


@dataclass(frozen=True)
class Power(OrliczFunction):
    """M(u) = u**p, p >= 1."""

    p: float

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("power exponent must be >= 1 for convexity")

    def _formula(self, out: np.ndarray) -> None:
        # the bits of `us ** p`; `out **= p` has the square's bits at p = 2 but runs slower in place
        scalar_power_in_place(out, self.p)


@dataclass(frozen=True)
class ScaledPower(OrliczFunction):
    """M(u) = c * u**p, c > 0, p >= 1."""

    p: float
    c: float

    def __post_init__(self) -> None:
        if self.p < 1 or self.c <= 0:
            raise ValueError("need p >= 1 and c > 0")

    def _formula(self, out: np.ndarray) -> None:
        scalar_power_in_place(out, self.p)
        out *= self.c


@dataclass(frozen=True)
class PowerOverP(OrliczFunction):
    """M(u) = u**p / p, p > 1; its Young conjugate is v**q / q with 1/p + 1/q = 1."""

    p: float

    def __post_init__(self) -> None:
        if self.p <= 1:
            raise ValueError("need p > 1")

    def _formula(self, out: np.ndarray) -> None:
        scalar_power_in_place(out, self.p)
        out /= self.p


@dataclass(frozen=True)
class ExpMinusOne(OrliczFunction):
    """M(u) = e**u - 1."""


    def _formula(self, out: np.ndarray) -> None:
        np.expm1(out, out=out)


@dataclass(frozen=True)
class LinearSlope(OrliczFunction):
    """M(u) = c * u, c > 0."""

    c: float

    def __post_init__(self) -> None:
        if self.c <= 0:
            raise ValueError("slope must be > 0")

    def _formula(self, out: np.ndarray) -> None:
        np.multiply(self.c, out, out=out)


@dataclass(frozen=True, eq=False)
class Table(OrliczFunction):
    """Piecewise-linear interpolant through (u_i, M_i) knots.

    Must start at (0, 0) with strictly increasing u_i; extrapolates past the
    last knot with the final segment's slope.  For this interpolant the
    Orlicz axioms hold exactly when the knot slopes s_i = (M_i - M_{i-1}) /
    (u_i - u_{i-1}) are finite, s_1 > 0 (positivity) and the slopes never
    fall (convexity, which with s_1 > 0 also gives monotonicity and
    unbounded growth); construction refuses any other table, and any table
    with a slope <= 0, so that every member is >= 0 on u >= 0 (the block
    engine evaluates its terms unchecked).

    "Never fall" allows for the rounding of the knots.  A table computed
    from a convex line, by a cumulative sum of steps for one, holds floats:
    take each knot increment off the line's by at most eps (|start| + |end|)
    of its coordinate, eps = 2**-52 (one rounding of each end, or one of
    the sum and one of its step).  With X_i = |u_{i-1}| + |u_i| and
    Y_i = |M_{i-1}| + |M_i|, the computed slope is then off the line's by
    eps (Y_i + |s_i| X_i) / (u_i - u_{i-1}) from the increments, and by
    1.5 eps |s_i| <= 1.5 eps |s_i| X_i / (u_i - u_{i-1}) from the two
    subtractions and the division (X_i >= u_i - u_{i-1} as u_0 = 0), to
    first order.  So s_i is within

      e_i = 4 eps (Y_i + |s_i| X_i) / (u_i - u_{i-1})

    of the line's slope, the factor 4 over 2.5 leaving room for the
    second-order terms.  A table passes when some slopes t_i that never
    fall have |s_i - t_i| <= e_i, that is when s_i - e_i <= s_j + e_j for
    every i < j.  A short segment after long ones has a large e_i, as its
    slope is a small difference of large ordinates; comparing the whole
    chain, not neighbours only, keeps such a segment from hiding a fall
    between the long segments on either side of it.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        knots = tuple((float(u), float(v)) for u, v in self.knots)
        if len(knots) < 2:
            raise ValueError("need at least two knots")
        if knots[0] != (0.0, 0.0):
            raise ValueError("first knot must be (0, 0)")
        us = [u for u, _ in knots]
        if any(b <= a for a, b in zip(us, us[1:])):
            raise ValueError("knot abscissae must strictly increase")
        if any(not (math.isfinite(u) and math.isfinite(v)) for u, v in knots):
            raise ValueError("knots must be finite")
        object.__setattr__(self, "knots", knots)
        xs, ys = (np.array(column) for column in zip(*knots))
        xs.flags.writeable = ys.flags.writeable = False
        with np.errstate(over="ignore", invalid="ignore"):
            slopes = np.diff(ys) / np.diff(xs)
        if not np.isfinite(slopes).all():
            raise ValueError("knot slopes must be finite")
        if not slopes[0] > 0:
            raise ValueError("the first knot slope must be > 0 for positivity")
        # e_i of the docstring; 4 eps |u_i| and 4 eps |M_i| first, which cannot overflow
        du, dm = (4 * 2.0**-52 * np.abs(v) for v in (xs, ys))
        with np.errstate(over="ignore"):  # an allowance past float64 is an honest +inf
            rounding = (dm[:-1] + dm[1:] + np.abs(slopes) * (du[:-1] + du[1:])) / np.diff(xs)
        if np.any(np.maximum.accumulate(slopes - rounding)[:-1] > (slopes + rounding)[1:]):
            raise ValueError("knot slopes must not fall, for convexity")
        if not (slopes > 0).all():
            raise ValueError("every knot slope must be > 0 for positivity")
        # the knot arrays and the last segment's slope, built once for every call of _formula
        object.__setattr__(self, "_interp", (xs, ys, slopes[-1]))

    def _formula(self, out: np.ndarray) -> None:
        xs, ys, slope = self._interp
        out[...] = np.where(out > xs[-1], ys[-1] + slope * (out - xs[-1]), np.interp(out, xs, ys))


# ---------------------------------------------------------------------------
# indexed families
# ---------------------------------------------------------------------------


class MusielakOrliczFamily:
    """A rule k -> M_k; every member must individually be an Orlicz function.

    Each kind implements one hook, `_bind(ks)`, its array formula bound to
    the indices `ks`; `bind` is that hook behind the argument check, and
    `BlockEngine` runs it unchecked, bound to one tile at a time.
    """

    def _bind(self, ks: np.ndarray) -> Formula:
        """The in-place array formula out -> M_{ks}(out), with the data of the indices gathered."""
        raise NotImplementedError

    def bind(self, ks: np.ndarray) -> Callable[..., np.ndarray]:
        """The kernel (us, out=None) -> M_{ks[i]}(us[i]) elementwise, for any number of `us` arrays.

        The per-index data is gathered here, once; overflow gives +inf without
        a warning.  `kernel(us)` returns a fresh array and never writes to
        `us`.  `kernel(us, out=w)` writes the same bits into the float64 array
        `w` of us's shape and returns it: in place when `w` is `us` itself,
        after one copy of `us` into `w` otherwise, so a caller that owns `w`
        allocates nothing of the prefix's size.
        """
        formula = self._bind(np.asarray(ks, dtype=np.int64))
        return lambda us, out=None: _run(formula, _arguments(us), out)


@dataclass(frozen=True)
class ConstantFamily(MusielakOrliczFamily):
    """M_k = M for every k."""

    function: OrliczFunction

    def _bind(self, ks: np.ndarray) -> Formula:
        return self.function._formula


@dataclass(frozen=True)
class IndexScaledFamily(MusielakOrliczFamily):
    """M_k(u) = u / k; the canonical pointwise-vanishing family."""

    def _bind(self, ks: np.ndarray) -> Formula:
        ks = ks.astype(np.float64)
        return lambda out: np.divide(out, ks, out=out)


@dataclass(frozen=True)
class IndexPowerFamily(MusielakOrliczFamily):
    """M_k(u) = u**p_k; indices past the supplied list repeat the last exponent."""

    exponents: tuple[float, ...]

    def __post_init__(self) -> None:
        exps = tuple(float(p) for p in self.exponents)
        if not exps:
            raise ValueError("need at least one exponent")
        if any(p < 1 for p in exps):
            raise ValueError("every exponent must be >= 1")
        object.__setattr__(self, "exponents", exps)
        # converted once, as the engine binds every tile per call: p[k] = p_k for k >= 1, so
        # `_bind` gathers with no index temporary, clipping a k past the list to the last
        p = np.array((exps[-1], *exps))
        p.flags.writeable = False
        object.__setattr__(self, "_p", p)

    def _bind(self, ks: np.ndarray) -> Formula:
        p = self._p.take(ks, mode="clip")
        return lambda out: power_in_place(out, p)


@dataclass(frozen=True, eq=False)
class SpikeFamily(MusielakOrliczFamily):
    """M_k(u) = c_k * u with per-index slope overrides on a default slope."""

    slopes: tuple[tuple[int, float], ...]
    default_slope: float = 1.0

    def __post_init__(self) -> None:
        if self.default_slope <= 0:
            raise ValueError("default slope must be > 0")
        pairs = tuple((int(k), float(c)) for k, c in self.slopes)
        if any(c <= 0 for _, c in pairs):
            raise ValueError("every slope must be > 0")
        object.__setattr__(self, "slopes", pairs)

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """The spike indices, sorted, and their slopes; of an index listed twice, the last."""
        table = dict(self.slopes)
        keys = sorted(table)
        return np.array(keys, dtype=np.int64), np.array([table[k] for k in keys])

    def _bind(self, ks: np.ndarray) -> Formula:
        keys, slopes = self._table
        c = np.full(ks.shape, self.default_slope)
        if keys.size:
            pos = np.minimum(np.searchsorted(keys, ks), keys.size - 1)
            hit = keys[pos] == ks
            c[hit] = slopes[pos[hit]]
        return lambda out: np.multiply(c, out, out=out)


@dataclass(frozen=True, eq=False)
class CustomFamily(MusielakOrliczFamily):
    """Explicit members per index; indices past the list repeat the last one."""

    functions: tuple[OrliczFunction, ...]

    def __post_init__(self) -> None:
        if not self.functions:
            raise ValueError("need at least one member function")

    def _bind(self, ks: np.ndarray) -> Formula:
        """One formula call per member, on a copy of the positions of the indices it serves."""
        idx = np.minimum(ks - 1, len(self.functions) - 1)
        order = np.argsort(idx, kind="stable")
        runs = np.split(order, np.flatnonzero(np.diff(idx[order])) + 1) if idx.size else []
        groups = [(self.functions[idx[run[0]]], run) for run in runs]

        def formula(out: np.ndarray) -> None:
            for M, run in groups:  # the runs are disjoint: each reads its positions before writing them
                part = out[run]
                M._formula(part)
                out[run] = part

        return formula


# ---------------------------------------------------------------------------
# scale and exponent sequences
# ---------------------------------------------------------------------------


def _positive_finite(values, what: str) -> tuple[tuple[float, ...], np.ndarray]:
    """`values` as a tuple of floats and as a read-only float64 array, once; each must be > 0."""
    array = np.array(values, dtype=np.float64)
    if not array.size or not (np.isfinite(array) & (array > 0)).all():
        raise ValueError(f"{what} must be strictly positive and finite")
    array.flags.writeable = False
    return tuple(array.tolist()), array


@dataclass(frozen=True)
class RhoSequence:
    """Strictly positive scale factors rho_k, constant or per-index.

    A per-index sequence is held as the `per_index` tuple, which hashing and
    equality read, and once as a read-only float64 array, of which `array`
    returns a view.
    """

    constant: float | None = 1.0
    per_index: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if (self.constant is None) == (self.per_index is None):
            raise ValueError("set exactly one of constant / per_index")
        if self.constant is not None:
            if not (self.constant > 0 and math.isfinite(self.constant)):
                raise ValueError("rho must be strictly positive and finite")
        else:
            vals, values = _positive_finite(self.per_index, "rho entries")
            object.__setattr__(self, "per_index", vals)
            object.__setattr__(self, "_values", values)

    def at(self, k: int) -> float:
        if self.constant is not None:
            return self.constant
        if k > len(self.per_index):
            raise ValueError(f"rho defined up to index {len(self.per_index)}, asked for {k}")
        return self.per_index[k - 1]

    def array(self, start: int, stop: int) -> np.ndarray:
        """rho_k for k = start..stop inclusive; read-only, a view of a per-index sequence."""
        if self.constant is not None:
            return np.full(stop - start + 1, self.constant)
        if stop > len(self.per_index):
            raise ValueError(f"rho defined up to index {len(self.per_index)}, asked for {stop}")
        return self._values[start - 1 : stop]


@dataclass(frozen=True)
class ExponentSequence:
    """Positive exponents s_k with derived envelope constants.

    h_inf = inf_k s_k and H_sup = sup_k s_k.  A per-index sequence is held
    as in `RhoSequence`.
    """

    constant: float | None = 1.0
    per_index: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if (self.constant is None) == (self.per_index is None):
            raise ValueError("set exactly one of constant / per_index")
        if self.constant is not None:
            if not (self.constant > 0 and math.isfinite(self.constant)):
                raise ValueError("exponent must be strictly positive and finite")
        else:
            vals, values = _positive_finite(self.per_index, "exponents")
            object.__setattr__(self, "per_index", vals)
            object.__setattr__(self, "_values", values)

    @property
    def h_inf(self) -> float:
        return self.constant if self.constant is not None else min(self.per_index)

    @property
    def H_sup(self) -> float:
        return self.constant if self.constant is not None else max(self.per_index)

    def array(self, start: int, stop: int) -> np.ndarray:
        """s_k for k = start..stop inclusive; indices past the list take its last value.

        Of a per-index sequence that lists every k asked for, a read-only view.
        """
        if self.constant is not None:
            return np.full(stop - start + 1, self.constant)
        if stop <= len(self.per_index):
            return self._values[start - 1 : stop]
        out = np.full(stop - start + 1, self.per_index[-1])
        listed = self._values[start - 1 : stop]
        out[: listed.size] = listed
        return out

    @property
    def is_identically_one(self) -> bool:
        if self.constant is not None:
            return self.constant == 1.0
        return bool((self._values == 1.0).all())


# ---------------------------------------------------------------------------
# modular and norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmemiyaValue:
    """Value of the inf_k (1 + modular(k x)) / k norm plus a boundary flag.

    `at_boundary` marks objectives that were still descending when the
    search stopped expanding (the infimum is approached as k -> inf, e.g.
    purely linear families); the reported value then sits within the
    search tolerance of the infimum but is not an interior minimum.
    """

    value: float
    at_boundary: bool


class PrefixNorms:
    """The modular and the Luxemburg and Amemiya norms of one prefix x under one family.

    Built once per (family, prefix): it binds the family's formula on the
    indices 1..N, takes |x| and allocates one workspace, into which the
    modular and every step of either search write their scaled prefix and
    run the formula in place, unchecked.  The Luxemburg bracket does not
    depend on the tolerance, so it is found at most once and serves both
    searches.  Each is bit for bit the finite-prefix modular
    I(x / rho) = sum_k M_k(|x_k| / rho_k) of its scaled prefix, by `np.sum`.
    """

    def __init__(self, family: MusielakOrliczFamily, x: Sequence) -> None:
        self._formula = family._bind(np.arange(1, x.horizon + 1))  # the index array is freed here
        self._ax = np.abs(x.values)
        self._work = np.empty_like(self._ax)
        self._zero = not np.any(self._ax)

    def _scaled_modular(self, scale: Callable[..., np.ndarray], factor: float) -> float:
        """The modular of scale(|x|, factor), scaled and evaluated in the workspace."""
        with np.errstate(over="ignore"):  # a scaled prefix or a modular past float64 is an honest +inf
            self._formula(scale(self._ax, factor, out=self._work))
            return float(np.sum(self._work))

    def modular(self, rho: RhoSequence = RhoSequence()) -> float:
        """The modular sum_{k=1}^{N} M_k(|x_k| / rho_k); rho must cover the prefix."""
        scale = rho.constant if rho.constant is not None else rho.array(1, self._ax.size)
        return self._scaled_modular(np.divide, scale)

    def _g(self, rho: float) -> float:
        """modular(x / rho), bit for bit `modular(RhoSequence(constant=rho))`."""
        return self._scaled_modular(np.divide, rho)

    @cached_property
    def bracket(self) -> tuple[float, float, float, float]:
        """(lo, g(lo), hi, g(hi)) with lo < rho_L <= hi = 2 lo and g(lo) > 1 >= g(hi).

        g(rho) = modular(x / rho); the bracket is found by doubling or halving
        rho from 1, so both ends are powers of two.  A zero prefix has none
        (BracketTooSmall); both searches return 0 for it without reading this.
        """
        g = self._g
        lo = hi = 1.0
        g_lo = g_hi = g(1.0)
        if g_hi > 1.0:
            for _ in range(200):
                lo, g_lo, hi = hi, g_hi, hi * 2.0
                g_hi = g(hi)
                if g_hi <= 1.0:
                    return lo, g_lo, hi, g_hi
            raise BracketTooSmall(
                "modular stays above 1 up to rho = 2**200; the prefix is too large "
                "for the family or the family violates the growth axioms"
            )
        for _ in range(200):
            hi, g_hi, lo = lo, g_lo, lo * 0.5
            g_lo = g(lo)
            if g_lo > 1.0:
                return lo, g_lo, hi, g_hi
        raise BracketTooSmall(
            "modular stays <= 1 down to rho = 2**-200; the prefix is too small "
            "for the family or the family is degenerate"
        )

    def luxemburg(self, tol: float = 1e-10) -> float:
        """inf { rho > 0 : modular(x / rho) <= 1 } by bracketing + a safeguarded secant.

        The map rho -> modular(family, x, rho) is nonincreasing with a single
        crossing of 1 for any nonzero prefix.  The bracket is expanded
        geometrically from rho = 1 and then closed by `secant_crossing`
        (Illinois secant steps, bisection when they stall); the returned value
        is the upper bracket end, hence feasible (modular <= 1) and within
        `tol` of the infimum.
        """
        if tol <= 0:
            raise ValueError("tol must be > 0")
        if self._zero:
            return 0.0
        return secant_crossing(self._g, *self.bracket, tol)

    def amemiya(self, tol: float = 1e-9) -> AmemiyaValue:
        """inf over k > 0 of (1 + modular(k * x)) / k, by Brent's method.

        The objective F(k) is quasiconvex for convex M_k.  Its minimizer is
        at least 1 / (2 hi), where hi is the upper end of the Luxemburg
        bracket: F(k) >= 1/k, and F(1/hi) <= 2 hi because modular(x / hi) <= 1.
        The search starts from k = 1/hi and doubles the right end while F
        keeps improving by more than `tol`; a still-descending last doubling
        returns the value with `at_boundary=True` (the infimum is approached
        as k -> inf), and 60 doublings that all improve raise
        NoInteriorMinimum.

        Raises ScaledPrefixOverflow when max |x_k| / tol is past float64: F
        improves by at most 1/(2k) per doubling, so the stop rule may scale
        the prefix by up to k = 1/tol, and there the scaled prefix is not
        finite.
        """
        if tol <= 0:
            raise ValueError("tol must be > 0")
        if self._zero:
            return AmemiyaValue(0.0, False)
        ax_max = float(np.max(self._ax))

        def check_scale(k: float) -> None:
            if not math.isfinite(ax_max * k):
                raise ScaledPrefixOverflow(
                    f"sequence values must be finite (no NaN/inf): the search scaled "
                    f"max |x_k| = {ax_max:g} by k = {k:g} past float64"
                )

        # bit for bit (1 + modular(family, Sequence(x.values * k))) / k
        def objective(k: float) -> float:
            check_scale(k)
            return (1.0 + self._scaled_modular(np.multiply, k)) / k

        check_scale(1.0 / tol)
        lo, g_lo, hi, g_hi = self.bracket
        # lo and hi are powers of two, so x * (1 / hi) has the bits of x / hi, and
        # F at k = 1/hi and at k = 1/lo (the first doubling) is known from the
        # bracket bit for bit; the lower end 1 / (2 hi) needs no rounding margin
        known = {1.0 / lo: (1.0 + g_lo) * lo}

        def step(k: float) -> float:
            return known.pop(k) if k in known else objective(k)

        _, value, at_boundary = brent_min(
            step, 0.5 / hi, 2.0 / hi, tol, start=(1.0 / hi, (1.0 + g_hi) * hi), max_expansions=60
        )
        return AmemiyaValue(value, at_boundary)


@dataclass(frozen=True)
class ConjugateValue:
    """sup_{u in [0, u_max]} (|v| u - M_k(u)) plus a boundary-attainment flag.

    `at_boundary=True` means the supremum sat at u_max with the integrand
    still rising there: the true conjugate is likely infinite (|v| above
    the asymptotic slope of M_k), so the number is only a lower bound.
    """

    value: float
    at_boundary: bool


_CONJUGATE_TOL = 1e-10  # the absolute tolerance of the conjugate's maximizer


def complementary(
    family: MusielakOrliczFamily,
    k: int,
    v: float,
    u_max: float = 1e3,
) -> ConjugateValue:
    """Young conjugate N_k(v) = sup { |v| u - M_k(u) : u >= 0 } on [0, u_max].

    The integrand is concave (M_k convex), so Brent's method (minimizing its
    negative) is exact up to the absolute tolerance `_CONJUGATE_TOL`; its
    bracket is first halved from u_max until M_k is finite at the upper end.
    Boundary attainment (relative to u_max) is flagged, not raised.
    """
    M = _member(family, k)
    a = abs(v)
    if a == 0.0:
        return ConjugateValue(0.0, False)
    if u_max < 0:
        raise NegativeArgument("Orlicz functions take u >= 0")

    def g(u: float) -> float:
        m = M(u)
        return -math.inf if math.isinf(m) else a * u - m

    with np.errstate(over="ignore"):  # M_k past float64 is an honest +inf
        # M is nondecreasing, so the maximizer lies where M is finite: halve the
        # bracket's upper end past any overflow before the search
        u_hi = u_max
        while math.isfinite(u_hi) and math.isinf(M(u_hi)):
            u_hi *= 0.5
        u_star, neg_value, _ = brent_min(lambda u: -g(u), 0.0, u_hi, _CONJUGATE_TOL)
        value = max(-neg_value, 0.0)  # u = 0 always gives 0
        # boundary attainment: maximizer at the edge with the slope still positive
        at_boundary = False
        if u_max - u_star <= max(10 * _CONJUGATE_TOL, 1e-9 * u_max):
            h = max(u_max * 1e-7, 1e-9)
            if g(u_max) >= g(max(u_max - h, 0.0)):  # below h the probe is u = 0
                at_boundary = True
                value = max(value, g(u_max))
    return ConjugateValue(value, at_boundary)


# ---------------------------------------------------------------------------
# doubling (Delta_2) estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Delta2Report:
    """Empirical doubling constant for M_k(2u) <= K M_k(u) + c_k on small arguments.

    K_estimate is the max of (M_k(2u) - c_k) / M_k(u) over sampled (k, u)
    with M_k(u) <= a, clamped below at 0.  `violations` lists samples where
    no finite K works (M_k(u) = 0 yet M_k(2u) > c_k); empty iff the
    condition held on every sample.
    """

    a: float
    K_estimate: float
    samples_tested: int
    violations: tuple[tuple[int, float], ...]
    c_rule = "2^-k"  # the summable c_k that delta2_check uses

    @property
    def held(self) -> bool:
        return not self.violations


def _default_u_grid() -> np.ndarray:
    # increasing; hits 1.0 exactly, once, so power families expose their full doubling ratio
    return np.concatenate([np.geomspace(1e-6, 1.0, 31), np.linspace(1.0, 10.0, 19)[1:]])


def delta2_check(
    family: MusielakOrliczFamily,
    a: float = 1.0,
    u_samples: np.ndarray | None = None,
    k_range: Iterable[int] = range(1, 33),
) -> Delta2Report:
    """Estimate the doubling constant of a family on the admissible set.

    The admissible set per index k is { u in u_samples : M_k(u) <= a }; `a`
    is uniform across k (configurable); c_k = 2**-k, a summable sequence.
    """
    if a <= 0:
        raise ValueError("threshold a must be > 0")
    us = _default_u_grid() if u_samples is None else np.asarray(u_samples, dtype=np.float64)
    us = us[us > 0]
    ks = [int(k) for k in k_range]

    K_est = 0.0
    tested = 0
    violations: list[tuple[int, float]] = []
    for k in ks:
        formula = family._bind(np.full(us.shape, k))  # unchecked: u > 0
        m_u = _run(formula, us)
        m_2u = _run(formula, 2.0 * us)
        admissible = m_u <= a
        if not np.any(admissible):
            continue
        c_k = 2.0**-k
        # Python floats: the same IEEE arithmetic, and a ratio past float64 is +inf without a warning
        samples = zip(us[admissible].tolist(), m_u[admissible].tolist(), m_2u[admissible].tolist())
        for u, mu, m2u in samples:
            tested += 1
            if mu == 0.0:
                if m2u > c_k:
                    violations.append((k, u))
                continue
            K_est = max(K_est, (m2u - c_k) / mu)
    if tested == 0:
        raise EmptyAdmissibleSet(f"no sampled (k, u) satisfies M_k(u) <= {a}")
    return Delta2Report(
        a=a,
        K_estimate=max(K_est, 0.0),
        samples_tested=tested,
        violations=tuple(violations),
    )
