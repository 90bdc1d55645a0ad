"""Orlicz function families, modulars, Luxemburg/amemiya norms, conjugates.

An Orlicz function M: [0, inf) -> [0, inf) is continuous, nondecreasing and
convex with M(0) = 0, M(u) > 0 for u > 0 and M(u) -> inf.  A family (M_k)
indexed by position generalizes this; the modular of a finite prefix is

    I(x) = sum_k M_k(|x_k| / rho_k),

and the two norms computed here are

    luxemburg:  inf { rho > 0 : I(x / rho) <= 1 }
    amemiya:    inf { (1 + I(k x)) / k : k > 0 }   (the "second" norm)

Kernel contract: each function kind has exactly one array formula, run by
`eval_many`; the scalar `M(u)` is its one-element case, so both give the
same bits.  A family is evaluated through `family.bind(ks)`, which gathers
the per-index data (exponents, slopes, member groups) once and returns a
kernel `us -> M_{ks}(us)` for any number of argument arrays;
`family.member(k)(u)` has the bits of `family.bind([k])([u])[0]`.  Arguments
must be >= 0 (NegativeArgument otherwise).  Overflow is a silent +inf,
an honest "too large" value that the searches and verdicts handle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .errors import BracketTooSmall, EmptyAdmissibleSet, NegativeArgument, ScaledPrefixOverflow
from .optimize import bisect_nonincreasing, golden_section_max, grid_then_golden_min
from .sequences import Sequence

Kernel = Callable[[np.ndarray], np.ndarray]


def _arguments(us) -> np.ndarray:
    us = np.asarray(us, dtype=np.float64)
    if np.fmin.reduce(us, axis=None, initial=np.inf) < 0:  # NaN is skipped, -0.0 passes
        raise NegativeArgument("Orlicz functions take u >= 0")
    return us


# ---------------------------------------------------------------------------
# single Orlicz functions
# ---------------------------------------------------------------------------


class OrliczFunction:
    """Base class; subclasses implement their one array formula in `_formula`."""

    label = "abstract"

    def _formula(self, us: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval_many(self, us: np.ndarray) -> np.ndarray:
        """M(us) elementwise; overflow gives +inf without a warning."""
        us = _arguments(us)
        with np.errstate(over="ignore"):
            return self._formula(us)

    def __call__(self, u: float) -> float:
        """M(u), the one-element case of `eval_many`: the same bits as in an array."""
        return float(self.eval_many(np.array([u]))[0])


@dataclass(frozen=True)
class Power(OrliczFunction):
    """M(u) = u**p, p >= 1."""

    p: float
    label = "power"

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("power exponent must be >= 1 for convexity")

    def _formula(self, us: np.ndarray) -> np.ndarray:
        return us**self.p


@dataclass(frozen=True)
class ScaledPower(OrliczFunction):
    """M(u) = c * u**p, c > 0, p >= 1."""

    p: float
    c: float
    label = "scaled_power"

    def __post_init__(self) -> None:
        if self.p < 1 or self.c <= 0:
            raise ValueError("need p >= 1 and c > 0")

    def _formula(self, us: np.ndarray) -> np.ndarray:
        return self.c * us**self.p


@dataclass(frozen=True)
class PowerOverP(OrliczFunction):
    """M(u) = u**p / p, p > 1; its Young conjugate is v**q / q with 1/p + 1/q = 1."""

    p: float
    label = "power_over_p"

    def __post_init__(self) -> None:
        if self.p <= 1:
            raise ValueError("need p > 1")

    def _formula(self, us: np.ndarray) -> np.ndarray:
        return us**self.p / self.p


@dataclass(frozen=True)
class ExpMinusOne(OrliczFunction):
    """M(u) = e**u - 1."""

    label = "exp_minus_one"

    def _formula(self, us: np.ndarray) -> np.ndarray:
        return np.expm1(us)


@dataclass(frozen=True)
class LinearSlope(OrliczFunction):
    """M(u) = c * u, c > 0."""

    c: float
    label = "linear"

    def __post_init__(self) -> None:
        if self.c <= 0:
            raise ValueError("slope must be > 0")

    def _formula(self, us: np.ndarray) -> np.ndarray:
        return self.c * us


@dataclass(frozen=True, eq=False)
class Table(OrliczFunction):
    """Piecewise-linear interpolant through (u_i, M_i) knots.

    Must start at (0, 0) with strictly increasing u_i; extrapolates past the
    last knot with the final segment's slope.  Shape axioms (monotonicity,
    convexity) are NOT enforced at construction: run `verify_orlicz_axioms`
    to check a candidate table.
    """

    knots: tuple[tuple[float, float], ...]
    label = "table"

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

    def _formula(self, us: np.ndarray) -> np.ndarray:
        xs = np.array([a for a, _ in self.knots])
        ys = np.array([b for _, b in self.knots])
        out = np.interp(us, xs, ys)
        slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        beyond = us > xs[-1]
        out = np.where(beyond, ys[-1] + slope * (us - xs[-1]), out)
        return out


@dataclass(frozen=True)
class AxiomReport:
    """Grid-checked Orlicz axioms; `failures` lists the ones that did not hold."""

    zero_at_zero: bool
    positive: bool
    nondecreasing: bool
    midpoint_convex: bool
    growth: bool
    growth_floor: float
    failures: tuple[str, ...]

    @property
    def all_pass(self) -> bool:
        return not self.failures


def verify_orlicz_axioms(
    M: OrliczFunction,
    grid: Iterable[float],
    growth_floor: float = 0.0,
    tol: float = 1e-12,
) -> AxiomReport:
    """Check M(0)=0, positivity, monotonicity, midpoint convexity and growth.

    The grid must be sorted, nonempty and contain 0.  Convexity is tested as
    M((a+b)/2) <= (M(a)+M(b))/2 + tol over all grid pairs, one broadcast
    per distance between the pair's grid positions, so memory stays linear
    in the grid; growth as M(max grid) > growth_floor.  Report-valued:
    never raises for a bad M.
    """
    g = np.sort(np.asarray(list(grid), dtype=np.float64))
    if not g.size:
        raise ValueError("grid must be nonempty")
    if g[0] != 0.0:
        raise ValueError("grid must contain 0")
    if np.any(g < 0):
        raise NegativeArgument("grid values must be >= 0")

    vals = M.eval_many(g)
    with np.errstate(over="ignore", invalid="ignore"):  # inf arithmetic as on Python floats
        scale = float(np.fmax.reduce(np.abs(vals))) or 1.0
        slack = tol * max(1.0, scale)
        zero_at_zero = bool(vals[0] == 0.0)
        positive = bool(np.all(vals[g > 0] > 0))
        nondecreasing = bool(np.all(vals[1:] >= vals[:-1] - slack))
        midpoint_convex = not any(
            np.any(M.eval_many(0.5 * (g[:-d] + g[d:])) > 0.5 * (vals[:-d] + vals[d:]) + slack)
            for d in range(1, g.size)
        )
    growth = bool(vals[-1] > growth_floor)

    failures = tuple(
        name
        for name, ok in [
            ("zero_at_zero", zero_at_zero),
            ("positive", positive),
            ("nondecreasing", nondecreasing),
            ("midpoint_convex", midpoint_convex),
            ("growth", growth),
        ]
        if not ok
    )
    return AxiomReport(
        zero_at_zero, positive, nondecreasing, midpoint_convex, growth, growth_floor, failures
    )


# ---------------------------------------------------------------------------
# indexed families
# ---------------------------------------------------------------------------


class MusielakOrliczFamily:
    """A rule k -> M_k; every member must individually be an Orlicz function."""

    label = "abstract"

    def member(self, k: int) -> OrliczFunction:
        """M_k, computed by the family's own array formula bound to k.

        So M_k(u) has the bits of bind([k])([u])[0].  The formula's
        per-index data has one entry and broadcasts over any `us`; a family
        whose formula cannot broadcast overrides `member`.
        """
        return _Member(self._bind(np.array([k], dtype=np.int64)))

    def _bind(self, ks: np.ndarray) -> Kernel:
        """The array formula us -> M_{ks}(us), with the data of the indices gathered."""
        raise NotImplementedError

    def bind(self, ks: np.ndarray) -> Kernel:
        """The kernel us -> M_{ks[i]}(us[i]) elementwise, for any number of `us` arrays.

        The per-index data is gathered here, once; overflow gives +inf without a warning.
        """
        formula = self._bind(np.asarray(ks, dtype=np.int64))

        def kernel(us: np.ndarray) -> np.ndarray:
            us = _arguments(us)
            with np.errstate(over="ignore"):
                return formula(us)

        return kernel


@dataclass(frozen=True, eq=False)
class _Member(OrliczFunction):
    """One member of a family: its array formula bound to one index."""

    formula: Kernel
    label = "member"

    def _formula(self, us: np.ndarray) -> np.ndarray:
        return self.formula(us)


@dataclass(frozen=True)
class ConstantFamily(MusielakOrliczFamily):
    """M_k = M for every k."""

    function: OrliczFunction
    label = "constant"

    def member(self, k: int) -> OrliczFunction:
        return self.function

    def _bind(self, ks: np.ndarray) -> Kernel:
        return self.function._formula


@dataclass(frozen=True)
class IndexScaledFamily(MusielakOrliczFamily):
    """M_k(u) = u / k; the canonical pointwise-vanishing family."""

    label = "index_scaled"

    def _bind(self, ks: np.ndarray) -> Kernel:
        ks = ks.astype(np.float64)
        return lambda us: us / ks


@dataclass(frozen=True)
class IndexPowerFamily(MusielakOrliczFamily):
    """M_k(u) = u**p_k; indices past the supplied list repeat the last exponent."""

    exponents: tuple[float, ...]
    label = "index_power"

    def __post_init__(self) -> None:
        exps = tuple(float(p) for p in self.exponents)
        if not exps:
            raise ValueError("need at least one exponent")
        if any(p < 1 for p in exps):
            raise ValueError("every exponent must be >= 1")
        object.__setattr__(self, "exponents", exps)

    def _bind(self, ks: np.ndarray) -> Kernel:
        p = np.asarray(self.exponents)[np.minimum(ks - 1, len(self.exponents) - 1)]
        return lambda us: us**p


@dataclass(frozen=True, eq=False)
class SpikeFamily(MusielakOrliczFamily):
    """M_k(u) = c_k * u with per-index slope overrides on a default slope."""

    slopes: tuple[tuple[int, float], ...]
    default_slope: float = 1.0
    label = "spike"

    def __post_init__(self) -> None:
        if self.default_slope <= 0:
            raise ValueError("default slope must be > 0")
        pairs = tuple((int(k), float(c)) for k, c in self.slopes)
        if any(c <= 0 for _, c in pairs):
            raise ValueError("every slope must be > 0")
        object.__setattr__(self, "slopes", pairs)

    @cached_property
    def _table(self) -> dict[int, float]:
        return dict(self.slopes)

    def _bind(self, ks: np.ndarray) -> Kernel:
        keys = sorted(self._table)
        slopes = np.array([self._table[k] for k in keys])
        keys = np.array(keys, dtype=np.int64)
        c = np.full(ks.shape, self.default_slope)
        if keys.size:
            pos = np.minimum(np.searchsorted(keys, ks), keys.size - 1)
            hit = keys[pos] == ks
            c[hit] = slopes[pos[hit]]
        return lambda us: c * us


@dataclass(frozen=True, eq=False)
class CustomFamily(MusielakOrliczFamily):
    """Explicit members per index; indices past the list repeat the last one."""

    functions: tuple[OrliczFunction, ...]
    label = "custom"

    def __post_init__(self) -> None:
        if not self.functions:
            raise ValueError("need at least one member function")

    def member(self, k: int) -> OrliczFunction:
        return self.functions[min(k - 1, len(self.functions) - 1)]

    def _bind(self, ks: np.ndarray) -> Kernel:
        """One `eval_many` call per member, on the positions of the indices it serves."""
        idx = np.minimum(ks - 1, len(self.functions) - 1)
        order = np.argsort(idx, kind="stable")
        runs = np.split(order, np.flatnonzero(np.diff(idx[order])) + 1) if idx.size else []
        groups = [(self.functions[idx[run[0]]], run) for run in runs]

        def formula(us: np.ndarray) -> np.ndarray:
            out = np.empty(us.shape)
            for M, run in groups:
                out[run] = M.eval_many(us[run])
            return out

        return formula


def table_axiom_failures(family: MusielakOrliczFamily) -> dict[str, list[str]]:
    """The Orlicz axioms each Table member of `family` fails on its knots.

    Tables are not checked at construction (see `Table`), so families
    built from configs are checked here.  Keys name the member as the
    config does ("function", "functions[i]"); members that pass are left
    out, so a family whose tables all pass maps to {}.
    """
    if isinstance(family, ConstantFamily):
        members = {"function": family.function}
    elif isinstance(family, CustomFamily):
        members = {f"functions[{i}]": M for i, M in enumerate(family.functions)}
    else:
        return {}
    failures = {}
    for name, M in members.items():
        if isinstance(M, Table):
            report = verify_orlicz_axioms(M, [u for u, _ in M.knots])
            if report.failures:
                failures[name] = list(report.failures)
    return failures


# ---------------------------------------------------------------------------
# scale and exponent sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RhoSequence:
    """Strictly positive scale factors rho_k, constant or per-index."""

    constant: float | None = 1.0
    per_index: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if (self.constant is None) == (self.per_index is None):
            raise ValueError("set exactly one of constant / per_index")
        if self.constant is not None:
            if not (self.constant > 0 and math.isfinite(self.constant)):
                raise ValueError("rho must be strictly positive and finite")
        else:
            vals = tuple(float(v) for v in self.per_index)
            if not vals or any(not (v > 0 and math.isfinite(v)) for v in vals):
                raise ValueError("rho entries must be strictly positive and finite")
            object.__setattr__(self, "per_index", vals)

    def at(self, k: int) -> float:
        if self.constant is not None:
            return self.constant
        if k > len(self.per_index):
            raise ValueError(f"rho defined up to index {len(self.per_index)}, asked for {k}")
        return self.per_index[k - 1]

    def array(self, start: int, stop: int) -> np.ndarray:
        """rho_k for k = start..stop inclusive."""
        if self.constant is not None:
            return np.full(stop - start + 1, self.constant)
        if stop > len(self.per_index):
            raise ValueError(f"rho defined up to index {len(self.per_index)}, asked for {stop}")
        return np.asarray(self.per_index[start - 1 : stop], dtype=np.float64)


@dataclass(frozen=True)
class ExponentSequence:
    """Positive exponents s_k with derived envelope constants.

    h_inf = inf_k s_k, H_sup = sup_k s_k and D = max(1, 2**(H_sup - 1)), the
    constant in the power triangle inequality (a+b)**s <= D (a**s + b**s).
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
            vals = tuple(float(v) for v in self.per_index)
            if not vals or any(not (v > 0 and math.isfinite(v)) for v in vals):
                raise ValueError("exponents must be strictly positive and finite")
            object.__setattr__(self, "per_index", vals)

    @property
    def h_inf(self) -> float:
        return self.constant if self.constant is not None else min(self.per_index)

    @property
    def H_sup(self) -> float:
        return self.constant if self.constant is not None else max(self.per_index)

    @property
    def D(self) -> float:
        return max(1.0, 2.0 ** (self.H_sup - 1.0))

    def array(self, start: int, stop: int) -> np.ndarray:
        if self.constant is not None:
            return np.full(stop - start + 1, self.constant)
        idx = np.minimum(np.arange(start, stop + 1) - 1, len(self.per_index) - 1)
        return np.asarray(self.per_index, dtype=np.float64)[idx]

    @property
    def is_identically_one(self) -> bool:
        if self.constant is not None:
            return self.constant == 1.0
        return all(v == 1.0 for v in self.per_index)


# ---------------------------------------------------------------------------
# modular and norms
# ---------------------------------------------------------------------------


def modular(
    family: MusielakOrliczFamily, x: Sequence, rho: RhoSequence = RhoSequence()
) -> float:
    """Finite-prefix modular sum_{k=1}^{N} M_k(|x_k| / rho_k)."""
    n = x.horizon
    ks = np.arange(1, n + 1)
    with np.errstate(over="ignore"):  # a quotient or a sum past float64 is an honest +inf
        us = np.abs(x.values) / rho.array(1, n)
        return float(np.sum(family.bind(ks)(us)))


def luxemburg_norm(
    family: MusielakOrliczFamily, x: Sequence, tol: float = 1e-10
) -> float:
    """inf { rho > 0 : modular(x / rho) <= 1 } by bracketing + bisection.

    The map rho -> modular(family, x, rho) is nonincreasing with a single
    crossing of 1 for any nonzero prefix, so the bracket is expanded
    geometrically from rho = 1 and then bisected; the returned value is the
    upper bracket end, hence feasible (modular <= 1) and within `tol` of
    the infimum.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if not np.any(x.values):
        return 0.0
    kernel, ax = family.bind(np.arange(1, x.horizon + 1)), np.abs(x.values)  # reused by every step

    def g(rho: float) -> float:  # bit for bit modular(family, x, RhoSequence(constant=rho))
        with np.errstate(over="ignore"):
            return float(np.sum(kernel(ax / rho)))

    lo = hi = 1.0
    if g(1.0) > 1.0:
        for _ in range(200):
            hi *= 2.0
            if g(hi) <= 1.0:
                break
        else:
            raise BracketTooSmall(
                "modular stays above 1 up to rho = 2**200; the prefix is too large "
                "for the family or the family violates the growth axioms"
            )
        lo = hi / 2.0
    else:
        for _ in range(200):
            lo *= 0.5
            if g(lo) > 1.0:
                break
        else:
            raise BracketTooSmall(
                "modular stays <= 1 down to rho = 2**-200; the prefix is too small "
                "for the family or the family is degenerate"
            )
        hi = lo * 2.0
    return bisect_nonincreasing(g, 1.0, lo, hi, tol)


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


def orlicz_norm(
    family: MusielakOrliczFamily, x: Sequence, tol: float = 1e-9
) -> AmemiyaValue:
    """inf over k > 0 of (1 + modular(k * x)) / k.

    A log-spaced grid over k in [2**-20, 2**20] brackets the minimum, golden
    section refines it, and a still-descending right edge keeps doubling
    until the marginal improvement drops below `tol` (then the value is
    returned with `at_boundary=True`).
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if not np.any(x.values):
        return AmemiyaValue(0.0, False)
    kernel, ax = family.bind(np.arange(1, x.horizon + 1)), np.abs(x.values)  # reused by every step
    ax_max = float(np.max(ax))

    # bit for bit (1 + modular(family, Sequence(x.values * k))) / k
    def objective(k: float) -> float:
        if not math.isfinite(ax_max * k):
            raise ScaledPrefixOverflow(
                f"sequence values must be finite (no NaN/inf): the search scaled "
                f"max |x_k| = {ax_max:g} by k = {k:g} past float64"
            )
        with np.errstate(over="ignore"):  # a modular past float64 is an honest +inf
            return (1.0 + float(np.sum(kernel(ax * k)))) / k

    grid = [2.0**e for e in range(-20, 21)]
    k_star, value, at_boundary = grid_then_golden_min(objective, grid, tol)
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


def complementary(
    family: MusielakOrliczFamily,
    k: int,
    v: float,
    u_max: float = 1e3,
    tol: float = 1e-10,
    require_interior: bool = False,
) -> ConjugateValue:
    """Young conjugate N_k(v) = sup { |v| u - M_k(u) : u >= 0 } on [0, u_max].

    The integrand is concave (M_k convex), so golden section is exact up to
    tolerance; its bracket is first halved from u_max until M_k is finite at
    the upper end.  Boundary attainment (relative to u_max) is flagged, not
    raised, unless `require_interior` is set, in which case BracketTooSmall
    signals that the maximizer sat at u_max without the slope turning over.
    """
    M = family.member(k)
    a = abs(v)
    if a == 0.0:
        return ConjugateValue(0.0, False)

    def g(u: float) -> float:
        m = M(u)
        return -math.inf if math.isinf(m) else a * u - m

    # M is nondecreasing, so the maximizer lies where M is finite: halve the
    # bracket's upper end past any overflow before the golden section
    u_hi = u_max
    while math.isfinite(u_hi) and math.isinf(M(u_hi)):
        u_hi *= 0.5
    u_star, value = golden_section_max(g, 0.0, u_hi, tol)
    value = max(value, 0.0)  # u = 0 always gives 0
    # boundary attainment: maximizer at the edge with the slope still positive
    at_boundary = False
    if u_max - u_star <= max(10 * tol, 1e-9 * u_max):
        h = max(u_max * 1e-7, 1e-9)
        if g(u_max) >= g(u_max - h):
            at_boundary = True
            value = max(value, g(u_max))
    if at_boundary and require_interior:
        raise BracketTooSmall(
            f"conjugate maximizer at u_max={u_max} with nonnegative slope; widen the bracket"
        )
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
    c_rule: str
    samples_tested: int
    violations: tuple[tuple[int, float], ...]

    @property
    def held(self) -> bool:
        return not self.violations


def _default_u_grid() -> np.ndarray:
    # hits 1.0 exactly so power families expose their full doubling ratio
    return np.unique(np.concatenate([np.geomspace(1e-6, 1.0, 31), np.linspace(1.0, 10.0, 19)]))


def delta2_check(
    family: MusielakOrliczFamily,
    a: float = 1.0,
    c_values: tuple[float, ...] | None = None,
    u_samples: np.ndarray | None = None,
    k_range: Iterable[int] = range(1, 33),
) -> Delta2Report:
    """Estimate the doubling constant of a family on the admissible set.

    The admissible set per index k is { u in u_samples : M_k(u) <= a }; `a`
    is uniform across k (configurable).  When `c_values` is None the
    summable default c_k = 2**-k is used.
    """
    if a <= 0:
        raise ValueError("threshold a must be > 0")
    us = _default_u_grid() if u_samples is None else np.asarray(u_samples, dtype=np.float64)
    us = us[us > 0]
    ks = [int(k) for k in k_range]
    if c_values is None:
        c_rule = "2^-k"
        c_of = lambda k: 2.0**-k
    else:
        c_rule = "supplied"
        c_of = lambda k: c_values[min(k - 1, len(c_values) - 1)]

    K_est = 0.0
    tested = 0
    violations: list[tuple[int, float]] = []
    for k in ks:
        kernel = family.bind(np.full(us.shape, k))
        m_u = kernel(us)
        m_2u = kernel(2.0 * us)
        admissible = m_u <= a
        if not np.any(admissible):
            continue
        c_k = c_of(k)
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
        c_rule=c_rule,
        samples_tested=tested,
        violations=tuple(violations),
    )
