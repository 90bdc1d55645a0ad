"""Counterexample constructions and empirical inclusion experiments.

Two constructions are built here, each with a known analytic limit that the
test suite and the CLI check against:

  * `build_thm37` -- a half-block plateau: the summed block statistic decays
    like 2**-r (tends to 0) while the exception density per block tends to
    1/2, witnessing that membership by summed statistic does not imply
    membership by density when the family vanishes pointwise in k.

  * `build_thm38` -- one spike per block with the family slope solved so the
    spike's modular term equals h_r**alpha exactly: the per-block exception
    density is 1/h_r**alpha (tends to 0) while the summed statistic stays
    at 1, witnessing the reverse non-inclusion for unbounded families.

The remaining helpers turn the per-block proof inequalities of the
inclusion theorems into machine-checkable bounds, read from `BlockEngine`
results (so a NaN statistic raises NonFiniteStatistic, as everywhere), and
run corpora of sequences through antecedent/consequent space pairs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Sequence as TypingSequence

import numpy as np

from .convergence import (
    CONVERGES,
    DIVERGES,
    MODULAR_FLAGS,
    RAW_FLAGS,
    SHAT_DENSITY,
    STRONG,
    BlockEngine,
    SpaceParams,
    _block_average,
    classify_trajectory,
)
from .errors import EmptyAdmissibleSet, HypothesisUnsatisfiable
from .orlicz import (
    ConstantFamily,
    ExponentSequence,
    IndexScaledFamily,
    LinearSlope,
    MusielakOrliczFamily,
    RhoSequence,
    SpikeFamily,
    delta2_check,
)
from .sequences import (
    Explicit,
    Geometric,
    Identity,
    LacunarySchedule,
    Sequence,
    build_lacunary,
)

THEOREMS = ("T31", "T33", "T35", "T36", "T37", "T38")


# ---------------------------------------------------------------------------
# counterexample constructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterexampleSpec:
    """Parameters for one construction.

    For thm37, `nu` is the plateau height and the family must have a
    pointwise-vanishing, eventually nonincreasing tail k -> M_k(nu/rho).
    For thm38, spike heights are nu_values (default nu * r), and the family
    defaults to a spike-slope family solved from the defining inequality;
    a given schedule rule must produce r_max blocks, and nu_values must
    hold r_max heights.
    """

    theorem: str
    nu: float = 1.0
    rho: float = 1.0
    r_max: int = 14
    alpha: float = 1.0
    m_max: int | None = None
    family: MusielakOrliczFamily | None = None
    schedule_rule: Geometric | Explicit | None = None
    nu_values: tuple[float, ...] | None = None
    horizon_cap: int = 1 << 22

    def __post_init__(self) -> None:
        if self.theorem not in ("thm37", "thm38"):
            raise ValueError(f"theorem must be 'thm37' or 'thm38', got {self.theorem!r}")
        if self.nu < 0:
            raise ValueError("nu must be >= 0")
        if self.rho <= 0:
            raise ValueError("rho must be > 0")
        if self.r_max < 1:
            raise ValueError("r_max must be >= 1")
        if self.nu_values is not None:
            object.__setattr__(self, "nu_values", tuple(float(v) for v in self.nu_values))
        if self.theorem != "thm38":
            return
        rule = self.schedule_rule
        if rule is not None and build_lacunary(rule).num_blocks != self.r_max:
            raise ValueError("schedule rule must produce exactly r_max blocks")
        if self.nu_values is not None and len(self.nu_values) != self.r_max:
            raise ValueError(f"need {self.r_max} spike heights, got {len(self.nu_values)}")


def build_thm37(spec: CounterexampleSpec) -> tuple[Sequence, LacunarySchedule, SpaceParams]:
    """Half-block plateau construction with its schedule and space parameters.

    Picks cut points n_r (nondecreasing block lengths) so that
    M_{n_r + 1}(nu/rho) < 2**-r, puts the value nu on the first
    ceil(h_r / 2) indices of each block and 0 on the rest, and returns
    identity-matrix parameters with unit exponents.  The exception
    threshold is set to half the smallest plateau term within the horizon,
    so the per-term membership flags mark exactly the plateau indices.

    Raises HypothesisUnsatisfiable when the family tail cannot reach
    2**-r within `horizon_cap`, or is not nonincreasing where probed.
    """
    if spec.theorem != "thm37":
        raise ValueError("spec.theorem must be 'thm37'")
    family = spec.family if spec.family is not None else IndexScaledFamily()
    m_max = 32 if spec.m_max is None else spec.m_max
    u = spec.nu / spec.rho

    def tail_value(k: int) -> float:
        return family.member(k)(u)

    # cut points: smallest n_r keeping block lengths nondecreasing with
    # tail_value(n_r + 1) < 2**-r; one extra phantom cut for window lookahead
    cuts = [0]
    h_prev = 1
    for r in range(1, spec.r_max + 2):
        target = 2.0**-r
        lo = cuts[-1] + h_prev
        if tail_value(lo + 1) < target:
            n_r = lo
        else:
            hi = lo
            while tail_value(hi + 1) >= target:
                hi = max(hi + 1, hi * 2)
                if hi > spec.horizon_cap:
                    raise HypothesisUnsatisfiable(
                        f"tail of M_k(nu/rho) never drops below 2**-{r} "
                        f"within the horizon cap {spec.horizon_cap}"
                    )
            # smallest valid point in (lo, hi]
            a, b = lo, hi
            while a + 1 < b:
                mid = (a + b) // 2
                if tail_value(mid + 1) < target:
                    b = mid
                else:
                    a = mid
            n_r = b
        cuts.append(n_r)
        h_prev = cuts[-1] - cuts[-2]

    phantom_cut = cuts[-1]
    cuts = cuts[:-1]
    schedule = build_lacunary(Explicit(tuple(cuts)))

    # numeric hypothesis check: nonincreasing, vanishing tail at the probes
    probes = [tail_value(c + 1) for c in cuts[1:]] + [tail_value(phantom_cut + 1)]
    if any(b > a + 1e-15 for a, b in zip(probes, probes[1:])):
        raise HypothesisUnsatisfiable("M_k(nu/rho) is not nonincreasing along the cut probes")
    for r, val in enumerate(probes[:-1], start=1):
        if not val < 2.0**-r:
            raise HypothesisUnsatisfiable(
                f"M_(n_{r}+1)(nu/rho) = {val} is not below 2**-{r}"
            )

    # sequence: nu on the first ceil(h_r/2) indices of each block, 0 after;
    # the pattern continues into the phantom block to cover window lookahead
    # (for nu = 0 the continuation is identically zero, nothing to cover)
    if spec.nu > 0 and m_max > phantom_cut - schedule.last_index:
        raise HypothesisUnsatisfiable(
            f"lookahead m_max={m_max} reaches past the next block end {phantom_cut}"
        )
    horizon = schedule.last_index + m_max
    values = np.zeros(horizon)
    half_lengths = []
    for r in range(1, schedule.num_blocks + 1):
        start = schedule.cut_points[r - 1]
        h_r = schedule.cut_points[r] - start
        half = math.ceil(h_r / 2)
        half_lengths.append(half)
        values[start : start + half] = spec.nu
    phantom_half = math.ceil((phantom_cut - schedule.last_index) / 2)
    lookahead = min(m_max, phantom_half)
    values[schedule.last_index : schedule.last_index + lookahead] = spec.nu

    # threshold below every plateau term stored in the prefix
    if spec.nu > 0:
        last_half_index = schedule.cut_points[-2] + half_lengths[-1]
        epsilon = 0.5 * tail_value(last_half_index)
        if epsilon <= 0:
            epsilon = 1e-9
    else:
        epsilon = 1e-3

    params = SpaceParams(
        family=family,
        schedule=schedule,
        alpha=spec.alpha,
        epsilon=epsilon,
        L=0.0,
        m_max=m_max,
        rho=RhoSequence(constant=spec.rho),
        exponents=ExponentSequence(constant=1.0),
        matrix=Identity(),
    )
    return Sequence._adopt(values), schedule, params


def build_thm38(spec: CounterexampleSpec) -> tuple[Sequence, LacunarySchedule, SpaceParams]:
    """Spike construction: A_k(x) = nu_r at k = n_r, 0 elsewhere.

    The default family puts slope h_r**alpha * rho / nu_r at each spike
    index so M_{n_r}(nu_r / rho) = h_r**alpha exactly; a user-supplied
    family is validated against the same inequality (>=) at every spike.
    """
    if spec.theorem != "thm38":
        raise ValueError("spec.theorem must be 'thm38'")
    m_max = 0 if spec.m_max is None else spec.m_max
    rule = spec.schedule_rule or Geometric(base=2.0, ratio=2.0, count=spec.r_max)
    schedule = build_lacunary(rule)

    R = schedule.num_blocks
    if spec.nu_values is not None:
        nus = spec.nu_values
    else:
        base = spec.nu if spec.nu > 0 else 1.0
        nus = tuple(base * r for r in range(1, R + 1))
    if any(v <= 0 for v in nus) or any(b <= a for a, b in zip(nus, nus[1:])):
        raise HypothesisUnsatisfiable("spike heights must be strictly increasing and positive")
    if not math.isfinite(nus[-1]):
        raise HypothesisUnsatisfiable(f"spike height nu_{R} overflows float64")

    h = schedule.block_lengths.astype(np.float64)
    h_alpha = h**spec.alpha
    spikes = schedule.cut_points[1:]

    if spec.family is None:
        with np.errstate(over="ignore"):
            slopes = tuple(
                (spikes[r], h_alpha[r] * spec.rho / nus[r]) for r in range(R)
            )
        if not all(0 < c < math.inf for _, c in slopes):
            raise HypothesisUnsatisfiable(
                "a spike slope h_r**alpha * rho / nu_r is past the range of float64"
            )
        family: MusielakOrliczFamily = SpikeFamily(slopes=slopes, default_slope=1.0)
    else:
        family = spec.family
    for r in range(R):
        got = family.member(spikes[r])(nus[r] / spec.rho)
        if not got >= h_alpha[r] * (1.0 - 1e-12):
            raise HypothesisUnsatisfiable(
                f"M_(n_{r + 1})(nu_{r + 1}/rho) = {got} < h_{r + 1}**alpha = {h_alpha[r]}"
            )

    horizon = schedule.last_index + m_max
    if m_max > 0:
        # the infinite continuation is zero until the next spike; make sure
        # the lookahead window does not swallow it
        next_cut = (
            math.ceil(rule.base * rule.ratio ** (R + 1))
            if isinstance(rule, Geometric)
            else schedule.last_index + m_max + 1
        )
        if horizon >= next_cut:
            raise HypothesisUnsatisfiable(
                f"lookahead m_max={m_max} reaches the next spike at {next_cut}"
            )
    values = np.zeros(horizon)
    for r in range(R):
        values[spikes[r] - 1] = nus[r]

    epsilon = min(1.0, 0.5 * float(np.min(h_alpha)))
    params = SpaceParams(
        family=family,
        schedule=schedule,
        alpha=spec.alpha,
        epsilon=epsilon,
        L=0.0,
        m_max=m_max,
        rho=RhoSequence(constant=spec.rho),
        exponents=ExponentSequence(constant=1.0),
        matrix=Identity(),
    )
    return Sequence._adopt(values), schedule, params


# ---------------------------------------------------------------------------
# per-block proof inequalities
# ---------------------------------------------------------------------------


def _require_constant_setup(p: SpaceParams) -> tuple[float, float]:
    if not isinstance(p.family, ConstantFamily):
        raise ValueError("per-block bounds need a constant family (k-independent M)")
    if p.rho.constant is None:
        raise ValueError("per-block bounds need a constant rho")
    return p.rho.constant, p.epsilon


def _at_window(x: Sequence, spaces: list[SpaceParams], m: int) -> list[dict[str, np.ndarray]]:
    """Per space, each bundle's trajectory at window m, from one engine with m_max = m."""
    results = BlockEngine([replace(q, m_max=m) for q in spaces])(x)
    return [{key: bundle.per_m[m].values for key, bundle in stats.items()} for stats in results]


def _power_range(value: float, exponents: ExponentSequence) -> tuple[float, float]:
    """(min, max) of value**h_inf and value**H_sup; a power past float64 is an honest +inf."""
    with np.errstate(over="ignore"):
        powers = np.power(value, exponents.h_inf), np.power(value, exponents.H_sup)
    return float(min(powers)), float(max(powers))


def _bound_times_density(bound: float, density: np.ndarray) -> np.ndarray:
    """bound * density per block, where an infinite bound times no exception is 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(density > 0, density * bound, 0.0)


def thm31_block_bounds(
    x: Sequence, p: SpaceParams, beta: float, m: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Lower bound of the summed statistic by the raw exception count.

    Returns (lhs, rhs) per block with

      lhs_r = strong statistic at order alpha,
      rhs_r = |{k in I_r : |t_{km}(A(x)) - L| >= eps}| / h_r**beta
              * min(M(eps1)**h_inf, M(eps1)**H_sup),   eps1 = eps / rho.

    Valid for alpha <= beta, constant family and constant rho; then
    lhs >= rhs holds exactly in real arithmetic.
    """
    lo = _thm31_floor(p, beta)
    own, at_beta = _at_window(x, [p, replace(p, alpha=beta)], m)
    return own[STRONG], _bound_times_density(lo, at_beta[RAW_FLAGS])


def _thm31_floor(p: SpaceParams, beta: float) -> float:
    """min(M(eps1)**h_inf, M(eps1)**H_sup), eps1 = eps / rho: T31's bound per raw exception."""
    if beta < p.alpha or not 0 < beta <= 1:
        raise ValueError("need alpha <= beta <= 1")
    rho_c, eps = _require_constant_setup(p)
    return _power_range(p.family.function(eps / rho_c), p.exponents)[0]


def thm33_block_bounds(
    x: Sequence, p: SpaceParams, T: float, m: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Upper bound of the summed statistic for uniformly bounded transforms.

    Returns (lhs, rhs) per block with

      lhs_r = strong statistic at order alpha,
      rhs_r = max(M(K)**h_inf, M(K)**H_sup) * raw exception density
              + (h_r / h_r**alpha) * max(M(eps1)**h_inf, M(eps1)**H_sup),

    K = T / rho.  T must dominate |t_{km}(A(x) - L)| over the evaluated
    range (e.g. T = max |x_k - L| for the identity matrix); a ValueError
    names the first block where it does not.  The underlying hypothesis
    h_r / h_r**alpha -> 1 forces alpha = 1 for growing blocks; a warning
    is emitted for alpha < 1.
    """
    rho_c, eps = _require_constant_setup(p)
    if p.alpha < 1.0:
        warnings.warn(
            "the bounded-inclusion hypothesis h_r/h_r**alpha -> 1 is only "
            "satisfiable at alpha = 1 for growing blocks",
            stacklevel=2,
        )
    T = float(T)
    if not T >= 0:
        raise ValueError(f"T={T} does not dominate the window deviations: T must be >= 0")
    limit = T * (1 + 1e-12)
    if limit < math.inf:  # raw flags at the float after `limit` mark the deviations above it
        (above,) = _at_window(x, [replace(p, epsilon=float(np.nextafter(limit, math.inf)))], m)
        blocks = np.flatnonzero(above[RAW_FLAGS])
        if blocks.size:
            raise ValueError(
                f"T={T} does not dominate the window deviations at m={m}, "
                f"first in block r={blocks[0] + 1}"
            )

    (own,) = _at_window(x, [p], m)
    h = p.schedule.block_lengths.astype(np.float64)
    M = p.family.function
    big = _power_range(M(T / rho_c), p.exponents)[1]
    small = _power_range(M(eps / rho_c), p.exponents)[1]
    with np.errstate(over="ignore"):
        rhs = _bound_times_density(big, own[RAW_FLAGS]) + (h / h**p.alpha) * small
    return own[STRONG], rhs


def thm34_triangle_bounds(
    x: Sequence,
    p: SpaceParams,
    L1: float,
    L2: float,
    rho1: float,
    rho2: float,
    m: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Modular triangle bound separating two candidate limits.

    With rho = max(2*rho1, 2*rho2) and D = max(1, 2**(H_sup - 1)):

      lhs_r = (1/h_r**alpha) * sum_{k in I_r} (M_k(|L1 - L2| / rho))**s_k
      rhs_r = D * strong_r(L=L1, rho1) + D * strong_r(L=L2, rho2)

    and lhs <= rhs holds in real arithmetic; a tail of rhs near zero
    therefore pins |L1 - L2| to zero, which is the uniqueness argument.
    """
    rho = max(2.0 * rho1, 2.0 * rho2)
    sched = p.schedule
    k_end = sched.last_index
    ks = np.arange(1, k_end + 1)
    us = np.full(k_end, abs(L1 - L2) / rho)
    terms = p.family.bind(ks)(us)
    if not p.exponents.is_identically_one:
        with np.errstate(over="ignore"):  # a term past float64 is an honest +inf
            terms = terms ** p.exponents.array(1, k_end)
    lhs = _block_average(terms, sched, p.alpha)

    D = p.exponents.D
    v1, v2 = (  # the spaces of one engine share L, so one engine per candidate limit
        _at_window(x, [replace(p, L=L, rho=RhoSequence(constant=r))], m)[0][STRONG]
        for L, r in ((L1, rho1), (L2, rho2))
    )
    with np.errstate(over="ignore"):
        return lhs, D * v1 + D * v2


@dataclass(frozen=True)
class GrowthEstimate:
    """Sampled lower bound of M_k(nu/rho_k) / (nu/rho_k) over large nu."""

    gamma: float
    nu_range: tuple[float, float]
    k_range: tuple[int, int]
    bounded_away: bool


def liminf_growth_estimate(
    family: MusielakOrliczFamily,
    rho: RhoSequence = RhoSequence(),
    nu_grid: np.ndarray | None = None,
    k_range: Iterable[int] = range(1, 65),
    floor: float = 1e-9,
) -> GrowthEstimate:
    """Estimate inf_k M_k(nu/rho_k)/(nu/rho_k) over a nu-grid.

    Evidence, not proof: the estimate is the min over the sampled (nu, k)
    rectangle, and `bounded_away` reports whether it clears `floor`.
    Indices past a per-index rho and samples whose nu/rho_k overflows
    float64 are left out; EmptyAdmissibleSet reports a rectangle with no
    sample left.
    """
    nus = np.geomspace(1.0, 1e3, 13) if nu_grid is None else np.asarray(nu_grid, float)
    defined = math.inf if rho.per_index is None else len(rho.per_index)
    ks = [int(k) for k in k_range if k <= defined]
    gamma = math.inf
    sampled = False
    for k in ks:
        r = rho.at(k)
        with np.errstate(over="ignore"):
            us = nus / r
        us = us[np.isfinite(us)]
        if us.size:
            sampled = True
            ratios = family.bind(np.full(us.shape, k))(us) / us
            gamma = min(gamma, float(np.min(ratios)))
    if not sampled:
        raise EmptyAdmissibleSet("no sampled (k, nu) has rho_k defined and nu / rho_k finite")
    return GrowthEstimate(
        gamma=gamma,
        nu_range=(float(nus[0]), float(nus[-1])),
        k_range=(ks[0], ks[-1]),
        bounded_away=gamma > floor,
    )


# ---------------------------------------------------------------------------
# corpora and the inclusion matrix
# ---------------------------------------------------------------------------


def random_bounded_sequence(
    rng: np.random.Generator,
    horizon: int,
    center: float = 0.0,
    radius: float = 1.0,
    exception_density: float = 0.0,
    exception_scale: float = 3.0,
) -> Sequence:
    """Uniform draw in [center-radius, center+radius] with planted exceptions.

    Exception indices (chosen at `exception_density`) sit at
    center +/- exception_scale * radius, outside the bounded band, so
    membership of the draw in the density classes is controlled by design.
    Raises ValueError when the band's width or an exception value is not finite.
    """
    if not math.isfinite((center + radius) - (center - radius)):
        raise ValueError(
            f"center +/- radius must span a finite width, got center={center:g}, radius={radius:g}"
        )
    if exception_density > 0 and not all(
        math.isfinite(center + s * exception_scale * radius) for s in (-1.0, 1.0)
    ):
        raise ValueError(
            f"center +/- exception_scale * radius must be finite, got center={center:g}, "
            f"radius={radius:g}, exception_scale={exception_scale:g}"
        )
    values = rng.uniform(center - radius, center + radius, size=horizon)
    if exception_density > 0:
        draws = np.empty(horizon)  # both uniform draws, one after the other
        at = np.flatnonzero(rng.random(out=draws) < exception_density)
        signs = np.where(rng.random(out=draws)[at] < 0.5, -1.0, 1.0)
        values[at] = center + signs * exception_scale * radius
    return Sequence._adopt(values)


@dataclass(frozen=True, eq=False)
class InclusionReport:
    """Corpus-level verdicts, implication statuses, and witnesses.

    An implication row is FAIL only when the antecedent verdict is
    ConvergesToZero and the consequent verdict is DoesNotConverge;
    Inconclusive never fails an implication.
    """

    corpus_id: str
    verdicts: tuple[dict, ...]
    implications: tuple[dict, ...]
    theorem_results: dict
    witnesses: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "corpus_id": self.corpus_id,
            "verdicts": list(self.verdicts),
            "implications": list(self.implications),
            "theorem_results": self.theorem_results,
            "witnesses": list(self.witnesses),
        }


def _implication_status(antecedent: str, consequent: str) -> str:
    if antecedent != CONVERGES:
        return "VACUOUS"
    if consequent == DIVERGES:
        return "FAIL"
    if consequent == CONVERGES:
        return "PASS"
    return "INCONCLUSIVE"


def run_inclusion_matrix(
    corpus: Iterable[tuple[Sequence, SpaceParams]],
    theorems: Iterable[str] = THEOREMS,
    beta: float = 1.0,
    verdict_tol: float = 1e-3,
    tail_window: int | None = None,
    inequality_slack: float = 1e-12,
    corpus_id: str = "corpus",
) -> InclusionReport:
    """Run antecedent/consequent verdict pairs for each requested theorem.

    Per theorem: T31 checks the summed statistic at alpha against the raw
    exception density at `beta` (and machine-checks the per-block lower
    bound when the setup is constant-family/constant-rho); T33 checks the
    reverse inclusion for bounded rows; T35/T36 compare the plain-average
    space against the family space, attaching a doubling report (T35) and
    a sampled growth estimate (T36); T37/T38 scan for non-inclusion
    witnesses.  Reports name the flag mode used for every density verdict.

    Each sequence is computed once, in one engine call for every space its
    theorems read: the family space at alpha, at `beta` for T31, and the
    plain-average space for T35/T36.  Consecutive entries with equal
    parameters (all seeded draws of a corpus) share one `BlockEngine`, and
    the previous engine is dropped before the next one is built.
    """
    requested = [t for t in THEOREMS if t in set(theorems)]
    verdict_rows: list[dict] = []
    implications: list[dict] = []
    witnesses: list[dict] = []
    theorem_results: dict = {}
    slack = inequality_slack

    cache: dict[tuple, str] = {}
    stats: dict[tuple, dict] = {}  # (alpha, tag) -> block statistics of the current sequence
    engine: BlockEngine | None = None
    engine_params: SpaceParams | None = None
    engine_spaces: list[tuple] = []

    def verdict_of(i: int, p: SpaceParams, statistic: str, mode: str, tag: str = "family") -> str:
        key = (i, statistic, mode, p.alpha, tag)
        if key not in cache:
            bundle = stats[(p.alpha, tag)][STRONG if statistic == STRONG else mode]
            v = classify_trajectory(bundle.sup.values, verdict_tol, tail_window)
            label = f"{statistic}[{tag}]@alpha={p.alpha:g}" + (
                f",flags={mode}" if statistic == SHAT_DENSITY else ""
            )
            verdict_rows.append(
                {
                    "sequence": f"seq_{i:03d}",
                    "space": label,
                    "decision": v.decision,
                    "tail_mean": v.tail_mean,
                }
            )
            cache[key] = v.decision
        return cache[key]

    t31_violations = 0
    first: SpaceParams | None = None
    for i, (x, p) in enumerate(corpus):
        sid = f"seq_{i:03d}"
        if first is None:
            first = p
        if requested:
            if p != engine_params:
                engine = None  # free the previous engine's buffers before allocating the next
                spaces = {(p.alpha, "family"): p}
                if "T31" in requested:
                    spaces[(beta, "family")] = replace(p, alpha=beta)
                if "T35" in requested or "T36" in requested:
                    spaces[(p.alpha, "plain")] = replace(p, family=ConstantFamily(LinearSlope(1.0)))
                engine, engine_params, engine_spaces = BlockEngine(spaces.values()), p, list(spaces)
            stats = dict(zip(engine_spaces, engine(x)))
        for theorem in requested:
            if theorem == "T31":
                ante = verdict_of(i, p, STRONG, MODULAR_FLAGS)
                cons = verdict_of(i, replace(p, alpha=beta), SHAT_DENSITY, RAW_FLAGS)
                status = _implication_status(ante, cons)
                implications.append(
                    {
                        "theorem": "T31",
                        "sequence": sid,
                        "antecedent": ante,
                        "consequent": cons,
                        "flag_mode": RAW_FLAGS,
                        "status": status,
                    }
                )
                if isinstance(p.family, ConstantFamily) and p.rho.constant is not None:
                    lhs = stats[(p.alpha, "family")][STRONG].per_m[0].values
                    density = stats[(beta, "family")][RAW_FLAGS].per_m[0].values
                    rhs = _bound_times_density(_thm31_floor(p, beta), density)
                    with np.errstate(invalid="ignore"):  # inf - inf where both sides are infinite
                        gap = rhs - lhs
                    bad = np.where(
                        np.isinf(rhs), lhs < rhs, gap > slack * np.maximum(1.0, np.abs(rhs))
                    )
                    t31_violations += int(np.count_nonzero(bad))
            elif theorem == "T33":
                ante = verdict_of(i, p, SHAT_DENSITY, RAW_FLAGS)
                cons = verdict_of(i, p, STRONG, MODULAR_FLAGS)
                status = _implication_status(ante, cons)
                implications.append(
                    {
                        "theorem": "T33",
                        "sequence": sid,
                        "antecedent": ante,
                        "consequent": cons,
                        "flag_mode": RAW_FLAGS,
                        "status": status,
                        "hypothesis_note": (
                            "h_r/h_r**alpha -> 1 requires alpha = 1"
                            if p.alpha < 1
                            else "alpha = 1"
                        ),
                    }
                )
            elif theorem in ("T35", "T36"):
                v_plain = verdict_of(i, p, STRONG, MODULAR_FLAGS, tag="plain")
                v_family = verdict_of(i, p, STRONG, MODULAR_FLAGS)
                if theorem == "T35":
                    ante, cons = v_plain, v_family
                else:
                    ante, cons = v_family, v_plain
                status = _implication_status(ante, cons)
                implications.append(
                    {
                        "theorem": theorem,
                        "sequence": sid,
                        "antecedent": ante,
                        "consequent": cons,
                        "status": status,
                        "note": "conditional on sampled hypothesis",
                    }
                )
            elif theorem in ("T37", "T38"):
                strong_v = verdict_of(i, p, STRONG, MODULAR_FLAGS)
                shat_v = verdict_of(i, p, SHAT_DENSITY, MODULAR_FLAGS)
                if theorem == "T37" and strong_v == CONVERGES and shat_v == DIVERGES:
                    witnesses.append(
                        {
                            "theorem": "T37",
                            "sequence": sid,
                            "strong": strong_v,
                            "shat": shat_v,
                            "flag_mode": MODULAR_FLAGS,
                        }
                    )
                if theorem == "T38" and shat_v == CONVERGES and strong_v == DIVERGES:
                    witnesses.append(
                        {
                            "theorem": "T38",
                            "sequence": sid,
                            "strong": strong_v,
                            "shat": shat_v,
                            "flag_mode": MODULAR_FLAGS,
                        }
                    )

    for theorem in requested:
        rows = [imp for imp in implications if imp["theorem"] == theorem]
        if theorem in ("T37", "T38"):
            found = [w for w in witnesses if w["theorem"] == theorem]
            theorem_results[theorem] = {
                "kind": "witness",
                "witnesses_found": len(found),
            }
            continue
        fails = sum(1 for imp in rows if imp["status"] == "FAIL")
        result = {
            "kind": "implication",
            "rows": len(rows),
            "fail_rows": fails,
            "pass": fails == 0,
        }
        if theorem == "T31":
            result["block_inequality_violations"] = t31_violations
        if theorem == "T35" and first is not None:
            rep = delta2_check(first.family)
            result["delta2"] = {
                "K_estimate": rep.K_estimate,
                "held": rep.held,
                "a": rep.a,
                "c_rule": rep.c_rule,
            }
        if theorem == "T36" and first is not None:
            est = liminf_growth_estimate(first.family, first.rho)
            result["liminf"] = {
                "gamma": est.gamma,
                "bounded_away": est.bounded_away,
                "nu_range": list(est.nu_range),
            }
            result["note"] = "conditional on sampled hypothesis"
        theorem_results[theorem] = result

    return InclusionReport(
        corpus_id=corpus_id,
        verdicts=tuple(verdict_rows),
        implications=tuple(implications),
        theorem_results=theorem_results,
        witnesses=tuple(witnesses),
    )


# ---------------------------------------------------------------------------
# limit uniqueness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniquenessReport:
    """Tail means of the summed statistic over a grid of candidate limits.

    status: UNIQUE (near-minimal set has diameter <= 2 * grid step),
    NO_LIMIT (no candidate reaches the convergence tolerance), or
    AMBIGUOUS (several well-separated candidates tie).
    """

    l_grid: tuple[float, ...]
    tail_means: tuple[float, ...]
    argmin_set: tuple[float, ...]
    diameter: float
    grid_step: float
    status: str

    @property
    def passed(self) -> bool:
        return self.status != "AMBIGUOUS"

    @property
    def argmin_L(self) -> float:
        best = min(range(len(self.tail_means)), key=lambda i: self.tail_means[i])
        return self.l_grid[best]


def uniqueness_experiment(
    x: Sequence,
    p: SpaceParams,
    L_grid: TypingSequence[float],
    verdict_tol: float = 1e-3,
    argmin_tol: float = 1e-3,
    tail_window: int | None = None,
) -> UniquenessReport:
    """Scan candidate limits and report where the summed statistic bottoms out."""
    grid = sorted(float(L) for L in L_grid)
    if len(grid) < 2:
        raise ValueError("need at least two candidate limits")
    tails: list[float] = []
    for L in grid:
        bundle = BlockEngine([replace(p, L=L)])(x)[0][STRONG]
        v = classify_trajectory(bundle.sup.values, verdict_tol, tail_window)
        tails.append(v.tail_mean)
    best = min(tails)
    argmin_set = tuple(L for L, t in zip(grid, tails) if t <= best + argmin_tol)
    diameter = argmin_set[-1] - argmin_set[0]
    grid_step = max(b - a for a, b in zip(grid, grid[1:]))
    if best > verdict_tol:
        status = "NO_LIMIT"
    elif diameter <= 2.0 * grid_step:
        status = "UNIQUE"
    else:
        status = "AMBIGUOUS"
    return UniquenessReport(
        l_grid=tuple(grid),
        tail_means=tuple(tails),
        argmin_set=argmin_set,
        diameter=diameter,
        grid_step=grid_step,
        status=status,
    )
