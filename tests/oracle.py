"""Exact references for the numbers of a verdict, in `fractions.Fraction`.

Every float is a rational number, so the tail mean and the least-squares
tail slope of a finite trajectory have exact values; `tail_mean` and
`tail_slope` compute them, and `mean_bound` and `slope_bound` give how far
`classify_trajectory` may be from them.  The window means, terms and
densities of the engine have no oracle here yet.

Notation: t_0..t_{w-1} is the tail, eps = 2**-53 the unit roundoff, and
every float operation is exact up to a factor (1 + delta), |delta| <= eps,
or, where its result is subnormal, up to an absolute 2**-1075 (a sum or a
difference that lands there is exact).  d_r = r - (w - 1) / 2 is the
centred index, D = sum |d_r| and S = sum d_r**2 = w (w**2 - 1) / 12; both
are exact in float64 for any tail a trajectory has.
"""

from __future__ import annotations

from fractions import Fraction

EPS = Fraction(1, 2**53)
TINY = Fraction(1, 2**1074)  # the smallest subnormal


def _exact(tail) -> list[Fraction]:
    return [Fraction(float(t)) for t in tail]


def tail_mean(tail) -> Fraction:
    """The exact mean of the tail."""
    t = _exact(tail)
    return sum(t, Fraction(0)) / len(t)


def tail_slope(tail) -> Fraction:
    """The exact least-squares slope of the tail against r = 0..w-1; 0 for one point."""
    t = _exact(tail)
    w = len(t)
    if w == 1:
        return Fraction(0)
    centre, mean = Fraction(w - 1, 2), sum(t, Fraction(0)) / w
    return sum(((r - centre) * (v - mean) for r, v in enumerate(t)), Fraction(0)) / Fraction(
        w * (w * w - 1), 12
    )


def mean_bound(tail) -> Fraction:
    """A bound on |tail_mean - mean| for the mean `classify_trajectory` reports.

    That mean is `np.mean`: a sum of the w values in some order, then one
    division by w.  Each of the w - 1 additions adds at most eps times a
    partial sum, itself at most w max|t| (1 + w eps), so the sum is off by
    at most (w - 1) w eps max|t| (1 + w eps), and after the division the
    mean by (w - 1) eps max|t| (1 + w eps) + eps max|t|, or 2**-1075 where
    the quotient is subnormal.  When the sum overflows, the mean is taken
    on t / s, s = max|t|, and multiplied back by s: the w quotients add
    eps s each, the product one more, that is 2 eps max|t| in all, and a
    quotient below the normal range s 2**-1075.  So (w + 2) eps max|t| (1 +
    w eps) + 2**-1074 covers both, and 1.01 stands for the (1 + w eps).
    """
    t = _exact(tail)
    w, top = len(t), max(abs(v) for v in t)
    return Fraction(101, 100) * (w + 2) * EPS * top + TINY


def slope_bound(tail) -> Fraction:
    """A bound on |tail_slope - slope| for the slope `classify_trajectory` reports, w >= 2.

    The slope is taken on u_r = t_r 2**-e with 2**(e - 1) <= max|t| < 2**e,
    exact but for an underflow of 2**-1075 each; then, with R = max t - min t,
    `math.fsum` correctly rounded:

      * the mean m = fsum(u) / w: two roundings, so m lies within
        2 eps (1 + eps) max|u| of [min u, max u], and
        |u_r - m| <= 2**-e R + 2.01 eps max|u| =: a for every r;
      * v_r = u_r - m rounded: off by eps |u_r - m|;
      * p_r = d_r v_r rounded: off by eps |d_r v_r| + 2**-1075;
      * N = fsum(p): off by eps |sum p|.

    The exact numerator is sum d_r (u_r - m) for any m, as sum d_r = 0.  So
    with A = sum |d_r| |u_r - m| <= D a, the numerator is off by
    (2 eps + eps**2) A + w 2**-1075 before fsum and (3 eps + 3 eps**2) A +
    2 w 2**-1075 after it, using |numerator| <= A.  The quotient N / S adds
    eps |N| / S, so the scaled slope is within (4 eps + 7 eps**2) D a / S +
    3 w 2**-1075 / S of the exact slope of u.  The underflow of u moves that
    exact slope by at most D 2**-1075 / S.  Scaling back by 2**e is exact,
    or adds 2**-1075 where the slope is subnormal; 2**e 2**-1075 is at most
    2**-1074 max|t|, far below eps**2 max|t|.  Hence

      |slope - exact| <= 5 eps (D / S) (R + 3 eps max|t|) + 2**-1074,

    the margin from 4 eps to 5 eps and from 2.01 eps to 3 eps covering
    every term of order eps**2 and every underflow term.  A constant tail
    has R = 0, and its slope is exactly 0.
    """
    t = _exact(tail)
    w = len(t)
    D = sum(abs(r - Fraction(w - 1, 2)) for r in range(w))
    S = Fraction(w * (w * w - 1), 12)
    spread, top = max(t) - min(t), max(abs(v) for v in t)
    return 5 * EPS * (D / S) * (spread + 3 * EPS * top) + TINY
