"""Exception types shared across the package."""


class LacunaryError(Exception):
    """Base class for all package errors."""


class SupportExceedsHorizon(LacunaryError):
    """A matrix row needs sequence values beyond the stored prefix."""


class NonFiniteTransform(LacunaryError):
    """A matrix transform row came out inf or NaN: its sum overflowed float64."""


class PrefixExceedsBound(LacunaryError):
    """A prefix value exceeds the bound |x_k| <= x_bound a generator matrix certifies against."""


class TailBoundUnsatisfiable(LacunaryError):
    """The certified truncation-error bound cannot be pushed below tol within the horizon."""


class NotStrictlyIncreasing(LacunaryError):
    """Cut points of a block schedule must start at 0 and strictly increase."""


class EmptySchedule(LacunaryError):
    """A block schedule needs at least one block."""


class ScheduleOverflow(LacunaryError):
    """A cut point is past the largest index an array can have (or overflows float64)."""


class NegativeArgument(LacunaryError):
    """Orlicz functions are defined on [0, inf) only."""


class ScaledPrefixOverflow(LacunaryError, ValueError):
    """A norm search scaled the prefix past float64, where Sequence would refuse the values."""


class BracketTooSmall(LacunaryError):
    """A 1-D search hit its bracket edge without the objective turning over."""


class NoInteriorMinimum(LacunaryError):
    """The objective kept decreasing after the maximum number of bracket expansions."""


class EmptyAdmissibleSet(LacunaryError):
    """No (k, u) sample passed the small-argument filter of the doubling check."""


class NonFiniteStatistic(LacunaryError):
    """A block statistic came out NaN; NaN is never reported as a result."""


class HypothesisUnsatisfiable(LacunaryError):
    """A counterexample construction could not meet its defining inequality."""


class ConfigError(LacunaryError):
    """A run configuration failed schema validation."""
