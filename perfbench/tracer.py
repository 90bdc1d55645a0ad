"""Out-of-program tracing: spans and counters around the package's layers.

`Tracer.install()` replaces public functions at the names other modules
call them through (for example `lacunary.cli.uniform_trajectories` and
`lacunary.convergence.transform_sequence`) and the `eval_at` method of each
family class with wrappers that record a span, and `uninstall()` puts the
originals back.  The program itself carries no tracing code.

A span's self time is its duration minus the durations of its direct
children, so the self times of one op add up to the duration of its root
span.  Warnings raised while an op runs are counted against the layer of
the innermost open span.
"""

from __future__ import annotations

import functools
import time
import warnings
from collections import Counter, defaultdict

LAYERS = ("cli", "config", "sequences", "orlicz", "optimize", "convergence", "experiments")

# Bytes per index and window length written by `uniform_trajectories`:
# cumulative sums and window deviations (float64 each), plus per-index
# terms (float64) and/or exception flags (bool) depending on the statistic.
# Each call also writes the transformed prefix once (float64 per index).
# These are computed from array sizes, not measured.
_BYTES_PER_WINDOW_INDEX = {
    ("strong", None): 8 + 8 + 8,
    ("shat_density", "modular"): 8 + 8 + 8 + 1,
    ("shat_density", "raw"): 8 + 8 + 1,
}


class OpTrace:
    """Times and counts recorded while one op ran."""

    def __init__(self) -> None:
        self.total_s: defaultdict[str, float] = defaultdict(float)  # span name -> inclusive time
        self.self_s: defaultdict[str, float] = defaultdict(float)  # span name -> self time
        self.counts: Counter[str] = Counter()


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []  # open spans: [name, layer, start, child time]
        self._patches: list[tuple[object, str, object]] = []
        self._transformed: dict[tuple[int, int], tuple[object, object, int]] = {}
        self._last_error: BaseException | None = None
        self.op = OpTrace()
        self.missing: list[str] = []  # boundaries install() could not wrap

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str, layer: str) -> None:
        self._stack.append([name, layer, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, _, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.op.total_s[name] += duration
        self.op.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][3] += duration

    def _error(self, layer: str, exc: BaseException) -> None:
        if exc is not self._last_error:  # count where it was raised, not every span it crosses
            self._last_error = exc
            self.op.counts[f"{layer}.errors"] += 1

    def _on_warning(self, message, category, filename, lineno, file=None, line=None) -> None:
        layer = self._stack[-1][1] if self._stack else "cli"
        self.op.counts[f"{layer}.warnings"] += 1

    def run_op(self, fn, *args):
        """Call fn(*args) as one op under a root `cli.main` span; returns (result, OpTrace)."""
        self.op = OpTrace()
        self._last_error = None
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = self._on_warning
            self._enter("cli.main", "cli")
            try:
                result = fn(*args)
            except BaseException as exc:
                self._error("cli", exc)
                raise
            finally:
                self._exit()
                self._transformed.clear()
        return result, self.op

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, layer: str, name, before=None):
        """Span wrapper; `name` is a string or a function of the call's args.

        `before(args, kwargs)` records counts and may return replacement args.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if isinstance(name, str) else name(args, kwargs)
            if before is not None:
                args = before(args, kwargs) or args
            tracer._enter(span, layer)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer._error(layer, exc)
                raise
            finally:
                tracer._exit()

        return wrapper

    def _patch(self, owner, attr: str, layer: str, name, before=None) -> None:
        original = (owner.__dict__ if isinstance(owner, type) else vars(owner)).get(attr)
        if original is None:  # renamed or removed in this version of the program
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, layer, name, before))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters ----------------------------------------------------------

    def _count_transform(self, args, kwargs):
        matrix, x, out_len = args[0], args[1], args[2]
        counts = self.op.counts
        counts["sequences.transform_calls"] += 1
        counts["sequences.transform_rows"] += out_len
        key = (id(matrix), id(x))
        seen = self._transformed.get(key)
        if seen is not None and seen[2] >= out_len:
            counts["sequences.transform_dup_calls"] += 1
        else:
            self._transformed[key] = (matrix, x, out_len)  # holds refs so ids stay unique

    def _count_uniform(self, args, kwargs):
        params, statistic = args[1], args[2]
        flag_mode = None
        if statistic != "strong":
            flag_mode = args[3] if len(args) > 3 else kwargs.get("flag_mode", "modular")
        windows = params.schedule.last_index * (params.m_max + 1)
        counts = self.op.counts
        counts["convergence.uniform_calls"] += 1
        counts["convergence.index_windows"] += windows
        counts["convergence.bytes_computed"] += windows * _BYTES_PER_WINDOW_INDEX[(statistic, flag_mode)]
        counts["convergence.bytes_computed"] += 8 * (params.schedule.last_index + params.m_max)

    def _count_eval_at(self, args, kwargs):
        self.op.counts["orlicz.eval_at_calls"] += 1
        self.op.counts["orlicz.eval_at_elems"] += len(args[1])

    def _counter(self, key: str):
        def before(args, kwargs):
            self.op.counts[key] += 1

        return before

    def _count_objective(self, args, kwargs):
        objective = args[0]

        def counted(u):
            self.op.counts["optimize.objective_evals"] += 1
            return objective(u)

        return (self._wrap(counted, "orlicz", "orlicz.objective"),) + tuple(args[1:])

    def install(self) -> None:
        """Wrap every layer boundary; call `uninstall()` to restore."""
        self.missing.clear()
        import lacunary.cli as cli
        import lacunary.config as config
        import lacunary.convergence as convergence
        import lacunary.experiments as experiments
        import lacunary.orlicz as orlicz

        self._patch(cli.ReportBundle, "write", "cli", "cli.write")

        self._patch(cli, "validate_config", "config", "config.validate", self._counter("config.validate_calls"))
        for attr in ("load_config", "load_preset"):
            self._patch(cli, attr, "config", "config.load")
        for attr in (
            "build_family", "build_matrix", "build_scalars", "build_schedule", "build_sequence",
            "build_space", "build_verdict_params", "deep_copy_config", "schedule_rule",
        ):
            self._patch(cli, attr, "config", "config.build")

        self._patch(
            convergence, "transform_sequence", "sequences",
            lambda a, kw: f"sequences.transform.{a[0].kind}", self._count_transform,
        )

        for module in (cli, experiments):
            self._patch(
                module, "uniform_trajectories", "convergence",
                lambda a, kw: f"convergence.uniform.{a[2]}", self._count_uniform,
            )
            self._patch(
                module, "classify_trajectory", "convergence", "convergence.verdict",
                self._counter("convergence.verdict_calls"),
            )
        self._patch(convergence, "lacunary_density", "convergence", "convergence.density")

        for cls in (
            orlicz.MusielakOrliczFamily, orlicz.ConstantFamily, orlicz.IndexScaledFamily,
            orlicz.IndexPowerFamily, orlicz.SpikeFamily,
        ):
            self._patch(cls, "eval_at", "orlicz", lambda a, kw: f"orlicz.eval_at.{a[0].label}", self._count_eval_at)
        for module in (cli, orlicz):
            self._patch(module, "modular", "orlicz", "orlicz.modular", self._counter("orlicz.modular_calls"))
        self._patch(cli, "luxemburg_norm", "orlicz", "orlicz.luxemburg")
        self._patch(cli, "orlicz_norm", "orlicz", "orlicz.amemiya")
        self._patch(cli, "complementary", "orlicz", "orlicz.complementary")
        for module in (cli, experiments):
            self._patch(module, "delta2_check", "orlicz", "orlicz.delta2")

        for attr in ("bisect_nonincreasing", "golden_section_max", "grid_then_golden_min"):
            self._patch(orlicz, attr, "optimize", f"optimize.{attr}", self._count_objective)

        self._patch(cli, "run_inclusion_matrix", "experiments", "experiments.inclusion")
        for attr in ("build_thm37", "build_thm38"):
            self._patch(cli, attr, "experiments", "experiments.build")
        for module in (cli, config):
            self._patch(module, "random_bounded_sequence", "experiments", "experiments.random_sequence")
        for attr in ("thm31_block_bounds", "thm33_block_bounds", "thm34_triangle_bounds"):
            self._patch(experiments, attr, "experiments", "experiments.block_bounds")
        self._patch(experiments, "liminf_growth_estimate", "experiments", "experiments.liminf")


def span_layer(span: str) -> str:
    return span.split(".", 1)[0]
