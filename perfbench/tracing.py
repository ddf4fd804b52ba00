"""Spans around the public functions of each eit3 layer, recorded from outside.

The tracer swaps wrapper functions into every loaded ``eit3`` module namespace
that holds one of the traced functions (``cli``, ``optics`` and ``darkstate``
import them by name, so patching only the defining module would miss those
calls).  A span is ``(name, start, end, parent, failed, units)``; spans stay in
memory and are written out or aggregated when the run ends.  ``units`` is the
work a call was asked to do, read from its arguments: sweep points or RK4
steps.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import sys
from time import perf_counter


def _sweep_points(args: dict) -> int:
    return int(args["points"])


def rk4_steps(t_end: float, dt_max: float) -> int:
    """Steps of evolve's fixed-step grid, derived from the inputs only, so
    the count stays defined if the propagator changes."""
    return max(1, math.ceil(t_end / dt_max))


def _evolve_steps(args: dict) -> int:
    return rk4_steps(args["t_end"], args["dt_max"])


# (module, function) -> units reader, or None; the layers the benchmark reports
TARGETS = {
    ("cli", "main"): None,
    ("cli", "load_config"): None,
    ("cli", "write_sweep_csv"): None,
    ("cli", "write_sweep_json"): None,
    ("optics", "sweep"): _sweep_points,
    ("model", "build_liouvillian"): None,
    ("steady", "steady_state"): None,
    ("steady", "evolve"): _evolve_steps,
    ("analytic", "analytic_steady_state"): None,
    ("darkstate", "estimate_mixing_angle"): None,
    ("darkstate", "verify_dark_state"): None,
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TARGETS)


class Tracer:
    """Records spans while installed; ``uninstall`` restores the originals."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, units_of):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if units_of else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if units_of is not None and not span[4]:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[5] = units_of(bound.arguments)

        return traced

    def install(self) -> None:
        if self._patched:
            return
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "eit3" or key.startswith("eit3."))]
        for (mod, fn_name), units_of in TARGETS.items():
            original = getattr(importlib.import_module(f"eit3.{mod}"), fn_name)
            wrapper = self._wrap(f"{mod}.{fn_name}", original, units_of)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def extend(self, spans: list[list]) -> None:
        """Add the spans another process dumped, keeping their parent links."""
        offset = len(self.spans)
        self.spans += [[name, start, end, parent + offset if parent >= 0 else -1,
                        failed, units]
                       for name, start, end, parent, failed, units in spans]


@contextlib.contextmanager
def installed(tracer: Tracer | None):
    """Trace the enclosed calls when a tracer is given."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def aggregate(spans: list[list]) -> dict:
    """Per span name: calls, errors, units, self time; plus top-level cover.

    Self time is a span's duration minus the time its direct children cover.
    Spans of one thread nest, so the children of a span never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {name: {"calls": 0, "errors": 0, "units": 0, "self_s": 0.0}
             for name in SPAN_NAMES}
    covered = 0.0
    for i, (name, start, end, parent, failed, units) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["errors"] += int(failed)
        entry["units"] += units
        entry["self_s"] += (end - start) - child_time[i]
        if parent < 0:
            covered += end - start
    return {"layers": stats, "covered_s": covered}

