"""Per-layer spans recorded from outside the program.

A traced run replaces each layer's public function with a wrapper, in every
loaded `tecc` module that holds a reference to it, because `from .x import f`
copies the binding into the importing module.  Wrappers nest: a span that
calls another wrapped function charges the child's duration to the child, so
each layer reports self time.  Spans are aggregated in memory as they close
(self seconds and call counts per name); the untraced run wraps nothing.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import tecc  # noqa: F401  (loads every module named in TARGETS)

# metric prefix -> (module, function).  The metric for the self time is
# "<prefix>_s" and the call count, where reported, is "<prefix>_calls".
TARGETS = {
    "field.make_ctx": ("tecc.field", "make_ctx"),
    "functions.instantiate": ("tecc.functions", "instantiate"),
    "functions.is_apn": ("tecc.functions", "is_apn"),
    "spectrum.full_spectrum": ("tecc.spectrum", "full_spectrum"),
    "spectrum.single_table_spectrum": ("tecc.spectrum", "single_table_spectrum"),
    "spectrum.spectrum_for_bc": ("tecc.spectrum", "spectrum_for_bc"),
    "spectrum.transform_single": ("tecc.spectrum", "transform_single"),
    "code.build_parity_check": ("tecc.code", "build_parity_check"),
    "code.rank_and_dimension": ("tecc.code", "rank_and_dimension"),
    "code.dual_weights": ("tecc.code", "dual_weights_from_spectrum"),
    "code.systematic_generator": ("tecc.code", "systematic_generator"),
    "code.weight3_syndromes_distinct": ("tecc.code", "weight3_syndromes_distinct"),
    "code.min_distance_bruteforce": ("tecc.code", "min_distance_bruteforce"),
    "gf2.row_reduce": ("tecc.gf2", "row_reduce"),
    "macwilliams.transform": ("tecc.macwilliams", "macwilliams_transform"),
    "kernel.gold_kernel_scan": ("tecc.kernel", "gold_kernel_scan"),
    "kernel.kasami_kernel_scan": ("tecc.kernel", "kasami_kernel_scan"),
    "decoder.build_pair_index": ("tecc.decoder", "build_pair_index"),
    "decoder.decode": ("tecc.decoder", "decode"),
}


class Tracer:
    """Aggregated spans and counters for one traced unit of work."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.top_s = 0.0  # time inside outermost spans
        self.hooks: dict[str, list] = defaultdict(list)
        self._child_s: list[float] = []
        for name in ("spectrum.full_spectrum", "spectrum.spectrum_for_bc"):
            self.hooks[name].append(self._count_rows)

    def _count_rows(self, name: str, args: tuple, result) -> None:
        """Transform rows a call computes, (2^n - 1)^2 per full scan and one
        per (b, c) row call, with n * 2^n butterfly ops per row.  Computed
        from the call's arguments, not counted inside the kernel."""
        n = args[0].n
        rows = ((1 << n) - 1) ** 2 if name == "spectrum.full_spectrum" else 1
        self.counts["spectrum.bc_rows"] += rows
        self.counts["spectrum.fwht_ops_computed"] += rows * n * (1 << n)

    def wrap(self, name: str, fn):
        hooks = self.hooks[name]

        def span(*args, **kwargs):
            self._child_s.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.self_s[name] += dt - self._child_s.pop()
                self.calls[name] += 1
                if self._child_s:
                    self._child_s[-1] += dt
                else:
                    self.top_s += dt
            for hook in hooks:
                hook(name, args, result)
            return result

        return span

    @contextmanager
    def installed(self):
        """Swap every reference to a target function for its span wrapper."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "tecc" or key.startswith("tecc."))]
        patched = []
        for name, (module, attr) in TARGETS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in patched:
                setattr(mod, attr, original)
