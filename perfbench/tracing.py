"""In-memory span tracing of nilorbits' public functions, installed from outside.

The tracer wraps each listed function and rebinds the wrapper under every
``nilorbits.*`` module namespace that holds the original, so calls made from
inside the package are seen as well as calls from the benchmark.
``Matrix.__matmul__`` is wrapped on the class.  Each call records a span
(name, start, end, parent) in a list; nothing is written until the caller
asks for the spans at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# Traced functions, named <module>.<function>.
TRACED = (
    "linalg.group_member", "linalg.lie_algebra_basis", "linalg.nullspace",
    "linalg.lie_member", "linalg.is_two_nilpotent", "linalg.form_matrix",
    "linalg.rank", "linalg.parabolic_dim", "linalg.centralizer_dim_in",
    "linalg.orbit_dimension",
    "correspondence.identify", "correspondence.identify_parabolic",
    "correspondence.rank_signature", "correspondence.pattern_to_matrix",
    "patterns.enumerate_patterns", "patterns.pattern_to_json", "patterns.glue",
    "quiver.symmetric_endo_dim", "quiver.realize_flag",
    "quiver.pattern_to_summands", "quiver.ar_sequences",
    "harness.random_group_element_pair", "harness.exp_nilpotent",
    "harness.brute_force_count",
    "cli.main",
)
MATMUL = "linalg.matmul"


def _matmul_work(args) -> int:
    a, b = args
    return a.rows * a.cols * b.cols


def _rank_work(args) -> int:
    m = args[0]
    return m.rows * m.cols


# Extra counters derived from the arguments of a call.
ARG_COUNTERS = {MATMUL: ("linalg.matmul.mul_adds", _matmul_work),
                "linalg.rank": ("linalg.rank.cells", _rank_work)}


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` bracket a pass.

    A span is the tuple (name, start, end, parent index or -1).  Its slot
    in ``spans`` is taken when the call starts, so spans are in start order
    and a parent always precedes its children.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _leave(self, idx: int, name: str, start: float, parent: int):
        self._stack.pop()
        self.spans[idx] = (name, start, time.perf_counter(), parent)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a block of calls."""
        idx, parent = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._leave(idx, name, start, parent)

    def count(self, name: str, amount: int):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, name: str, fn):
        arg_counter = ARG_COUNTERS.get(name)

        # span() inlined: a generator context per call would add about a
        # microsecond to each of enumerate's 10^5 small calls
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if arg_counter:
                self.count(arg_counter[0], arg_counter[1](args))
            idx, parent = self._enter()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(idx, name, start, parent)

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every traced function wherever a nilorbits module binds it.

        A listed function the package no longer has is skipped; it then
        reports zero calls."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "nilorbits" or key.startswith("nilorbits."))]
        for name in TRACED:
            module_name, func_name = name.split(".")
            original = getattr(sys.modules[f"nilorbits.{module_name}"], func_name, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, func_name, None) is original:
                    self._saved.append((module, func_name, original))
                    setattr(module, func_name, wrapper)
        matrix = sys.modules["nilorbits.linalg"].Matrix
        original = matrix.__matmul__
        self._saved.append((matrix, "__matmul__", original))
        matrix.__matmul__ = self._wrap(MATMUL, original)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def self_times(spans) -> dict[str, tuple[int, float]]:
    """name -> (calls, self seconds); self time is the span's duration minus
    the durations of its direct children (single-threaded, so children are
    disjoint and nested in their parent)."""
    child = [0.0] * len(spans)
    for idx, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for idx, (name, start, end, _) in enumerate(spans):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - child[idx])
    return out


def root_time(spans) -> float:
    """Seconds covered by spans that have no parent."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)
