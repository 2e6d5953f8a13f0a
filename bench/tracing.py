"""Per-layer tracing of stateseq from outside the program.

The tracer rebinds names in the loaded ``stateseq`` modules.  Every module
global bound to a traced function, and each traced method of ``_Core``, is
replaced by a wrapper that opens a span or bumps a counter; ``uninstall``
puts the originals back.  A span's self time is its duration minus the
durations of the spans opened inside it.  A traced name that a later version
of the program no longer has is reported as an absent layer instead of
failing the run.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# Spans: (layer, module, attribute).  A dotted attribute is a method.
SPANS = (
    ("io.read", "io", "read_labels"),
    ("io.write", "io", "write_labels"),
    ("io.write", "io", "write_sweep_csv"),
    ("simulate.noise", "simulate", "generate_noisy_labels"),
    ("simulate.sweep", "simulate", "run_sweep"),
    ("projection.project", "projection", "project_labels"),
    ("projection.split", "projection", "split_long_events"),
    ("projection.core_build", "projection", "_Core.__init__"),
    ("projection.solve", "projection", "_Core.solve_primary"),
    ("projection.reassemble", "projection", "_reassemble"),
    ("measures.gts", "measures", "gts_distance"),
    ("measures.lts", "measures", "lts_measure"),
    ("measures.accuracy", "measures", "accuracy"),
    ("sequence.segments", "sequence", "segments"),
)

# Counters: (counter, module, attribute, span the call must be inside).
COUNTERS = (
    ("projection.column", "projection", "_Core.column", "projection.solve"),
    ("projection.weight_single", "projection", "_Core._weight_single", "projection.solve"),
    ("measures.standard_distance", "sequence", "standard_distance", "measures.gts"),
)

CLI_SPAN = "cli"


def _count_noisy(raw: "Raw", labels) -> None:
    raw.counts["simulate.noisy_jumps"] += len(labels.jumps)


def _count_subproblems(raw: "Raw", subs) -> None:
    sizes = [sub.sequence.n_jumps for sub in subs]
    raw.counts["projection.subproblems"] += len(sizes)
    raw.counts["projection.subproblem_jumps_total"] += sum(sizes)
    raw.maxima["projection.subproblem_jumps_max"] = max(
        [raw.maxima["projection.subproblem_jumps_max"], *sizes]
    )


# Counts read off a span's return value.
RESULT_HOOKS = {
    "simulate.noise": _count_noisy,
    "projection.split": _count_subproblems,
}


class Raw:
    """Span self times, call counts, counters and maxima of one phase."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.maxima: defaultdict[str, int] = defaultdict(int)


def median_raw(raws: list[Raw]) -> Raw:
    """Key-wise median of several phases (one traced operation each)."""
    out = Raw()
    for field in ("self_s", "calls", "counts", "maxima"):
        # Counts stay whole numbers: take the lower median.
        median = statistics.median if field == "self_s" else statistics.median_low
        keys = set().union(*(getattr(r, field) for r in raws))
        for key in keys:
            getattr(out, field)[key] = median([getattr(r, field)[key] for r in raws])
    return out


def add_raw(a: Raw, b: Raw) -> Raw:
    out = Raw()
    for field in ("self_s", "calls", "counts"):
        for src in (a, b):
            for key, value in getattr(src, field).items():
                getattr(out, field)[key] += value
    for src in (a, b):
        for key, value in src.maxima.items():
            out.maxima[key] = max(out.maxima[key], value)
    return out


class Tracer:
    """Installs span and counter wrappers into a loaded stateseq program."""

    def __init__(self, prog) -> None:
        self.prog = prog
        self.raw = Raw()
        self.absent: set[str] = set()
        self._stack: list[list[float]] = []
        self._depth: defaultdict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _span(self, layer: str, fn):
        hook = RESULT_HOOKS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            self._depth[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self._depth[layer] -= 1
                self._stack.pop()
                self.raw.self_s[layer] += dur - frame[0]
                self.raw.calls[layer] += 1
                if self._stack:
                    self._stack[-1][0] += dur
            if hook is not None and layer not in self.absent:
                try:
                    hook(self.raw, result)
                except (AttributeError, TypeError):
                    self.absent.add(layer)
            return result

        return wrapper

    def _counter(self, name: str, inside: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._depth[inside]:
                self.raw.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def call(self, layer: str, fn, *args):
        """Run ``fn(*args)`` inside a span recorded under ``layer``."""
        return self._span(layer, fn)(*args)

    def take(self) -> Raw:
        """Return what was recorded since the last call and start afresh."""
        raw, self.raw = self.raw, Raw()
        return raw

    # -- rebinding ---------------------------------------------------------
    def install(self) -> None:
        for layer, module, attr in SPANS:
            self._rebind(layer, module, attr, lambda fn, layer=layer: self._span(layer, fn))
        for name, module, attr, inside in COUNTERS:
            self._rebind(
                name, module, attr, lambda fn, name=name, inside=inside: self._counter(name, inside, fn)
            )

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _rebind(self, layer: str, module: str, attr: str, make) -> None:
        mod = getattr(self.prog, module, None)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(mod, cls_name, None)
            original = vars(cls).get(method) if isinstance(cls, type) else None
            if not callable(original):
                self.absent.add(layer)
                return
            self._restore.append((cls, method, original))
            setattr(cls, method, make(original))
            return
        original = getattr(mod, attr, None)
        if not callable(original):
            self.absent.add(layer)
            return
        wrapper = make(original)
        # Rebind the name in every stateseq module that imported it.
        for mod_name, loaded in list(sys.modules.items()):
            if mod_name != "stateseq" and not mod_name.startswith("stateseq."):
                continue
            for name, value in list(vars(loaded).items()):
                if value is original:
                    self._restore.append((loaded, name, original))
                    setattr(loaded, name, wrapper)


# Per-layer metric -> (unit, better, layers or counters it is computed from).
LAYER_METRICS = {
    "cli.self_s": ("s", "lower", (CLI_SPAN,)),
    "io.read_s": ("s", "lower", ("io.read",)),
    "io.write_s": ("s", "lower", ("io.write",)),
    "simulate.noise_s": ("s", "lower", ("simulate.noise",)),
    "simulate.noisy_jumps": ("count", "lower", ("simulate.noise",)),
    "simulate.sweep_self_s": ("s", "lower", ("simulate.sweep",)),
    "projection.split_s": ("s", "lower", ("projection.split",)),
    "projection.core_build_s": ("s", "lower", ("projection.core_build",)),
    "projection.solve_s": ("s", "lower", ("projection.solve",)),
    "projection.reassemble_s": ("s", "lower", ("projection.reassemble",)),
    "projection.other_s": ("s", "lower", ("projection.project",)),
    "projection.subproblems": ("count", "lower", ("projection.split",)),
    "projection.subproblem_jumps_max": ("count", "lower", ("projection.split",)),
    "projection.subproblem_jumps_total": ("count", "lower", ("projection.split",)),
    "projection.fallback_columns": ("count", "lower", ("projection.solve", "projection.column")),
    "projection.fast_columns": ("count", "higher", ("projection.solve", "projection.weight_single")),
    "projection.fast_share": (
        "ratio",
        "higher",
        ("projection.solve", "projection.column", "projection.weight_single"),
    ),
    "measures.gts_s": ("s", "lower", ("measures.gts",)),
    "measures.gts_shifts": ("count", "lower", ("measures.gts", "measures.standard_distance")),
    "measures.lts_s": ("s", "lower", ("measures.lts",)),
    "measures.accuracy_s": ("s", "lower", ("measures.accuracy",)),
    "sequence.segments_s": ("s", "lower", ("sequence.segments",)),
    "sequence.segments_calls": ("count", "lower", ("sequence.segments",)),
    "trace.overhead_s": ("s", "lower", ()),
    "trace.absent_layers": ("count", "lower", ()),
}


def layer_metrics(raw: Raw, absent: set[str], overhead_s: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values from combined raw records.

    A metric whose source layer is absent reads 0 and is named in the
    returned list.
    """
    s, calls, counts = raw.self_s, raw.calls, raw.counts
    fallback = counts["projection.column"] - calls["projection.solve"]
    fast = counts["projection.weight_single"]
    values = {
        "cli.self_s": s[CLI_SPAN],
        "io.read_s": s["io.read"],
        "io.write_s": s["io.write"],
        "simulate.noise_s": s["simulate.noise"],
        "simulate.noisy_jumps": counts["simulate.noisy_jumps"],
        "simulate.sweep_self_s": s["simulate.sweep"],
        "projection.split_s": s["projection.split"],
        "projection.core_build_s": s["projection.core_build"],
        "projection.solve_s": s["projection.solve"],
        "projection.reassemble_s": s["projection.reassemble"],
        "projection.other_s": s["projection.project"],
        "projection.subproblems": counts["projection.subproblems"],
        "projection.subproblem_jumps_max": raw.maxima["projection.subproblem_jumps_max"],
        "projection.subproblem_jumps_total": counts["projection.subproblem_jumps_total"],
        "projection.fallback_columns": fallback,
        "projection.fast_columns": fast,
        # 0 when no column was solved at all.
        "projection.fast_share": fast / (fast + fallback) if fast + fallback else 0.0,
        "measures.gts_s": s["measures.gts"],
        "measures.gts_shifts": counts["measures.standard_distance"],
        "measures.lts_s": s["measures.lts"],
        "measures.accuracy_s": s["measures.accuracy"],
        "sequence.segments_s": s["sequence.segments"],
        "sequence.segments_calls": calls["sequence.segments"],
        "trace.overhead_s": overhead_s,
    }
    missing = sorted(
        name for name, (_, _, sources) in LAYER_METRICS.items() if absent.intersection(sources)
    )
    for name in missing:
        values[name] = 0.0
    values["trace.absent_layers"] = len(absent)
    return values, missing
