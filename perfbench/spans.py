"""In-memory span tracer and the per-layer metrics derived from it.

:class:`Tracer` wraps the public functions of every loaded ``vilenkin.*``
module in each ``vilenkin.*`` namespace that binds them, so a call made
through any module (``cli`` -> ``summability`` -> ``transform``) records one
span linked to the span that was open when it started.  The library source
is not edited: wrappers go into the module namespaces at run time and
:meth:`Tracer.uninstall` puts the original functions back, so untraced
rounds run the unmodified code.

Spans live in a list until the run ends.  A span's self time is its
duration minus the durations of its child spans; calls are single-threaded,
so children never overlap and the self times of all spans under a root sum
to the root's duration.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from dataclasses import dataclass

# Span record layout: [name_id, parent, start, end, points, stages].
NAME, PARENT, START, END, POINTS, STAGES = range(6)

LAYERS = ("group", "transform", "summability", "analysis", "corpus", "cli", "harness")
KERNELS = (
    "summability.dirichlet",
    "summability.fejer_kernel",
    "summability.norlund_kernel",
    "summability.t_kernel",
    "summability.kernel_for",
)
TRANSFORMS = ("transform.forward", "transform.inverse")
HARNESS_SETUP = "harness.setup"
HARNESS_JOB = "harness.job"


def _mean_route(args, kwargs) -> str:
    # mean(f, w, n, method="direct")
    return "summability.mean." + str(kwargs.get("method", args[3] if len(args) > 3 else "direct"))


def _transform_size(args, kwargs) -> tuple[int, int]:
    base = args[0].base
    return base.size, base.depth


class Tracer:
    """Records parent-linked spans around calls into the ``vilenkin`` modules."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}
        self.active = False

    # ------------------------------------------------------------ recording

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def root(self, name: str, fn):
        """Run ``fn()`` as a root span with recording on; returns (result, start, end).

        Library calls made outside a root span, such as the harness's output
        checks, pass through the wrappers without a span.
        """
        self.active = True
        try:
            return self.call(name, fn, (), {})
        finally:
            self.active = False

    def call(self, name: str, fn, args, kwargs, points: int = 0, stages: int = 0):
        """Run ``fn(*args, **kwargs)`` inside a span; returns (result, start, end)."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [self._name_id(name), parent, 0.0, 0.0, points, stages]
        self.spans.append(record)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            record[START] = start
            record[END] = end
        return result, start, end

    def _wrap(self, name: str, fn, namer=None, sizer=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = namer(args, kwargs) if namer else name
            points, stages = sizer(args, kwargs) if sizer else (0, 0)
            return tracer.call(span, fn, args, kwargs, points, stages)[0]

        return traced

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        """Replace every public ``vilenkin`` function binding with a traced one."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "vilenkin" or key.startswith("vilenkin."))
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if not inspect.isfunction(value) or value.__name__.startswith("_"):
                    continue
                home = getattr(value, "__module__", "") or ""
                if not home.startswith("vilenkin."):
                    continue
                wrapper = self._wrappers.get(id(value))
                if wrapper is None:
                    span = home.split(".", 1)[1] + "." + value.__qualname__
                    namer = _mean_route if span == "summability.mean" else None
                    sizer = _transform_size if span in TRANSFORMS else None
                    wrapper = self._wrappers[id(value)] = self._wrap(span, value, namer, sizer)
                self._saved.append((mod, attr, value))
                setattr(mod, attr, wrapper)
        # The digit table is a cached property: the span is its first build.
        group = sys.modules["vilenkin.group"]
        original = group.VilenkinBase.__dict__["digit_table"]
        traced = functools.cached_property(self._wrap("group.digit_table", original.func))
        traced.__set_name__(group.VilenkinBase, "digit_table")
        self._saved.append((group.VilenkinBase, "digit_table", original))
        setattr(group.VilenkinBase, "digit_table", traced)

    def uninstall(self) -> None:
        """Put back every binding :meth:`install` replaced."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ output

    def dump(self, path) -> None:
        """Write the name table and every span as compact JSON."""
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "points", "stages"],
                       "names": self.names, "spans": self.spans}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


@dataclass
class _Stat:
    calls: float = 0.0
    self_s: float = 0.0


def layer_metrics(tracer: Tracer, setup_range: tuple[int, int],
                  round_ranges: list[tuple[int, int]]) -> dict[str, float]:
    """Per-layer figures for the traced set-up plus one traced round of jobs.

    Set-up spans count once; spans of the traced rounds are averaged over
    the rounds, which run the same job list.  ``trace.wall_s`` is the
    matching wall time, which the self times of all layers, the harness
    included, add up to.
    """
    spans, names = tracer.spans, tracer.names
    selfs = self_times(spans)
    weights = [0.0] * len(spans)
    lo, hi = setup_range
    for i in range(lo, hi):
        weights[i] = 1.0
    for lo, hi in round_ranges:
        for i in range(lo, hi):
            weights[i] = 1.0 / len(round_ranges)

    stats: dict[str, _Stat] = {}
    for i, s in enumerate(spans):
        stat = stats.setdefault(names[s[NAME]], _Stat())
        stat.calls += weights[i]
        stat.self_s += weights[i] * selfs[i]

    def calls(*keys):
        return float(sum(stats[k].calls for k in keys if k in stats))

    def self_s(*keys):
        return float(sum(stats[k].self_s for k in keys if k in stats))

    def layer(prefix):
        return float(sum(v.self_s for k, v in stats.items() if k.split(".", 1)[0] == prefix))

    wall = sum(weights[i] * (s[END] - s[START]) for i, s in enumerate(spans)
               if names[s[NAME]] in (HARNESS_SETUP, HARNESS_JOB))

    transform_ids = {tracer._name_ids[k] for k in TRANSFORMS if k in tracer._name_ids}
    transform_spans = [i for i, s in enumerate(spans) if s[NAME] in transform_ids and weights[i]]
    transform_self = sum(weights[i] * selfs[i] for i in transform_spans)
    points = sum(weights[i] * spans[i][POINTS] for i in transform_spans)
    # Each stage reads and writes every complex128 point once.
    computed_bytes = sum(weights[i] * 2 * 16 * spans[i][POINTS] * spans[i][STAGES]
                         for i in transform_spans)
    round_durations = [spans[i][END] - spans[i][START] for lo, hi in round_ranges
                       for i in range(lo, hi) if spans[i][NAME] in transform_ids]

    kernel_ids = {tracer._name_ids[k] for k in KERNELS if k in tracer._name_ids}
    inverse_id = tracer._name_ids.get("transform.inverse")
    kernel_time = under_kernel = 0.0
    for i, s in enumerate(spans):
        if not weights[i]:
            continue
        if s[NAME] in kernel_ids and not _has_ancestor(spans, s[PARENT], kernel_ids):
            kernel_time += weights[i] * (s[END] - s[START])
        elif s[NAME] == inverse_id and _has_ancestor(spans, s[PARENT], kernel_ids):
            under_kernel += weights[i] * (s[END] - s[START])

    out = {
        "group.decode_index.calls": calls("group.decode_index"),
        "group.shift_table.calls": calls("group.shift_table"),
        "group.shift_table.self_s": self_s("group.shift_table"),
        "group.digit_table.build_s": self_s("group.digit_table"),
        "transform.forward.calls": calls("transform.forward"),
        "transform.forward.self_s": self_s("transform.forward"),
        "transform.inverse.calls": calls("transform.inverse"),
        "transform.inverse.self_s": self_s("transform.inverse"),
        "transform.call_p50_us": 1e6 * statistics.median(round_durations) if round_durations else 0.0,
        "transform.points_per_s": points / transform_self if transform_self else 0.0,
        "transform.bytes_computed": computed_bytes,
        "transform.character_values.calls": calls("transform.character_values"),
        "transform.character_values.self_s": self_s("transform.character_values"),
        "transform.forward_naive.self_s": self_s("transform.forward_naive"),
        "transform.convolve.self_s": self_s("transform.convolve"),
        "transform.csv_write.self_s": self_s("transform.write_complex_csv"),
        "transform.csv_read.self_s": self_s("transform.read_complex_csv"),
        "summability.kernel.calls": calls(*KERNELS),
        "summability.kernel.self_s": self_s(*KERNELS),
        "summability.kernel.transform_share": under_kernel / kernel_time if kernel_time else 0.0,
        "summability.mean.kernel.calls": calls("summability.mean.kernel"),
        "summability.mean.kernel.self_s": self_s("summability.mean.kernel"),
        "summability.mean.direct.self_s": self_s("summability.mean.direct"),
        "summability.mean.abel.self_s": self_s("summability.mean.abel"),
        "summability.identity.self_s": self_s(
            "summability.verify_dirichlet_complement", "summability.verify_block_kernel_split"
        ),
        "analysis.convergence_sweep.self_s": self_s("analysis.convergence_sweep"),
        "analysis.lp_norm.calls": calls("analysis.lp_norm"),
        "analysis.lp_norm.self_s": self_s("analysis.lp_norm"),
        "analysis.maximal.self_s": self_s(
            "analysis.full_maximal_fejer", "analysis.restricted_maximal"
        ),
        "analysis.weak_lp.self_s": self_s("analysis.weak_lp", "analysis.weak11_ratio"),
        "corpus.self_s": layer("corpus"),
        "cli.run_verify.self_s": self_s("cli.run_verify"),
        # records_to_csv lives in analysis; only the converge command calls it.
        "cli.records_to_csv.self_s": self_s("analysis.records_to_csv"),
        "trace.wall_s": wall,
        "trace.harness_share": layer("harness") / wall if wall else 0.0,
    }
    for prefix in LAYERS:
        out[f"layer.{prefix}.self_s"] = layer(prefix)
    return out


def _has_ancestor(spans: list[list], idx: int, name_ids: set[int]) -> bool:
    while idx >= 0:
        if spans[idx][NAME] in name_ids:
            return True
        idx = spans[idx][PARENT]
    return False
