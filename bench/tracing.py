"""In-process tracing for the benchmark: every public function of the sdlab
modules is wrapped from here, without touching the package source.

A name imported with ``from ... import`` is patched in every module that holds
it, e.g. ``intervals.divisor_le_threshold`` as well as
``arith.divisor_le_threshold``.  Spans (name, start, end, parent, size) and
counts stay in memory; ``write`` saves them once at the end.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from collections import defaultdict

import numpy as np

MODULES = ("arith", "specfun", "powerseries", "sdexpand", "intervals", "contourlab", "cli")

# Called hundreds of thousands of times per pass: counted, never spanned.
COUNT_ONLY = {"arith.divisor_le_threshold"}

# Work size recorded with a span: f(args, kwargs, result) -> number.
SIZES = {
    "specfun.zeta_many": lambda a, k, r: np.size(a[0]),
    "specfun.dirichlet_l_many": lambda a, k, r: np.size(a[0]),
    "contourlab.zl_product_many": lambda a, k, r: np.size(a[0]),
    "arith.dirichlet_inverse": lambda a, k, r: a[0].limit,
    "intervals.ddt_mean": lambda a, k, r: r.count,
    "intervals.weighted_fn_mean": lambda a, k, r: r.count,
    "contourlab.classify_boxes": lambda a, k, r: int(r.classes.size),
    "cli.render_json": lambda a, k, r: len(r.encode()),
}

# Span names get the indicator appended, so the two window paths stay apart.
SUFFIX = {"intervals.weighted_fn_mean": lambda args, kwargs: args[0]}

WINDOW_REPORTS = (
    "intervals.ddt_mean",
    "intervals.weighted_fn_mean[two_squares]",
    "intervals.weighted_fn_mean[squarefull]",
)

SCALAR = ("specfun.zeta_complex", "specfun.hurwitz_zeta", "specfun.dirichlet_l")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, size]
        self.counts: dict[str, int] = defaultdict(int)
        self.alloc_peaks: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, size=0) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][4] = size
        self._stack.pop()

    def _span_wrapper(self, name, fn):
        size_of = SIZES.get(name)
        suffix = SUFFIX.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer.close(idx)
                        return
                    except BaseException:
                        tracer.close(idx)
                        raise
                    tracer.close(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "powerseries.taylor_at":
                args = (tracer._counting(args[0], "powerseries.taylor_evals"),) + args[1:]
            span_name = f"{name}[{suffix(args, kwargs)}]" if suffix else name
            idx = tracer.open(span_name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                size = size_of(args, kwargs, result) if size_of and result is not None else 0
                tracer.close(idx, size)

        return wrapper

    def _counting(self, fn, counter):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, sdlab_modules: dict) -> None:
        """Wrap every public function (no leading underscore) defined in the
        modules of the given {name: module} map, wherever it is looked up."""
        for mod_name, mod in sdlab_modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not (inspect.isfunction(fn) or hasattr(fn, "cache_info")):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                name = f"{mod_name}.{attr}"
                if name in COUNT_ONLY:
                    new = self._counting(fn, name)
                else:
                    new = self._span_wrapper(name, fn)
                for holder in sdlab_modules.values():
                    for gname, gval in list(vars(holder).items()):
                        if gval is fn:
                            self._patch(holder, gname, new)
        grid_cls = sdlab_modules["contourlab"].BoxGrid
        self._patch(
            grid_cls,
            "in_marked_region",
            self._counting(grid_cls.in_marked_region, "contourlab.marked_region_tests"),
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def _ancestors(self) -> list[frozenset]:
        """Names of every span's ancestors."""
        out: list[frozenset] = []
        for _, _, _, parent, _ in self.spans:
            out.append(out[parent] | {self.spans[parent][0]} if parent >= 0 else frozenset())
        return out

    def _outer(self, anc, names, under=(), outside=()):
        """(total time, calls, total size) of the spans named in `names` that
        have no ancestor of those names or of `outside`, and, when `under` is
        given, have an ancestor named in `under`."""
        names, under, excluded = set(names), set(under), set(names) | set(outside)
        total, calls, size = 0.0, 0, 0
        for (name, start, end, _, n), a in zip(self.spans, anc):
            if name in names and not a & excluded and (not under or a & under):
                total += end - start
                calls += 1
                size += n
        return total, calls, size

    def metrics(self, overhead_s: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        o = functools.partial(self._outer, self._ancestors())
        m: dict[str, tuple[float, str]] = {}

        def rate(count, secs):
            return count / secs if secs > 0 else 0.0

        def per_call(t, calls):
            return t / calls if calls else 0.0

        # intervals
        t, c, n = o(["intervals.ddt_mean"])
        m["intervals.ddt_mean_s"] = (per_call(t, c), "s")
        m["intervals.ddt_n_per_s"] = (rate(n, t), "1/s")
        for key, label in (("two_squares", "kept"), ("squarefull", "members")):
            t, c, n = o([f"intervals.weighted_fn_mean[{key}]"])
            m[f"intervals.{key}_mean_s"] = (per_call(t, c), "s")
            m[f"intervals.{key}_{label}_per_s"] = (rate(n, t), "1/s")
        m["intervals.masks_s"] = (o(["intervals.two_squares_count_and_masks"])[0], "s")
        m["intervals.enumerate_squarefull_s"] = (o(["intervals.enumerate_squarefull"])[0], "s")
        m["intervals.law_s"] = (
            o(["intervals.arcsine_law", "intervals.squarefull_divisor_law",
               "specfun.reg_inc_beta"], under=WINDOW_REPORTS)[0],
            "s",
        )
        m["intervals.peak_alloc_mb"] = (max(self.alloc_peaks.values(), default=0.0), "MiB")

        # arith
        m["arith.threshold_calls"] = (self.counts["arith.divisor_le_threshold"], "count")
        for fn in ("tau_chi_coeffs", "dirichlet_inverse", "dirichlet_convolve",
                   "truncated_inverse_phi"):
            m[f"arith.{fn}_s"] = (o([f"arith.{fn}"])[0], "s")
        t, _, n = o(["arith.dirichlet_inverse"])
        m["arith.inverse_coeffs_per_s"] = (rate(n, t), "1/s")

        # specfun
        t, c, n = o(["specfun.zeta_many"])
        m["specfun.zeta_many_calls"] = (c, "count")
        m["specfun.zeta_many_points"] = (n, "count")
        m["specfun.zeta_many_s"] = (t, "s")
        m["specfun.zeta_points_per_s"] = (rate(n, t), "1/s")
        t, _, n = o(["specfun.dirichlet_l_many"], outside=["specfun.dirichlet_l"])
        m["specfun.dirichlet_l_many_points"] = (n, "count")
        m["specfun.dirichlet_l_many_s"] = (t, "s")
        t, c, _ = o(SCALAR)
        m["specfun.scalar_calls"] = (c, "count")
        m["specfun.scalar_s"] = (t, "s")
        t, c, _ = o(["specfun.reg_inc_beta"])
        m["specfun.reg_inc_beta_calls"] = (c, "count")
        m["specfun.reg_inc_beta_s"] = (t, "s")

        # powerseries
        m["powerseries.taylor_at_s"] = (o(["powerseries.taylor_at"])[0], "s")
        m["powerseries.taylor_evals"] = (self.counts["powerseries.taylor_evals"], "count")

        # sdexpand
        for fn, key in (("stieltjes_constants", "stieltjes"),
                        ("expansion_coeffs", "expansion_coeffs"),
                        ("main_term", "main_term"),
                        ("lambda0_closed_form", "lambda0_closed_form")):
            m[f"sdexpand.{key}_s"] = (o([f"sdexpand.{fn}"])[0], "s")

        # contourlab
        m["contourlab.frak_m_s"] = (o(["contourlab.frak_m"])[0], "s")
        m["contourlab.frak_m_points"] = (
            o(["specfun.zeta_many"], under=["contourlab.frak_m"])[2], "count")
        m["contourlab.build_grid_s"] = (o(["contourlab.build_grid"])[0], "s")
        t, _, n = o(["contourlab.classify_boxes"])
        m["contourlab.classify_boxes_s"] = (t, "s")
        m["contourlab.boxes"] = (n, "count")
        m["contourlab.ring_points"] = (
            o(["contourlab.zl_product_many"], under=["contourlab.classify_boxes"])[2], "count")
        m["contourlab.check_prop31_s"] = (o(["contourlab.check_prop31"])[0], "s")
        m["contourlab.contour_clear_s"] = (o(["contourlab.contour_clear_of_marked"])[0], "s")
        m["contourlab.marked_region_tests"] = (
            self.counts["contourlab.marked_region_tests"], "count")
        m["contourlab.bombieri_check_s"] = (o(["contourlab.bombieri_check"])[0], "s")
        m["contourlab.bombieri_points"] = (
            o(["specfun.zeta_many"], under=["contourlab.bombieri_check"])[2], "count")

        # cli
        t, _, n = o(["cli.render_json"])
        m["cli.render_s"] = (t, "s")
        m["cli.artifact_bytes"] = (n, "bytes")

        # self time per layer
        layer_self: dict[str, float] = defaultdict(float)
        for name, secs in self.self_times().items():
            layer_self[name.split(".")[0]] += secs
        for layer in MODULES:
            m[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")

        m["trace.overhead_s"] = (overhead_s, "s")
        for key, (value, _) in m.items():
            if not math.isfinite(value):
                raise ValueError(f"metric {key} is not finite")
        return m

    def write(self, path: str, extra: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
            "span_fields": ["name_index", "start_s", "end_s", "parent", "size"],
            "counts": dict(self.counts),
            "self_s": self.self_times(),
            "alloc_peaks_mib": self.alloc_peaks,
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
