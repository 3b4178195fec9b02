"""Stack-nested spans and counters installed on sparsedom from outside.

The tracer never edits the program.  It rebinds names at run time:

* every plain function named in a sparsedom module's ``__all__``, at every
  sparsedom module that binds that function object;
* ``RestrictedTransform.__init__`` (with a tracemalloc peak),
  ``RestrictedTransform.apply_box`` (with the summed broadcast size of its
  results) and ``CellSet.count_in``;
* the ``fn`` of every kernel that ``make_kernel`` returns, replaced through
  ``dataclasses.replace`` so that each kernel value is counted.

A span's layer is its defining module (``sparsedom.verify`` gives
``verify``).  Self time is a span's duration minus the time of its child
spans.  A total is counted only for the outermost active span of a name, so
recursion is not counted twice.  ``covered_s`` sums the outermost spans
other than ``cli.main``: that span holds a whole CLI op, so an op's time
outside ``covered_s`` is work that no other span covers.  A name the
program no longer has is simply not installed; callers report metrics
built on it as absent.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "sparsedom"
KERNEL_SPAN = "operators.kernel"
# spans that hold a whole op and so do not count as covering it
TRANSPARENT = frozenset({"cli.main"})
# (module, class, method, options)
_METHODS = (
    ("operators", "RestrictedTransform", "__init__", {"track_alloc": True}),
    ("operators", "RestrictedTransform", "apply_box", {"count_size": True}),
    ("grid", "CellSet", "count_in", {}),
)


def _package_modules() -> list:
    return [sys.modules[name] for name in sorted(sys.modules)
            if (name == PACKAGE or name.startswith(PACKAGE + "."))
            and sys.modules[name] is not None]


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Installs spans on the imported sparsedom modules and aggregates them
    per operation.  Use ``install`` / ``uninstall`` (or ``with``) around the
    traced work and ``take`` after each operation."""

    def __init__(self) -> None:
        self.installed: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        self._opaque = 0            # open spans not in TRANSPARENT
        self._active: Counter = Counter()
        self.reset()

    # -- aggregates -----------------------------------------------------

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.sizes: Counter = Counter()
        self.alloc_peak_bytes = 0
        self.covered_s = 0.0

    def take(self) -> dict:
        """Aggregates since the last ``take`` (or ``reset``), then reset."""
        snap = {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "sizes": dict(self.sizes),
            "alloc_peak_bytes": self.alloc_peak_bytes,
            "covered_s": self.covered_s,
        }
        self.reset()
        return snap

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.installed = set()
        modules = _package_modules()
        wrappers: dict[int, tuple[object, object]] = {}
        for mod in modules:
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if (not inspect.isfunction(obj) or id(obj) in wrappers
                        or not obj.__module__.startswith(PACKAGE)):
                    continue
                span = f"{_layer(obj.__module__)}.{obj.__name__}"
                post = self._count_kernel if span == "operators.make_kernel" else None
                wrappers[id(obj)] = (obj, self._wrap(span, obj, post=post))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1])
                    self.installed.add(
                        f"{_layer(val.__module__)}.{val.__name__}")
        for mod_name, cls_name, meth, opts in _METHODS:
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            cls = getattr(mod, cls_name, None)
            orig = vars(cls).get(meth) if isinstance(cls, type) else None
            if not inspect.isfunction(orig):
                continue
            span = f"{mod_name}.{cls_name}.{meth}"
            self._patch(cls, meth, self._wrap(span, orig, layer=mod_name, **opts))
            self.installed.add(span)
        if "operators.make_kernel" in self.installed:
            self.installed.add(KERNEL_SPAN)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- spans ----------------------------------------------------------

    def _count_kernel(self, kernel):
        if not dataclasses.is_dataclass(kernel) or not hasattr(kernel, "fn"):
            return kernel
        return dataclasses.replace(
            kernel, fn=self._wrap(KERNEL_SPAN, kernel.fn, count_size=True))

    def _wrap(self, span: str, fn, *, layer: str | None = None, post=None,
              count_size: bool = False, track_alloc: bool = False):
        layer = layer or span.split(".", 1)[0]
        opaque = span not in TRANSPARENT
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            own_trace = track_alloc and not tracemalloc.is_tracing()
            if track_alloc:
                if own_trace:
                    tracemalloc.start()
                tracemalloc.reset_peak()
                alloc_base = tracemalloc.get_traced_memory()[0]
            tracer._stack.append(0.0)
            tracer._active[span] += 1
            tracer._opaque += opaque
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count_size:
                    tracer.sizes[span] += int(np.size(result))
                return result if post is None else post(result)
            finally:
                dt = time.perf_counter() - t0
                if track_alloc:
                    peak = tracemalloc.get_traced_memory()[1] - alloc_base
                    tracer.alloc_peak_bytes = max(tracer.alloc_peak_bytes, peak)
                    if own_trace:
                        tracemalloc.stop()
                child = tracer._stack.pop()
                tracer._active[span] -= 1
                tracer._opaque -= opaque
                tracer.self_s[layer] += dt - child
                tracer.calls[span] += 1
                if tracer._active[span] == 0:
                    tracer.total_s[span] += dt
                if tracer._stack:
                    tracer._stack[-1] += dt
                if opaque and tracer._opaque == 0:
                    tracer.covered_s += dt

        wrapper.__perfbench_span__ = span
        return wrapper


# per-layer metric -> (aggregate, span or layer); see ``layer_metrics``
LAYER_METRICS = {
    "operators.table_s": ("total_s", "operators.RestrictedTransform.__init__"),
    "operators.table_alloc_mb": ("alloc_mb", "operators.RestrictedTransform.__init__"),
    "operators.box_queries": ("sizes", "operators.RestrictedTransform.apply_box"),
    "operators.box_query_calls": ("calls", "operators.RestrictedTransform.apply_box"),
    "operators.box_query_s": ("total_s", "operators.RestrictedTransform.apply_box"),
    "operators.kernel_evals": ("sizes", KERNEL_SPAN),
    "operators.kernel_s": ("total_s", KERNEL_SPAN),
    "operators.apply_restricted_s": ("total_s", "operators.apply_restricted"),
    "sparse.self_s": ("self_s", "sparse"),
    "grid.count_in_calls": ("calls", "grid.CellSet.count_in"),
    "grid.self_s": ("self_s", "grid"),
    "maximal.sharp_truncated_s": ("total_s", "maximal.sharp_truncated"),
    "maximal.hl_maximal_s": ("total_s", "maximal.hl_maximal"),
    "verify.check_sparsity_s": ("total_s", "verify.check_sparsity"),
    "verify.check_domination_s": ("total_s", "verify.check_domination"),
    "verify.audit_coefficients_s": ("total_s", "verify.audit_coefficients"),
    "verify.sparse_lp_ratio_s": ("total_s", "verify.sparse_lp_ratio"),
    "verify.t1_testing_probe_s": ("total_s", "verify.t1_testing_probe"),
    "verify.sharp_vs_maximal_s": ("total_s", "verify.sharp_vs_maximal"),
    "cli.load_config_s": ("total_s", "cli.load_config"),
    "cli.self_s": ("self_s", "cli"),
    "cli.family_from_dict_s": ("total_s", "cli.family_from_dict"),
}


def layer_metrics(snap: dict, installed: set[str]) -> dict[str, float]:
    """Per-layer metrics of one traced op.  A metric whose span was not
    installed is absent; one whose span never ran in the op is 0."""
    layers = {name.split(".", 1)[0] for name in installed}
    out = {}
    for metric, (agg, key) in LAYER_METRICS.items():
        if key not in (layers if agg == "self_s" else installed):
            continue
        if agg == "alloc_mb":
            out[metric] = snap["alloc_peak_bytes"] / 2**20
        else:
            out[metric] = snap[agg].get(key, 0)
    return out
