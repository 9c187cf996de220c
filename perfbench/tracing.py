"""Spans around calls into the package's public functions, recorded from outside.

`Tracer.install()` replaces each traced function wherever a `pointderiv`
module binds it (for example both `pointderiv.contour.annular_decomposition`
and `pointderiv.cli.annular_decomposition`) and each traced method on its
class; `uninstall()` puts the originals back.  Every call keeps a stack
frame, so a parent's self time excludes the time of its traced children.

Spans (name, start, end, parent) are kept in memory and written out by
`dump()`.  Hot leaf calls (gallery evaluation, domain membership and
boundary distance) are only aggregated, because a run makes hundreds of
thousands of them.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# (layer, module or class path, attribute, kind); kind "leaf" aggregates only
FUNCTIONS = [
    ("contour", "pointderiv.contour", "integrate_contour", "span"),
    ("contour", "pointderiv.contour", "build_keyhole", "span"),
    ("contour", "pointderiv.contour", "build_annular_piece", "span"),
    ("contour", "pointderiv.contour", "full_circle", "span"),
    ("contour", "pointderiv.contour", "annular_decomposition", "span"),
    ("contour", "pointderiv.contour", "lemma_cauchy_bound_check", "span"),
    ("lipschitz", "pointderiv.lipschitz", "seminorm_estimate", "span"),
    ("lipschitz", "pointderiv.lipschitz.GalleryFunction", "__call__", "leaf"),
    ("geometry", "pointderiv.geometry.SwissCheeseDomain", "contains", "leaf"),
    ("geometry", "pointderiv.geometry.SwissCheeseDomain", "boundary_distance", "leaf"),
    ("geometry", "pointderiv.geometry", "validate_cone", "span"),
    ("geometry", "pointderiv.geometry", "verify_interior_cone", "span"),
    ("geometry", "pointderiv.geometry", "annulus_complement", "span"),
    ("geometry", "pointderiv.geometry.ClippedPiece", "diameter", "span"),
    ("content", "pointderiv.content", "greedy_cover_upper", "span"),
    ("content", "pointderiv.content", "disjoint_disk_content", "span"),
    ("criterion", "pointderiv.criterion", "lord_ofarrell_series", "span"),
    ("experiments", "pointderiv.experiments", "nontangential_limit", "span"),
    ("experiments", "pointderiv.experiments", "functional_sweep", "span"),
    ("cli", "pointderiv.cli", "main", "span"),
    ("cli", "pointderiv.cli", "load_config", "span"),
    ("cli", "pointderiv.cli.RunContext", "emit", "span"),
    ("cli", "pointderiv.cli.RunContext", "try_cache", "span"),
]

LAYERS = ["contour", "lipschitz", "geometry", "content", "criterion", "experiments", "cli"]

_SHORT = {
    "__call__": "gallery_call",
    "contains": "domain_contains",
    "boundary_distance": "boundary_distance",
    "diameter": "piece_diameter",
}


def _resolve(path: str):
    """The module, or class inside a module, named by a dotted path."""
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        name = ".".join(parts[:i])
        if name in sys.modules:
            obj = sys.modules[name]
            for attr in parts[i:]:
                obj = getattr(obj, attr)
            return obj
    raise LookupError(path)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.err_to_tol_max = 0.0
        self._stack: list[list] = []  # [name, child_time, span_index]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, leaf: bool, after=None):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            parent = stack[-1][2] if stack else -1
            frame = [name, 0.0, -1]
            if not leaf:
                frame[2] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if not leaf:
                    spans[frame[2]] = (name, t0, t1, parent)
            if after is not None:
                after(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _after_integrate(self, args, kwargs, res):
        tol = kwargs.get("tol", args[2] if len(args) > 2 else 1e-10)
        self.counts["evaluations"] += res.evaluations
        self.err_to_tol_max = max(self.err_to_tol_max, res.error_estimate / tol)

    def _after_gallery(self, args, kwargs, out):
        self.counts["gallery_points"] += np.size(args[1])

    def _after_greedy(self, args, kwargs, out):
        self.counts["greedy_pieces"] += len(args[0])

    def _after_emit(self, args, kwargs, out):
        files = args[1]
        self.counts["bytes_written"] += sum(len(d.encode()) for d in files.values())

    def _after_try_cache(self, args, kwargs, hit):
        self.counts["cache_hits"] += bool(hit)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        after = {
            "integrate_contour": self._after_integrate,
            "__call__": self._after_gallery,
            "greedy_cover_upper": self._after_greedy,
            "emit": self._after_emit,
            "try_cache": self._after_try_cache,
        }
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "pointderiv"]
        for layer, path, attr, kind in FUNCTIONS:
            owner = _resolve(path)
            orig = owner.__dict__[attr]
            name = f"{layer}.{_SHORT.get(attr, attr)}"
            wrapped = self._wrap(name, orig, kind == "leaf", after.get(attr))
            if isinstance(owner, type):
                self._patched.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def layer_self_ms(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, t in self.self_time.items():
            out[name.split(".")[0]] += 1e3 * t
        return out

    def dump(self, path) -> None:
        """Write the spans as CSV: index, name, start_us, end_us, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_us,end_us,parent\n")
            for i, (name, a, b, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{1e6 * (a - t0):.1f},{1e6 * (b - t0):.1f},{parent}\n")
