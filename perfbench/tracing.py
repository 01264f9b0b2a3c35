"""Span tracing of infgon's public functions, installed from outside the program.

Each traced function is rebound in every infgon module namespace that holds
it, because modules import one another's functions by name
(``triangulation.conjunction_model`` and ``mutation.ext_case`` are bindings
of functions defined elsewhere).  ``Triangulation.contains`` is patched on its
class, and ``Arc`` construction is only counted, by patching ``Arc.__init__``.

Spans live in flat arrays while the run lasts: name, start, end, parent span
and the operation they belong to.  Self time is computed at the end: a span's
duration minus the durations of its direct children (the harness is single
threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# layer -> traced public functions; "Class.method" entries are patched on the class
LAYERS: dict[str, tuple[str, ...]] = {
    "surface": ("cyclic_ordered", "between", "adjacent"),
    "arcs": ("cross_transverse", "shift_arc", "canonical_lift", "squeeze"),
    "homs": (
        "ext_case",
        "ext_dim",
        "hom_dim",
        "ext_dim_oracle",
        "sweep_intervals",
        "factors_over",
        "open_interval_segments",
        "exchange_triangles",
    ),
    "affine": ("solve_2var", "conjunction_model", "cross_conjunctions", "solve_1var_range"),
    "triangulation": (
        "crossing_witness",
        "duplicate_witness",
        "validate_non_crossing",
        "window_check",
        "window_brute_force",
        "neighbor_scan",
        "reverse_triangulation",
        "Triangulation.contains",
        "limit_of_family",
        "detect_leapfrog",
        "triangulation_from_json",
    ),
    "mutation": ("quad_frame", "approximate", "is_mutable", "flip", "right_module_generators"),
    "cli": ("main",),
    "render": ("render_svg",),
}

# ratio metric -> (kind, numerator function, denominator function)
#   "child": calls of the numerator whose direct parent span is the denominator
#   "hit":   calls of the function that returned something other than None
RATIOS: dict[str, tuple[str, str, str]] = {
    "homs.ext_dim_oracle.sweep_ratio": ("child", "homs.sweep_intervals", "homs.ext_dim_oracle"),
    "affine.solve_2var.sat_ratio": ("hit", "affine.solve_2var", "affine.solve_2var"),
    "triangulation.crossing_witness.conj_per_call": (
        "child",
        "affine.conjunction_model",
        "triangulation.crossing_witness",
    ),
    "triangulation.crossing_witness.hit_ratio": (
        "hit",
        "triangulation.crossing_witness",
        "triangulation.crossing_witness",
    ),
}

ARC_COUNT = "arcs.Arc.calls"


def traced_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Records spans for the traced functions while ``enabled`` is true."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_op = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.hits = array("q")
        self.stack: list[int] = []
        self.op = -1
        self.enabled = False
        self.arc_calls = 0
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.hits.append(0)
        return nid

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        tr = self
        clock = time.perf_counter
        sp_name, sp_parent, sp_op = self.sp_name, self.sp_parent, self.sp_op
        sp_start, sp_end, stack, hits = self.sp_start, self.sp_end, self.stack, self.hits

        def traced(*args, **kwargs):
            if not tr.enabled:
                return fn(*args, **kwargs)
            idx = len(sp_name)
            sp_name.append(nid)
            sp_parent.append(stack[-1] if stack else -1)
            sp_op.append(tr.op)
            sp_end.append(0.0)
            stack.append(idx)
            sp_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                sp_end[idx] = clock()
                stack.pop()
            if result is not None:
                hits[nid] += 1
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Rebind every traced function in every infgon module."""
        homes = {layer: importlib.import_module(f"infgon.{layer}") for layer in LAYERS}
        modules = [m for n, m in sorted(sys.modules.items()) if n == "infgon" or n.startswith("infgon.")]
        for layer, fns in LAYERS.items():
            home = homes[layer]
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._set(cls, meth, original, self._wrap(original, name))
                    continue
                original = getattr(home, fn_name)
                wrapper = self._wrap(original, name)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, original, wrapper)
        arc_cls = homes["arcs"].Arc
        init = arc_cls.__init__
        tr = self

        def counted_init(obj, p, q):
            if tr.enabled:
                tr.arc_calls += 1
            init(obj, p, q)

        self._set(arc_cls, "__init__", init, counted_init)

    def _set(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def begin_op(self, kind: str) -> int:
        """Open the root span of one harness operation; children share its op id."""
        self.op += 1
        nid = self._name_id(f"op.{kind}")
        idx = len(self.sp_name)
        self.sp_name.append(nid)
        self.sp_parent.append(-1)
        self.sp_op.append(self.op)
        self.sp_end.append(0.0)
        self.stack.append(idx)
        self.sp_start.append(time.perf_counter())
        return idx

    def end_op(self, idx: int) -> None:
        self.sp_end[idx] = time.perf_counter()
        self.stack.pop()

    def summary(self) -> dict[str, float]:
        """Per-function calls and self seconds, the ratio metrics and the Arc count."""
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        child_time = [0.0] * len(self.sp_name)
        child_calls: dict[tuple[int, int], int] = {}
        names, parents = self.sp_name, self.sp_parent
        starts, ends = self.sp_start, self.sp_end
        for i in range(len(names) - 1, -1, -1):  # children always follow their parent
            dur = ends[i] - starts[i]
            nid = names[i]
            calls[nid] += 1
            self_s[nid] += dur - child_time[i]
            p = parents[i]
            if p >= 0:
                child_time[p] += dur
                key = (names[p], nid)
                child_calls[key] = child_calls.get(key, 0) + 1
        out: dict[str, float] = {}
        for name in traced_names():
            nid = self.name_ids.get(name)
            out[f"{name}.calls"] = calls[nid] if nid is not None else 0
            out[f"{name}.self_s"] = self_s[nid] if nid is not None else 0.0
        out[ARC_COUNT] = self.arc_calls
        for metric, (kind, num, den) in RATIOS.items():
            den_id = self.name_ids.get(den)
            den_calls = calls[den_id] if den_id is not None else 0
            if kind == "hit":
                numerator = self.hits[den_id] if den_id is not None else 0
            else:
                num_id = self.name_ids.get(num)
                numerator = child_calls.get((den_id, num_id), 0)
            out[metric] = numerator / den_calls if den_calls else 0.0
        return out

    def write_spans(self, path) -> int:
        """Write every span as one tab-separated line; returns the span count."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# span\top\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.sp_name)):
                fh.write(
                    f"{i}\t{self.sp_op[i]}\t{self.sp_parent[i]}\t{names[self.sp_name[i]]}"
                    f"\t{self.sp_start[i]:.9f}\t{self.sp_end[i]:.9f}\n"
                )
        return len(self.sp_name)
