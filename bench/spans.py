"""Span tracing of the qcreparam layers from outside the library.

`Tracer.install()` replaces public functions of `cli`, `reparam`, `field`,
`beltrami` and `seminorm` with timing wrappers, at the module or class
attribute through which their callers look them up (the beltrami solver,
mollifier and inverse as `qcreparam.reparam` imported them), and
`uninstall()` puts the originals back.  Every call becomes a span (name, start, end, parent
span, map id) held in memory; `dump()` writes the spans out.  Self time is a
span's duration minus the durations of its child spans (single thread, so
children never overlap).

A few wrappers keep a note (an argument, the result or a row count) on the
span; the counts that need more work than that (distinct cells, tries,
Newton nodes) are derived by `map_layers()` after the map has finished, so
that this work never lands in a timed span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import time
from collections import defaultdict

import numpy as np

from qcreparam import cli, field, reparam, seminorm
from qcreparam.field import DerivativeField, SampledMap
from qcreparam.seminorm import SemiNorm2

MAP_SPAN = "map"
AUDIT_SPAN = "audit_cases"

# span name -> per-layer time metric that receives the span's self time
LAYER_OF = {
    MAP_SPAN: "other_s",
    "cli.main": "cli.self_s",
    "SampledMap.load": "field.load_s",
    "epsilon_conformal": "reparam.self_s",
    "epsilon_conformal_from_field": "reparam.self_s",
    "choose_delta": "reparam.choose_delta_s",
    "choose_threshold": "reparam.choose_threshold_s",
    "build_coefficient": "reparam.build_coefficient_s",
    "smooth_coefficient": "reparam.smooth_coefficient_s",
    "estimate_field": "field.estimate_field_s",
    "energy": "field.densities_s",
    "area_intrinsic": "field.densities_s",
    "area_hausdorff": "field.densities_s",
    "DerivativeField.energy_density": "field.densities_s",
    "DerivativeField.jacobian_intrinsic_density": "field.densities_s",
    "DerivativeField.jacobian_hausdorff_density": "field.densities_s",
    "DerivativeField.isotropy_defect_density": "field.densities_s",
    "DerivativeField.beltrami_density": "field.densities_s",
    "composed_energy": "field.composed_energy_s",
    "jacobian_intrinsic": "seminorm.ellipse_s",
    "beltrami_of": "seminorm.ellipse_s",
    "john_ellipse": "seminorm.ellipse_s",
    "SemiNorm2.__call__": "seminorm.gauge_s",
    "solve_beltrami": "beltrami.solve_s",
    "mollify": "beltrami.mollify_s",
    "invert": "beltrami.invert_s",
}
TIME_METRICS = sorted(set(LAYER_OF.values()))

# what a span keeps for the derived counts: a cheap note taken when the call
# returns, from (args, result); the objects noted are alive anyway
_NOTE = {
    "SemiNorm2.__call__": lambda args, out: np.size(args[1]) // 2,
    "estimate_field": lambda args, out: args[0],
    "composed_energy": lambda args, out: args[1],
    "epsilon_conformal": lambda args, out: out,
    "choose_threshold": lambda args, out: out,
    "solve_beltrami": lambda args, out: out,
    "invert": lambda args, out: out,
}


def _module_targets():
    """(owner, attribute, span name, is_static) for every wrapped callable."""
    targets = [(cli, "main", "cli.main", False),
               (SampledMap, "load", "SampledMap.load", True),
               (SemiNorm2, "__call__", "SemiNorm2.__call__", False)]
    for name in ("epsilon_conformal", "epsilon_conformal_from_field",
                 "choose_delta", "choose_threshold", "build_coefficient",
                 "smooth_coefficient",
                 # beltrami functions as reparam looks them up
                 "solve_beltrami", "mollify", "invert"):
        targets.append((reparam, name, name, False))
    for name in ("estimate_field", "energy", "area_intrinsic", "area_hausdorff",
                 "composed_energy"):
        targets.append((field, name, name, False))
    for name in ("energy_density", "jacobian_intrinsic_density",
                 "jacobian_hausdorff_density", "isotropy_defect_density",
                 "beltrami_density"):
        targets.append((DerivativeField, name, f"DerivativeField.{name}", False))
    for name in ("jacobian_intrinsic", "beltrami_of", "john_ellipse"):
        targets.append((seminorm, name, name, False))
    return targets


class Tracer:
    """In-memory span recorder for one traced process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, map_id, note]
        self.map_id = None
        self._stack = []
        self._saved = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        note = _NOTE.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.map_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[5] = note(args, out)
            return out

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, static in _module_targets():
            original = owner.__dict__[attr]
            fn = original.__func__ if static else original
            wrapped = self._wrap(name, fn)
            setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
            self._saved.append((owner, attr, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- root spans opened by the benchmark itself ---------------------------

    @contextlib.contextmanager
    def root(self, name, map_id):
        """Top-level span (a map or its audit); yields its span index."""
        index = len(self.spans)
        rec = [name, 0.0, 0.0, -1, map_id, None]
        self.spans.append(rec)
        self._stack.append(index)
        self.map_id = map_id
        rec[1] = time.perf_counter()
        try:
            yield index
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            self.map_id = None

    def noted(self, name, first):
        """The note of the last span `name` at or after index `first`."""
        for rec in reversed(self.spans[first:]):
            if rec[0] == name and rec[5] is not None:
                return rec[5]
        return None

    def release(self, first):
        """Drop the notes of the spans from index `first` on."""
        for rec in self.spans[first:]:
            rec[5] = None

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "map"],
                       "spans": [rec[:5] for rec in self.spans]}, fh)


def self_times(spans, first, last):
    """Self time of every span in spans[first:last] (children in range)."""
    child = defaultdict(float)
    for rec in spans[first:last]:
        if rec[3] >= first:
            child[rec[3]] += rec[2] - rec[1]
    return {k: spans[k][2] - spans[k][1] - child[k] for k in range(first, last)}


def distinct_cell_share(field_, rel_tol=1e-9):
    """Interior semi-norm rows still distinct at rel_tol, over interior cells."""
    packed = field_.quad if field_.kind == "quadratic" else field_.samp
    rows = packed[field_.grid.interior_mask]
    scale = float(np.max(np.abs(rows))) if rows.size else 0.0
    if scale == 0.0:
        return 1.0 / max(len(rows), 1)
    keys = np.round(rows / (rel_tol * scale)).astype(np.int64)
    return len(np.unique(keys, axis=0)) / len(rows)


def map_layers(spans, first, last, outdir_bytes):
    """Per-layer metrics of one traced map held in spans[first:last].

    spans[first] must be the map's root span.  Returns a dict of metric name
    -> value; `map_s` is the root span's duration.
    """
    selfs = self_times(spans, first, last)
    out = {m: 0.0 for m in TIME_METRICS}
    counts = defaultdict(float)
    for k in range(first, last):
        name, _, _, parent, _, note = spans[k]
        out[LAYER_OF[name]] += selfs[k]
        pname = spans[parent][0] if parent >= first else None
        if name in ("jacobian_intrinsic", "beltrami_of"):
            counts["seminorm.ellipse_calls"] += 1
        elif name in ("DerivativeField.jacobian_intrinsic_density",
                      "DerivativeField.beltrami_density"):
            counts["field.ellipse_fields"] += 1
            if pname == "choose_delta":
                counts["reparam.delta_tries"] += 1
        elif name == "mollify" and pname == "smooth_coefficient":
            counts["reparam.eta_tries"] += 1
        if note is None:
            continue
        if name == "SemiNorm2.__call__":
            counts["seminorm.gauge_points"] += note
        elif name == "estimate_field":
            dirs = (2 * note.target.gauge.size if note.target.kind == "polygonal"
                    else field.QUADRATIC_STENCIL_DIRECTIONS)
            counts["field.stencil_evals"] += int(note.grid.interior_mask.sum()) * dirs
        elif name == "choose_threshold":
            counts["reparam.threshold_tries"] += int(round(math.log2(note.L))) + 1
        elif name == "solve_beltrami":
            counts["beltrami.solver_iterations"] += note.iterations
            counts["beltrami.solver_nodes"] += note.values.size
        elif name in ("invert", "composed_energy"):
            kept = note.values.size if note.mask is None else int(note.mask.sum())
            if name == "invert":
                counts["beltrami.newton_nodes"] += note.values.size
                counts["beltrami.newton_kept"] += kept
            else:
                counts["field.composed_nodes"] += kept
        elif name == "epsilon_conformal":
            counts["field.distinct_cell_share"] += distinct_cell_share(
                note[2].extras["field"])
    out.update(counts)
    out["cli.bytes_written"] = float(outdir_bytes)
    out["map_s"] = spans[first][2] - spans[first][1]
    return out
