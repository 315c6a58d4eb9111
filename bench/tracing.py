"""Spans around the calls into each ``tropeci`` layer, installed at run time.

``Tracer.installed()`` replaces each function in ``TARGETS`` by a wrapper in
every ``tropeci`` module namespace that holds it, including names bound by
``from .x import y`` (``inverse_rows`` is wrapped in ``cones`` and ``ppfunc``
as well as in ``linalg``), and restores the originals on exit.  Methods and
constructors are wrapped on their class.  Per-element helpers such as
``dot`` and ``_reduce_row`` are left alone: they run about 100k times per
operation and their spans would swamp the numbers.

Spans are kept in flat arrays (name, parent, operation, start, end and two
counters) and written out when the run ends.  Self time is derived from
them afterwards: a span's time minus the time covered by spans of other
layers inside it.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from contextlib import contextmanager
from math import prod
from time import perf_counter


def _len_result(args, out):
    return len(out), 0


def _passed(args, out):
    return int(bool(out)), 1


def _box_hits(args, out):
    verts = args[0].vertices
    box = prod(max(v[i] for v in verts) - min(v[i] for v in verts) + 1
               for i in range(len(verts[0])))
    return len(out), box


def _refined_pieces(args, out):
    t_fan, m = args[0], args[1]
    return len(out), len(t_fan.cones) * len(m.cells)


def _walls(args, out):
    return len(out.cones), 0


def _pp_cells(args, out):
    return len(out.cells), 0


def _terms(args, out):
    return len(out.terms), 0


def _threshold_cells(args, out):
    return sum(len(f.cells) for f in out.functions), 0


# (span name, module, attribute path, counter function or None).  The span
# name is the metric prefix; counter functions return (x, y) per call.
TARGETS = [
    ("linalg.inverse_rows", "linalg", "inverse_rows", None),
    ("linalg.solve", "linalg", "solve", None),
    ("linalg.smith_with_basis", "linalg", "smith_with_basis", None),
    ("linalg.kernel_basis", "linalg", "kernel_basis", None),
    ("cones.dual_description", "cones", "dual_description", None),
    ("cones.chamber_complex", "cones", "chamber_complex", _len_result),
    ("cones.may_meet_full_dim", "cones", "may_meet_full_dim", _passed),
    ("polytopes.LatticePolytope", "polytopes", "LatticePolytope.__init__", None),
    ("polytopes.lattice_points", "polytopes", "LatticePolytope.lattice_points",
     _box_hits),
    ("polytopes.minkowski_sum", "polytopes", "LatticePolytope.minkowski_sum", None),
    ("fans.wall_lift", "fans", "wall_lift", None),
    ("fans.is_balanced", "fans", "is_balanced", None),
    ("fans.pushforward", "fans", "pushforward", None),
    ("fans.consolidate", "fans", "consolidate", None),
    ("plfunc.corner_locus", "plfunc", "corner_locus", _walls),
    ("plfunc.refine_with_function", "plfunc", "refine_with_function",
     _refined_pieces),
    ("plfunc.pullback_linear", "plfunc", "pullback_linear", None),
    ("plfunc.reconstruct_polytope", "plfunc", "reconstruct_polytope", None),
    ("ppfunc.pp_iterated_number", "ppfunc", "pp_iterated_number", None),
    ("ppfunc._FanEngine.fold", "ppfunc", "_FanEngine.fold", None),
    ("ppfunc.triangulate_complete_fan", "ppfunc", "triangulate_complete_fan",
     _len_result),
    ("mci.tci_from_mci", "mci", "tci_from_mci", _threshold_cells),
    ("mci.classical_mci", "mci", "classical_mci", None),
    ("mci.bkk_number", "mci", "bkk_number", None),
    ("elimination.shadow_function", "elimination", "shadow_function", _pp_cells),
    ("elimination.eliminant_support_value", "elimination",
     "eliminant_support_value", None),
    ("elimination.tropical_eliminant", "elimination", "tropical_eliminant", None),
    ("elimination.eliminant_polytope", "elimination", "eliminant_polytope", None),
    ("invariants.hirzebruch_chi_p", "invariants", "hirzebruch_chi_p", None),
    ("invariants.val_decompose", "invariants", "val_decompose", _terms),
    ("invariants.euler_from_genera", "invariants", "euler_from_genera", None),
    ("invariants.tropical_csm", "invariants", "tropical_csm", None),
    ("invariants.euler_from_csm", "invariants", "euler_from_csm", None),
]

MODULES = ["linalg", "cones", "polytopes", "fans", "plfunc", "ppfunc", "mci",
           "elimination", "invariants"]


class Tracer:
    """Span recorder for one traced run."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.module = [t[1] for t in TARGETS]
        self.op_id = -1
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.nested = array("b")  # inside a span of the same name
        self.start = array("d")
        self.end = array("d")
        self.x = array("d")
        self.y = array("d")
        self._stack = []
        self._active = [0] * len(TARGETS)

    def _wrap(self, idx: int, fn, counter):
        stack, active = self._stack, self._active
        name, parent, op, nested = self.name, self.parent, self.op, self.nested
        start, end, xs, ys = self.start, self.end, self.x, self.y

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(name)
            name.append(idx)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            nested.append(active[idx] > 0)
            xs.append(0.0)
            ys.append(0.0)
            end.append(0.0)
            active[idx] += 1
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
                active[idx] -= 1
            if counter is not None:
                xs[i], ys[i] = counter(args, out)
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        mods = {k[len("tropeci."):]: m for k, m in list(sys.modules.items())
                if k.startswith("tropeci.") and m is not None}
        undo = []
        try:
            for idx, (_, mod, path, counter) in enumerate(TARGETS):
                owner_path, _, attr = path.rpartition(".")
                if owner_path:
                    owner = getattr(mods[mod], owner_path)
                    orig = owner.__dict__[attr]
                    setattr(owner, attr, self._wrap(idx, orig, counter))
                    undo.append((owner, attr, orig))
                    continue
                orig = getattr(mods[mod], attr)
                wrapper = self._wrap(idx, orig, counter)
                for m in mods.values():
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, wrapper)
                            undo.append((m, key, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def per_layer(self, n_ops: int) -> dict:
        """Per-operation totals by span name, plus self time by module."""
        n = len(self.name)
        layer = [self.module[k] for k in self.name]
        dur = [e - s for s, e in zip(self.start, self.end)]
        # time inside each span covered by spans of other layers; children
        # come after their parent, so one reverse pass settles every span
        other = [0.0] * n
        for i in range(n - 1, -1, -1):
            p = self.parent[i]
            if p >= 0:
                other[p] += dur[i] if layer[i] != layer[p] else other[i]
        calls = dict.fromkeys(self.names, 0)
        time_s = dict.fromkeys(self.names, 0.0)
        self_s = dict.fromkeys(self.names, 0.0)
        xs = dict.fromkeys(self.names, 0.0)
        ys = dict.fromkeys(self.names, 0.0)
        module_self = dict.fromkeys(MODULES, 0.0)
        for i in range(n):
            k = self.names[self.name[i]]
            calls[k] += 1
            xs[k] += self.x[i]
            ys[k] += self.y[i]
            if not self.nested[i]:
                time_s[k] += dur[i]
                self_s[k] += dur[i] - other[i]
            p = self.parent[i]
            if p < 0 or layer[p] != layer[i]:
                module_self[layer[i]] += dur[i] - other[i]
        out = {}
        per = 1.0 / max(n_ops, 1)
        for k in self.names:
            out[k] = {"calls": calls[k] * per, "time_s": time_s[k] * per,
                      "self_s": self_s[k] * per, "x": xs[k] * per,
                      "ratio": xs[k] / ys[k] if ys[k] else 0.0}
        for mod, t in module_self.items():
            out[mod] = {"self_s": t * per}
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped JSON: names plus one row per span."""
        rows = [[self.name[i], self.parent[i], self.op[i], self.start[i],
                 self.end[i], self.x[i], self.y[i]] for i in range(len(self.name))]
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump({"names": self.names,
                       "columns": ["name", "parent", "op", "start", "end", "x", "y"],
                       "spans": rows}, f)
