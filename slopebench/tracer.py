"""Span recorder that wraps the library's functions from outside.

Each wrapped call records one span: name, start, end, parent span and the
query it ran under.  Spans stay in memory (compact arrays) until the run
ends.  A function is patched in every module that binds it, because
``from .laurent import poly_gcd`` copies the name into the importing module
and patching only the defining module would miss those calls.
"""

from __future__ import annotations

import gzip
import importlib
import json
from array import array
from contextlib import contextmanager
from time import perf_counter

from slopelab.laurent import euler_phi

# span name -> bindings "module:attribute" (attribute may be Class.method).
# Every module that imports a name gets its own entry.
TARGETS = {
    "laurent.poly_gcd": ["laurent:poly_gcd", "fields:poly_gcd"],
    "laurent.exact_div": ["laurent:exact_div", "fields:exact_div", "linalg:exact_div"],
    "laurent.mul": ["laurent:LaurentPoly.__mul__", "laurent:LaurentPoly.__rmul__"],
    "fields.ratfunc.add": ["fields:RatFunc.__add__", "fields:RatFunc.__radd__"],
    "fields.cyclotomic.mul": [
        "fields:CyclotomicNumber.__mul__",
        "fields:CyclotomicNumber.__rmul__",
    ],
    "fields.cyclotomic.invert": ["fields:CyclotomicNumber.invert"],
    "linalg.solve": ["linalg:solve", "slope:solve"],
    "linalg.rank": ["linalg:rank", "slope:rank"],
    "linalg.hermitian_signature": ["linalg:hermitian_signature", "slope:hermitian_signature"],
    "seifert.validate": ["seifert:validate", "slope:validate", "conway:validate", "cli:validate"],
    "seifert.build_E": ["seifert:build_E", "slope:build_E"],
    "seifert.load": ["seifert:load_presentation", "cli:load_presentation"],
    "characters.sample_safe_characters": [
        "characters:sample_safe_characters",
        "conway:sample_safe_characters",
        "cli:sample_safe_characters",
    ],
    "characters.concordance_root_status": [
        "characters:concordance_root_status",
        "cli:concordance_root_status",
    ],
    "slope.slope_from_operator": ["slope:slope_from_operator"],
    "slope.slope_at": ["slope:slope_at", "conway:slope_at", "cli:slope_at"],
    "slope.slope_symbolic": ["slope:slope_symbolic", "cli:slope_symbolic"],
    "slope.certify_zero_slope": ["slope:certify_zero_slope"],
    "slope.signature_nullity": ["slope:signature_nullity", "cli:signature_nullity"],
    "conway.conway_quotient": ["conway:conway_quotient", "cli:conway_quotient"],
    "conway.cross_check": ["conway:cross_check", "cli:cross_check"],
    "datasets.resolve_input": ["datasets:resolve_input", "cli:resolve_input"],
}


def _gcd_hook(counters, args, result):
    if not result.is_constant():
        counters["laurent.poly_gcd.nontrivial"] += 1


def _laurent_mul_hook(counters, args, result):
    a, b = args
    counters["laurent.mul.term_products"] += len(a.terms) * len(getattr(b, "terms", (0,)))


def _cyclotomic_mul_hook(counters, args, result):
    a, b = args
    phi = len(a.coords)
    counters["fields.cyclotomic.mul.coeff_ops"] += phi * phi if hasattr(b, "coords") else phi


def _sample_hook(counters, args, result):
    counters["characters.phi_sum"] += sum(euler_phi(ch.conductor) for ch in result)


HOOKS = {
    "laurent.poly_gcd": _gcd_hook,
    "laurent.mul": _laurent_mul_hook,
    "fields.cyclotomic.mul": _cyclotomic_mul_hook,
    "characters.sample_safe_characters": _sample_hook,
}

COUNTERS = (
    "laurent.poly_gcd.nontrivial",
    "laurent.mul.term_products",
    "fields.cyclotomic.mul.coeff_ops",
    "characters.phi_sum",
)


class Tracer:
    """Records spans of wrapped calls; one instance per traced pass."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.query = array("l")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self.stack = [-1]
        self.depth = []
        self.current_query = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._undo = []

    def intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.depth.append(0)
        return self._ids[name]

    def enter(self, nid):
        """Start a span of name id ``nid``; returns its index."""
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.query.append(self.current_query)
        self.outer.append(self.depth[nid] == 0)
        self.end.append(0.0)
        self.stack.append(i)
        self.depth[nid] += 1
        self.start.append(perf_counter())
        return i

    def leave(self, i):
        self.end[i] = perf_counter()
        self.stack.pop()
        self.depth[self.name[i]] -= 1

    def wrap(self, name, fn, hook=None):
        nid = self.intern(name)

        def traced(*args, **kwargs):
            i = self.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(i)
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return traced

    @contextmanager
    def span(self, name):
        """A span the benchmark itself opens; yields the span's index."""
        i = self.enter(self.intern(name))
        try:
            yield i
        finally:
            self.leave(i)

    def install(self):
        """Patch every binding in TARGETS; uninstall() restores them."""
        wrappers = {}
        for name, bindings in TARGETS.items():
            for binding in bindings:
                modname, attr = binding.split(":")
                owner = importlib.import_module(f"slopelab.{modname}")
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                    original = owner.__dict__[attr]
                else:
                    original = getattr(owner, attr)
                key = (name, id(original))
                if key not in wrappers:
                    wrappers[key] = self.wrap(name, original, HOOKS.get(name))
                setattr(owner, attr, wrappers[key])
                self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def add_spans(self, payload, query, root):
        """Merge spans a child process recorded; its top spans go under ``root``."""
        offset = len(self.start)
        remap = [self.intern(n) for n in payload["names"]]
        for nid, s, e, p, o in payload["spans"]:
            self.name.append(remap[nid])
            self.start.append(s)
            self.end.append(e)
            self.parent.append(p + offset if p >= 0 else root)
            self.query.append(query)
            self.outer.append(o)
        for k, v in payload["counters"].items():
            self.counters[k] = self.counters.get(k, 0) + v

    def payload(self):
        return {
            "names": self.names,
            "spans": [
                [self.name[i], self.start[i], self.end[i], self.parent[i], self.outer[i]]
                for i in range(len(self.start))
            ],
            "counters": self.counters,
        }

    def write(self, path):
        """All spans, one tab-separated line each, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("#" + json.dumps({"names": self.names, "counters": self.counters}) + "\n")
            fh.write("#name\tstart\tend\tparent\tquery\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.query[i]}\n"
                )

    def summary(self):
        """Per span name: calls, total_s (outermost spans only) and self_s."""
        n = len(self.start)
        child = [0.0] * n
        starts, ends, parents = self.start, self.end, self.parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            dur = ends[i] - starts[i]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            if self.outer[i]:
                row["total_s"] += dur
        return out

    def child_time(self, parent_name, child_name):
        """Summed duration of ``child_name`` spans directly under ``parent_name``."""
        pid, cid = self._ids.get(parent_name), self._ids.get(child_name)
        total = 0.0
        count = 0
        for i in range(len(self.start)):
            p = self.parent[i]
            if self.name[i] == cid and p >= 0 and self.name[p] == pid:
                total += self.end[i] - self.start[i]
                count += 1
        return total, count

