"""Span recorder and per-layer metrics for the traced benchmark run.

The program has no instrumentation of its own, so the traced run wraps
the public entry points of each module from the outside.  A function is
wrapped in *every* namespace that binds it: `from .dynsys import
escape_rate` gives `green`, `experiments` and `heights` their own
reference, and patching `greenfield.dynsys` alone would miss those
calls.  Methods are wrapped on their class, which every caller shares.

Spans are kept in memory as columns (name id, start, end, parent, trace
id); self time is computed from them afterwards.  `install` returns an
undo function; the untraced run never calls it, so it measures the
unmodified program.
"""

import sys
from array import array
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

MODULES = ("pffield", "homopoly", "linalg", "macaulay", "dynsys", "basis",
           "green", "heights", "experiments", "cli")

# Public methods the per-layer metrics need; looked up through the class.
METHODS = (
    ("linalg", "IncrementalRank", "add"),
    ("macaulay", "MacaulayMatrix", "__init__"),
    ("basis", "GenElement", "evaluate_at"),
    ("dynsys", "DynSystem", "iterate"),
    ("experiments", "LattesSystem", "orbit"),
    ("cli", "SystemConfig", "load"),
    ("cli", "SystemConfig", "build"),
)

# Functions from other packages that a layer calls through its own
# namespace; the span is named after the layer that owns the call.
FOREIGN = (("factorint", "pffield"), ("factor_list", "experiments"))


class SpanRecorder:
    """Columnar in-memory spans; one recorder per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.trace = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.trace_id = 0
        self.counters: dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.trace.append(self.trace_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int, name_id: int | None = None):
        self.end[i] = perf_counter()
        self.stack.pop()
        if name_id is not None:
            self.name[i] = name_id

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span (used to build synthetic traces)."""
        i = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.trace.append(self.trace_id)
        self.start.append(start)
        self.end.append(end)
        return i

    def __len__(self):
        return len(self.start)

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of its interval that its
        child spans cover."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                lo = max(self.start[i], self.start[p])
                hi = min(self.end[i], self.end[p])
                if hi > lo:
                    covered[p] += hi - lo
        return [self.end[i] - self.start[i] - covered[i] for i in range(n)]

    def write_tsv(self, fh):
        fh.write("span\tname\tparent\ttrace\tstart\tend\n")
        names = self.names
        for i in range(len(self.start)):
            fh.write(f"{i}\t{names[self.name[i]]}\t{self.parent[i]}\t"
                     f"{self.trace[i]}\t{self.start[i]!r}\t{self.end[i]!r}\n")


# ---------------------------------------------------------------------------
# Wrappers


def _max_bits(rows) -> int:
    best = 0
    for row in rows:
        for x in row:
            if isinstance(x, Fraction):
                b = max(x.numerator.bit_length(), x.denominator.bit_length())
            else:
                b = int(x).bit_length()
            if b > best:
                best = b
    return best


def _escape_kind(args) -> str:
    system, place = args[0], args[1]
    if place.is_archimedean:
        return "arch"
    try:
        return "exact" if system.reduction(place).good else "padic"
    except Exception:
        return "padic"


def _make_wrapper(rec: SpanRecorder, name: str, fn):
    nid = rec.name_id(name)

    if name == "homopoly.evaluate":
        num, ex = rec.name_id(name + ":numeric"), rec.name_id(name + ":exact")

        def wrapper(form, point):
            i = rec.open(nid)
            try:
                return fn(form, point)
            finally:
                rec.close(i, num if point.numeric else ex)
    elif name == "dynsys.escape_rate":
        def wrapper(*args, **kwargs):
            i = rec.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(i, rec.name_id(f"{name}:{_escape_kind(args)}"))
    elif name == "linalg.IncrementalRank.add":
        new, dep = rec.name_id(name + ":new"), rec.name_id(name + ":dep")

        def wrapper(self, vec):
            i = rec.open(nid)
            piv = None
            try:
                piv = fn(self, vec)
                return piv
            finally:
                rec.close(i, dep if piv is None else new)
    elif name in ("linalg.det_fraction", "linalg.bareiss_det"):
        outer = rec.name_id("linalg.det_fraction")

        def wrapper(rows):
            top = rec.stack[-1]
            if top < 0 or rec.name[top] != outer:
                c = rec.counters
                c["linalg.det_max_side"] = max(c["linalg.det_max_side"], len(rows))
                c["linalg.det_max_bits"] = max(c["linalg.det_max_bits"], _max_bits(rows))
            i = rec.open(nid)
            try:
                return fn(rows)
            finally:
                rec.close(i)
    else:
        on_result = _RESULT_HOOKS.get(name)

        def wrapper(*args, **kwargs):
            i = rec.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(i)
            if on_result is not None:
                on_result(rec.counters, args, out)
            return out

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _count_kept(counters, args, out):
    counters["basis.kept"] += out.cn


def _count_tuple(counters, args, out):
    counters["experiments.tuple_c"] += len(out)


def _count_fekete(counters, args, out):
    counters["green.fekete_evals"] += out.evaluations


_RESULT_HOOKS = {
    "basis.special_basis": _count_kept,
    "experiments.sample_julia_tuple": _count_tuple,
    "green.fekete_search": _count_fekete,
}


def install(rec: SpanRecorder):
    """Wrap the program's public functions and the methods in METHODS;
    returns a function that restores every patched attribute."""
    mods = {m: sys.modules[f"greenfield.{m}"] for m in MODULES}
    namespaces = list(mods.values()) + [sys.modules["greenfield"]]
    wrappers = {}  # id(original) -> wrapper
    for mname, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not callable(obj) or isinstance(obj, type)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            wrappers[id(obj)] = _make_wrapper(rec, f"{mname}.{attr}", obj)
    for fname, owner in FOREIGN:
        for ns in namespaces:
            obj = vars(ns).get(fname)
            if obj is not None and id(obj) not in wrappers:
                wrappers[id(obj)] = _make_wrapper(rec, f"{owner}.{fname}", obj)

    undo = []
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            w = wrappers.get(id(obj))
            if w is not None and not attr.startswith("__"):
                undo.append((ns, attr, obj))
                setattr(ns, attr, w)
    for mname, cls_name, meth in METHODS:
        cls = getattr(mods[mname], cls_name)
        raw = cls.__dict__[meth]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        w = _make_wrapper(rec, f"{mname}.{cls_name}.{meth}", fn)
        undo.append((cls, meth, raw))
        setattr(cls, meth, staticmethod(w) if isinstance(raw, staticmethod) else w)

    def restore():
        for target, attr, obj in reversed(undo):
            setattr(target, attr, obj)
    return restore


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced pass


def layer_metrics(rec: SpanRecorder) -> dict[str, float]:
    selfs = rec.self_times()
    names = rec.names
    calls = defaultdict(int)
    self_s = defaultdict(float)
    layer_self = defaultdict(float)
    for i, s in enumerate(selfs):
        nm = names[rec.name[i]]
        calls[nm] += 1
        self_s[nm] += s
        layer_self[nm.split(".", 1)[0]] += s

    groups = {
        "det": ("linalg.det_fraction", "linalg.bareiss_det"),
        "solve": ("linalg.solve_preferring_early_columns",),
        "iterate": ("homopoly.iterate",),
        "special_basis": ("basis.special_basis",),
        "evaluate_at": ("basis.GenElement.evaluate_at",),
        "fekete": ("green.fekete_search",),
        "eval_det_log": ("green.eval_det_log",),
        "dbn_witness": ("green.dbn_witness",),
        "tuple": ("experiments.sample_julia_tuple",),
        "orbit": ("experiments.LattesSystem.orbit",),
        "factor": ("experiments.factor_list",),
        "canonical_height": ("heights.canonical_height",),
        "factorint": ("pffield.factorint",),
        "build": ("cli.SystemConfig.load", "cli.SystemConfig.build"),
    }
    group_of = {}
    for g, members in groups.items():
        for m in members:
            if m in rec._ids:
                group_of[rec._ids[m]] = g
    inclusive = defaultdict(float)  # time inside the outermost spans of a group
    outermost = defaultdict(int)  # and their number
    for i in range(len(rec)):
        g = group_of.get(rec.name[i])
        if g is None:
            continue
        p = rec.parent[i]
        while p >= 0 and group_of.get(rec.name[p]) != g:
            p = rec.parent[p]
        if p < 0:
            inclusive[g] += rec.end[i] - rec.start[i]
            outermost[g] += 1

    def children_of(child_prefix, parent_name):
        pid = rec._ids.get(parent_name)
        return sum(1 for i in range(len(rec))
                   if rec.parent[i] >= 0 and rec.name[rec.parent[i]] == pid
                   and names[rec.name[i]].startswith(child_prefix))

    def ratio(num, den):
        return num / den if den else 0.0

    c = rec.counters
    add = "linalg.IncrementalRank.add"
    adds = calls[add + ":new"] + calls[add + ":dep"]
    esc = "dynsys.escape_rate:"
    candidates = children_of(add, "basis.special_basis")
    tried = children_of("experiments.scale_into_julia", "experiments.sample_julia_tuple")
    fekete_s = inclusive["fekete"]
    evals = c["green.fekete_evals"]
    return {
        "macaulay.resultant_s": layer_self["macaulay"],
        "macaulay.matrices_built": calls["macaulay.MacaulayMatrix.__init__"],
        "macaulay.fallbacks": calls["linalg.bareiss_det_poly"],
        "linalg.det_s": inclusive["det"],
        "linalg.det_calls": outermost["det"],
        "linalg.det_max_side": c["linalg.det_max_side"],
        "linalg.det_max_bits": c["linalg.det_max_bits"],
        "linalg.rank_add_s": self_s[add + ":new"] + self_s[add + ":dep"],
        "linalg.rank_adds": adds,
        "linalg.rank_useful_ratio": ratio(calls[add + ":new"], adds),
        "linalg.solve_s": inclusive["solve"],
        "dynsys.escape_arch_calls": calls[esc + "arch"],
        "dynsys.escape_arch_us": 1e6 * ratio(self_s[esc + "arch"], calls[esc + "arch"]),
        "dynsys.escape_padic_calls": calls[esc + "padic"],
        "dynsys.escape_padic_s": self_s[esc + "padic"],
        "dynsys.escape_exact_calls": calls[esc + "exact"],
        "homopoly.evaluate_calls.numeric": calls["homopoly.evaluate:numeric"],
        "homopoly.evaluate_calls.exact": calls["homopoly.evaluate:exact"],
        "homopoly.evaluate_s": (self_s["homopoly.evaluate:numeric"]
                                + self_s["homopoly.evaluate:exact"]),
        "homopoly.iterate_s": inclusive["iterate"],
        "basis.special_basis_s": inclusive["special_basis"],
        "basis.candidates": candidates,
        "basis.kept_ratio": ratio(c["basis.kept"], candidates),
        "basis.evaluate_at_calls": calls["basis.GenElement.evaluate_at"],
        "basis.evaluate_at_s": inclusive["evaluate_at"],
        "green.fekete_s": fekete_s,
        "green.fekete_evals": evals,
        "green.fekete_evals_per_s": ratio(evals, fekete_s),
        "green.eval_det_log_s": inclusive["eval_det_log"],
        "green.dbn_witness_s": inclusive["dbn_witness"],
        "experiments.tuple_s": inclusive["tuple"],
        "experiments.tuple_grid_tried": tried,
        "experiments.tuple_useful_ratio": ratio(c["experiments.tuple_c"], tried),
        "experiments.orbit_s": inclusive["orbit"],
        "experiments.factor_s": inclusive["factor"],
        "heights.canonical_height_s": inclusive["canonical_height"],
        "pffield.factorint_calls": calls["pffield.factorint"],
        "pffield.factorint_s": inclusive["factorint"],
        "cli.build_s": inclusive["build"],
    }
