"""Outside-in tracing of `graphvariety`: wrap public functions, record spans.

`Tracer.install` replaces every public function of the package in every
module namespace that binds it (so `cli`'s `from .x import y` copies are
traced too) and the Matrix / BilinearSpace methods below with wrappers that
append one span each: name, parent span, start and end.  Spans stay in flat
arrays in memory until the pass ends.  A few counters are taken at the same
boundaries from the call's arguments and result.  Nothing under `src/` is
edited; an untraced run never calls `install`.
"""

import functools
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter

METHODS = {
    "Matrix": ("kernel_basis", "left_kernel_basis", "rank", "transpose", "mul_vector",
               "identity"),
    "BilinearSpace": ("pair", "gram_times", "gram_transpose_times"),
}


class Tracer:
    def __init__(self):
        self.on = False
        self.names = []
        self.ids = {}
        self.depth = []
        self.current = -1
        self.reset()

    def reset(self):
        self.sid = array("i")
        self.parent = array("i")
        self.nested = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counters = defaultdict(int)

    def _id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.depth.append(0)
        return self.ids[name]

    def active(self, name):
        return self.depth[self.ids[name]] > 0

    def wrap(self, fn, name, hook=None):
        sid = self._id(name)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            i = len(tr.sid)
            parent = tr.current
            tr.sid.append(sid)
            tr.parent.append(parent)
            tr.nested.append(tr.depth[sid] > 0)
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr.current = i
            tr.depth[sid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr.start[i] = t0
                tr.end[i] = t1
                tr.current = parent
                tr.depth[sid] -= 1
            if hook is not None:
                hook(tr, args, result)
            return result

        return traced

    def install(self, package="graphvariety"):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == package or n.startswith(package + ".")) and m is not None
                   and not n.endswith(".__main__")]
        wrapped = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith(package + ".")):
                    continue
                if obj not in wrapped:
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__qualname__}"
                    wrapped[obj] = self.wrap(obj, name, HOOKS.get(name))
                setattr(mod, attr, wrapped[obj])
        owners = {cls: mod for mod in modules for cls in vars(mod).values()
                  if isinstance(cls, type) and cls.__name__ in METHODS
                  and cls.__module__ == mod.__name__}
        for cls, mod in owners.items():
            short = mod.__name__.rsplit(".", 1)[1]
            for meth in METHODS[cls.__name__]:
                raw = vars(cls)[meth]
                name = f"{short}.{cls.__name__}.{meth}"
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(raw.__func__, name, HOOKS.get(name))))
                else:
                    setattr(cls, meth, self.wrap(raw, name, HOOKS.get(name)))
        for name in ("counting.count_points", "sampling.sample_regular_point"):
            self._id(name)

    def spans(self):
        """Per span: (name id, parent, nested in a span of the same name,
        duration, self time)."""
        n = len(self.sid)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        return [(self.sid[i], self.parent[i], self.nested[i], dur[i], dur[i] - child[i])
                for i in range(n)]

    def dump(self):
        """The raw spans of the current pass, as JSON-ready columns."""
        return {"names": self.names, "sid": list(self.sid), "parent": list(self.parent),
                "start": list(self.start), "end": list(self.end)}


def aggregate(spans, names, lo=0, hi=None):
    """calls, self_s and total_s per span name over spans[lo:hi].  total_s
    sums only spans not nested in a span of the same name, so a recursion is
    counted once."""
    stats = {}
    for sid, _, nested, dur, self_t in spans[lo:hi]:
        s = stats.setdefault(names[sid], [0, 0.0, 0.0])
        s[0] += 1
        s[1] += self_t
        if not nested:
            s[2] += dur
    return stats


def _elimination(tr, args, result):
    m = args[0]
    tr.counters["linalg.cells"] += m.nrows * m.ncols


def _kernel_basis(tr, args, result):
    _elimination(tr, args, result)
    if tr.active("counting.count_points"):
        tr.counters["counting.nodes"] += 1


def _identity(tr, args, result):
    if tr.active("counting.count_points"):
        tr.counters["counting.nodes"] += 1


def _independent(tr, args, result):
    if tr.active("sampling.sample_regular_point"):
        tr.counters["sampling.independence_checks"] += 1


def _bits(x):
    if hasattr(x, "numerator"):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return x.value.bit_length()


def _certificate(tr, args, result):
    if result is not None:
        bits = max(_bits(x) for x in result.values)
        tr.counters["variety.cert_max_bits"] = max(tr.counters["variety.cert_max_bits"], bits)


def _count(tr, args, result):
    req = args[0]
    tr.counters["counting.estimate"] += req.space.field.order ** (
        req.space.n * req.graph.num_vertices)


def _color_classes(tr, args, result):
    tr.counters["splitting.palette_size"] += len(args[1].colors)
    tr.counters["splitting.classes_used"] += result.color_count


def _dumps(tr, args, result):
    tr.counters["serialization.out_bytes"] += len(result.encode())


HOOKS = {
    "linalg.Matrix.kernel_basis": _kernel_basis,
    "linalg.Matrix.rank": _elimination,
    "linalg.Matrix.identity": _identity,
    "linalg.vectors_independent": _independent,
    "variety.singular_certificate": _certificate,
    "counting.count_points": _count,
    "splitting.color_classes": _color_classes,
    "serialization.canonical_dumps": _dumps,
}
