"""Outside-in layer timing for snckit, with no change to its sources.

``Tracer.install()`` wraps the public functions of the layer modules and a
few methods through which one layer calls another.  Each wrapper records a
span: its duration, minus the part covered by the spans it causes, is the
layer's self time.  Modules call each other through module-global names
(``from .intmat import smith_diagonal``), so installing rebinds every such
name that refers to a wrapped function, in every layer module, and
``uninstall()`` puts the originals back.

A few wrappers also record counts at the same boundary: the size of a
Smith diagonal's input, the bit length of Smith transforms, which
(complex, degree) pairs cohomology was asked for.  The time spent
computing a count is charged to no layer.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from time import perf_counter_ns

LAYERS = ("intmat", "abgroup", "chaincx", "snc", "khasm", "nk", "cli")

# (module, class, attribute, span name) for methods that cross a layer.
METHODS = (
    ("intmat", "IntMatrix", "transpose", "intmat.IntMatrix.transpose"),
    ("intmat", "IntMatrix", "__matmul__", "intmat.IntMatrix.matmul"),
    ("snc", "DualComplex", "chain_complex", "snc.DualComplex.chain_complex"),
)


@dataclass
class SpanStats:
    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0


@dataclass
class Counts:
    """Counts taken at layer boundaries, summed over the traced documents."""

    diag_entries_in: int = 0
    diag_nonzeros_in: int = 0
    snf_from_presentation: int = 0
    max_transform_bits: int = 0
    cohomology_pairs: set = field(default_factory=set)
    cohomology_distinct: int = 0

    def end_document(self) -> None:
        self.cohomology_distinct += len(self.cohomology_pairs)
        self.cohomology_pairs.clear()


def _max_bits(matrices) -> int:
    return max((abs(x).bit_length() for m in matrices for row in m.rows()
                for x in row), default=0)


class Tracer:
    def __init__(self) -> None:
        self.modules = {name: importlib.import_module(f"snckit.{name}")
                        for name in LAYERS}
        self.stats: dict[str, SpanStats] = {}
        self.counts = Counts()
        self._stack: list[list] = []     # [span name, time covered by children]
        self._originals: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}
        for mod_name, mod in self.modules.items():
            for attr, value in vars(mod).items():
                if (callable(value) and not attr.startswith("_")
                        and getattr(value, "__module__", None) == mod.__name__
                        and not isinstance(value, type)):
                    self._wrappers[id(value)] = self._wrap(f"{mod_name}.{attr}", value)
        self._methods = []
        for mod_name, cls_name, attr, span in METHODS:
            cls = getattr(self.modules[mod_name], cls_name)
            self._methods.append((cls, attr, self._wrap(span, vars(cls)[attr])))

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        counts = self.counts
        before = after = None
        if name == "intmat.smith_diagonal":
            def before(a, *_):
                counts.diag_entries_in += a.nrows * a.ncols
                counts.diag_nonzeros_in += sum(1 for row in a.rows() for x in row if x)
        elif name == "intmat.smith_normal_form":
            def before(a, *_):
                if stack and stack[-1][0] == "abgroup.group_from_presentation":
                    counts.snf_from_presentation += 1

            def after(result):
                bits = _max_bits((result.u, result.v))
                if bits > counts.max_transform_bits:
                    counts.max_transform_bits = bits
        elif name == "chaincx.cohomology":
            def before(c, i, *_):
                counts.cohomology_pairs.add((id(c), i))

        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            if before is not None:
                before(*args)
            frame = [name, 0]
            stack.append(frame)
            t1 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = perf_counter_ns()
                stack.pop()
                stats.calls += 1
                stats.total_ns += t2 - t1
                stats.self_ns += t2 - t1 - frame[1]
                # The parent's self time excludes this span and its counting.
                if stack:
                    stack[-1][1] += t2 - t0
            if after is not None:
                t3 = perf_counter_ns()
                after(result)
                if stack:
                    stack[-1][1] += perf_counter_ns() - t3
            return result

        return wrapper

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._originals.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for cls, attr, wrapper in self._methods:
            self._originals.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._originals):
            setattr(owner, attr, value)
        self._originals.clear()

    def snapshot(self) -> dict[str, tuple[int, int, int]]:
        return {name: (s.calls, s.self_ns, s.total_ns) for name, s in self.stats.items()}
