"""Outside-in tracer for braidrook.

It wraps public functions of the package's modules in place, so nothing
under src/ changes. Every module that imported a function by name holds its
own binding (``tensor`` does ``from .linalg import commutant``), so a
function is replaced wherever a loaded ``braidrook`` module binds it, not
only in the module that defines it. Methods are replaced on their class.

Spans (name, start, end, parent) and call counts are kept in memory. A probe
whose function no longer exists is recorded as absent and its metrics are
left out of the result instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Probe:
    module: str  # braidrook submodule that defines the function
    attr: str  # function name, or Class.method
    stem: str  # metric name prefix
    timed: bool  # record a span per call; calls are always counted
    after: Callable | None = None  # after(tracer, args, result)


def _count_accepted(tracer, args, result):
    if result is not None:
        tracer.counts["linalg.VectorSpan.add.accepted"] += 1


def _count_certified(tracer, args, result):
    if result is not None:
        tracer.counts["modlinalg.certified_nullspace.ok"] += 1


PROBES = (
    Probe("tensor", "centralizer_of_braid", "tensor.centralizer_of_braid", True),
    Probe("tensor", "rook_image", "tensor.rook_image", True),
    Probe("tensor", "enveloping_braid", "tensor.enveloping_braid", True),
    Probe("tensor", "diagram_op", "tensor.diagram_op", True),
    Probe("linalg", "commutant", "linalg.commutant", True),
    Probe("linalg", "nullspace_of_rows", "linalg.nullspace_of_rows", False),
    Probe("linalg", "rref", "linalg.rref", True),
    Probe("linalg", "span_closure", "linalg.span_closure", True),
    Probe("linalg", "spans_equal", "linalg.spans_equal", True),
    Probe("linalg", "VectorSpan.add", "linalg.VectorSpan.add", False, _count_accepted),
    Probe("linalg", "det", "linalg.det", True),
    Probe("_modlinalg", "certified_nullspace", "modlinalg.certified_nullspace", True, _count_certified),
    Probe("_modlinalg", "_rref_mod", "modlinalg.rref_mod", True),
    Probe("_modlinalg", "_verify", "modlinalg.verify", True),
    Probe("matrix", "Matrix._matmul", "matrix.matmul", True),
    Probe("matrix", "kron", "matrix.kron", False),
    Probe("diagrams", "PartialPermutation.compose", "diagrams.compose", False),
    Probe("cellular", "semisimplicity_certificate", "cellular.semisimplicity_certificate", True),
    Probe("lieclosure", "bracket_closure", "lieclosure.bracket_closure", True),
    Probe("lieclosure", "commutator", "lieclosure.commutator", False),
)

# The three probes that tell which nullspace path ran. They fire a handful
# of times per verdict, so untraced runs keep them on.
PATH_STEMS = ("linalg.nullspace_of_rows", "modlinalg.certified_nullspace", "modlinalg.rref_mod")
PATH_PROBES = tuple(p for p in PROBES if p.stem in PATH_STEMS)

ROOT_SPAN = "verdict"

# The per-layer metrics a traced run reports, with their units.
LAYER_METRICS = {
    "tensor.centralizer_of_braid.s": "s",
    "tensor.rook_image.s": "s",
    "tensor.enveloping_braid.s": "s",
    "tensor.diagram_op.calls": "count",
    "tensor.diagram_op.s": "s",
    "linalg.commutant.s": "s",
    "linalg.nullspace_of_rows.rows": "count",
    "linalg.nullspace_of_rows.cols": "count",
    "linalg.nullspace.exact_calls": "count",
    "linalg.nullspace.modular_calls": "count",
    "linalg.nullspace.fallbacks": "count",
    "linalg.rref.s": "s",
    "linalg.span_closure.s": "s",
    "linalg.spans_equal.s": "s",
    "linalg.VectorSpan.add.calls": "count",
    "linalg.VectorSpan.add.accepted": "count",
    "linalg.VectorSpan.add.accept_ratio": "ratio",
    "linalg.det.s": "s",
    "modlinalg.certified_nullspace.s": "s",
    "modlinalg.primes_tried": "count",
    "modlinalg.rref_mod.s": "s",
    "modlinalg.verify.s": "s",
    "matrix.matmul.calls": "count",
    "matrix.matmul.s": "s",
    "matrix.kron.calls": "count",
    "diagrams.compose.calls": "count",
    "cellular.semisimplicity_certificate.s": "s",
    "cellular.gram_build.s": "s",
    "lieclosure.bracket_closure.s": "s",
    "lieclosure.commutator.calls": "count",
    "trace.verdict_s": "s",
}


class Tracer:
    """Installs probes on the loaded braidrook modules; ``uninstall``
    restores every original binding."""

    def __init__(self, probes=PROBES):
        self.probes = probes
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.nullspace: list[dict] = []  # one entry per nullspace_of_rows call
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        for probe in self.probes:
            owner, name, original = self._resolve(probe)
            if original is None:
                self.absent.append(probe.stem)
                continue
            wrapper = self._wrap(probe, original)
            if owner is not None:
                self._replace(owner, name, wrapper)
                continue
            loaded = [m for key, m in sys.modules.items() if key.partition(".")[0] == "braidrook"]
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @staticmethod
    def _resolve(probe: Probe):
        """(class or None, attribute name, original function or None)."""
        try:
            module = importlib.import_module(f"braidrook.{probe.module}")
        except ImportError:
            return None, probe.attr, None
        if "." in probe.attr:
            cls_name, meth = probe.attr.split(".")
            cls = getattr(module, cls_name, None)
            return cls, meth, vars(cls).get(meth) if cls is not None else None
        return None, probe.attr, getattr(module, probe.attr, None)

    def _replace(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, probe: Probe, original):
        counts = self.counts
        calls_key = f"{probe.stem}.calls"
        if probe.stem == "linalg.nullspace_of_rows":
            return functools.wraps(original)(self._nullspace_wrapper(original))

        if not probe.timed and probe.after is None:
            @functools.wraps(original)
            def counted(*args, **kwargs):
                counts[calls_key] += 1
                return original(*args, **kwargs)

            return counted

        after = probe.after
        timed = probe.timed
        stem = probe.stem

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            if timed:
                with self.span(stem):
                    result = original(*args, **kwargs)
            else:
                result = original(*args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _nullspace_wrapper(self, original):
        counts = self.counts

        def wrapper(rows, ncols, *args, **kwargs):
            counts["linalg.nullspace_of_rows.calls"] += 1
            tried = counts["modlinalg.certified_nullspace.calls"]
            ok = counts["modlinalg.certified_nullspace.ok"]
            primes = counts["modlinalg.rref_mod.calls"]
            result = original(rows, ncols, *args, **kwargs)
            if counts["modlinalg.certified_nullspace.calls"] == tried:
                path = "exact"
            elif counts["modlinalg.certified_nullspace.ok"] > ok:
                path = "modular"
            else:
                path = "fallback"
            self.nullspace.append(
                {
                    "rows": len(rows),
                    "cols": ncols,
                    "path": path,
                    "primes": counts["modlinalg.rref_mod.calls"] - primes,
                }
            )
            return result

        return wrapper

    # -- spans -----------------------------------------------------------------

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def totals(self) -> Counter:
        """Wall seconds per span name, counting a span nested in another of
        the same name once. Keys (name, ancestor) hold the part of name's
        time spent inside a span called ancestor."""
        out: Counter = Counter()
        ancestors: list[frozenset] = []
        for name, start, end, parent in self.spans:
            anc = frozenset() if parent is None else ancestors[parent] | {self.spans[parent][0]}
            ancestors.append(anc)
            if end is None or name in anc:
                continue
            out[name] += end - start
            for outer in anc:
                out[(name, outer)] += end - start
        return out

    def dump_spans(self) -> list[list]:
        """Spans as [name, start offset s, duration s, parent index]."""
        if not self.spans:
            return []
        origin = self.spans[0][1]
        return [[n, s - origin, (e or s) - s, p] for n, s, e, p in self.spans]

    # -- metrics ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far; metrics that
        rest on an absent probe are left out."""
        c = self.counts
        totals = self.totals()
        out: dict[str, float] = {}
        for probe in self.probes:
            if probe.stem in self.absent:
                continue
            out[f"{probe.stem}.calls"] = c[f"{probe.stem}.calls"]
            if probe.timed:
                out[f"{probe.stem}.s"] = totals[probe.stem]
        present = {p.stem for p in self.probes} - set(self.absent)
        if "linalg.nullspace_of_rows" in present:
            paths = Counter(entry["path"] for entry in self.nullspace)
            out["linalg.nullspace_of_rows.rows"] = max((e["rows"] for e in self.nullspace), default=0)
            out["linalg.nullspace_of_rows.cols"] = max((e["cols"] for e in self.nullspace), default=0)
            out["linalg.nullspace.exact_calls"] = paths["exact"]
            out["linalg.nullspace.modular_calls"] = paths["modular"]
            out["linalg.nullspace.fallbacks"] = paths["fallback"]
        if "linalg.VectorSpan.add" in present:
            calls = c["linalg.VectorSpan.add.calls"]
            accepted = c["linalg.VectorSpan.add.accepted"]
            out["linalg.VectorSpan.add.accepted"] = accepted
            out["linalg.VectorSpan.add.accept_ratio"] = accepted / calls if calls else 0.0
        if "modlinalg.rref_mod" in present:
            out["modlinalg.primes_tried"] = c["modlinalg.rref_mod.calls"]
        cert = "cellular.semisimplicity_certificate"
        if {cert, "linalg.det"} <= present:
            out["cellular.gram_build.s"] = totals[cert] - totals[("linalg.det", cert)]
        if ROOT_SPAN in totals:
            out["trace.verdict_s"] = totals[ROOT_SPAN]
        return out


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, t._stack[-1] if t._stack else None])
        t._stack.append(self.index)

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t._stack.pop()
