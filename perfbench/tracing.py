"""Spans around the calls into polyconcept's layers, recorded from outside.

Each hook replaces a public function at the module where the library looks
it up, so the span covers exactly the calls the library makes through that
name.  A span is [name, start, end, parent, job, extra]: parent is the index
of the enclosing span (-1 for none) and extra a count taken from the call,
such as concepts returned or bytes written.  Spans stay in memory until the
run ends.  A hook whose target no longer exists is recorded as absent, and
its layer's metrics read 0.
"""

from __future__ import annotations

import importlib
import json
import math
from time import perf_counter


def _concepts(args, result):
    return result if isinstance(result, int) else len(result)


def _bytes(args, result):
    return len(result.encode("utf-8"))


def _candidates(args, result):
    return math.prod(2 ** j for j in args[0].sizes)


def _orbits(args, result):
    return result.examined


# (module, attribute, span name, extra)
HOOKS = [
    ("polyconcept.cli", "count_concepts", "enumeration.count", _concepts),
    ("polyconcept.cli", "enumerate_concepts", "enumeration.enumerate", _concepts),
    ("polyconcept.implications", "enumerate_concepts", "implications.enumerate", _concepts),
    ("polyconcept.enumeration", "slice_dim", "transforms.slice_dim", None),
    ("polyconcept.enumeration", "context_bits", "context.bits", None),
    ("polyconcept.context", "ConceptSet.from_iterable", "context.sort", None),
    ("polyconcept.transforms", "flatten", "transforms.flatten", None),
    ("polyconcept.cli", "parse_context", "io.parse", None),
    ("polyconcept.cli", "serialize_concepts", "io.serialize", _bytes),
    ("polyconcept.cli", "serialize_context", "io.serialize", _bytes),
    ("polyconcept.cli", "exhaustive_max_concepts", "bounds.search", _orbits),
    ("polyconcept.bounds", "brute_force_concepts", "enumeration.brute_force", _candidates),
    ("polyconcept.cli", "classify", "implications.classify", None),
    ("polyconcept.cli", "canonical_context", "implications.canonical_context", None),
    ("polyconcept.implications", "canonical_context", "implications.canonical_context", None),
    ("polyconcept.cli", "holds", "implications.holds", None),
    ("polyconcept.implications", "holds", "implications.holds", None),
]

ENUMERATION_SPANS = ("enumeration.count", "enumeration.enumerate", "implications.enumerate")

# (metric, unit); the order is the order of BENCHMARK.json's per_layer list.
LAYER_METRICS = [
    ("enumeration.calls", "count"),
    ("enumeration.self_s", "s"),
    ("enumeration.concepts", "count"),
    ("enumeration.concepts_per_slice", "ratio"),
    ("transforms.slice_dim.calls", "count"),
    ("transforms.slice_dim.s", "s"),
    ("transforms.flatten.calls", "count"),
    ("transforms.flatten.s", "s"),
    ("context.bits.builds", "count"),
    ("context.bits.hits", "count"),
    ("context.bits.s", "s"),
    ("context.sort.calls", "count"),
    ("context.sort.s", "s"),
    ("io.parse.calls", "count"),
    ("io.parse.s", "s"),
    ("io.serialize.calls", "count"),
    ("io.serialize.s", "s"),
    ("io.serialize.bytes", "B"),
    ("bounds.search.calls", "count"),
    ("bounds.search.self_s", "s"),
    ("bounds.orbits", "count"),
    ("enumeration.brute_force.calls", "count"),
    ("enumeration.brute_force.s", "s"),
    ("enumeration.brute_force.candidates", "count"),
    ("implications.classify.calls", "count"),
    ("implications.classify.self_s", "s"),
    ("implications.canonical_context.calls", "count"),
    ("implications.canonical_context.s", "s"),
    ("implications.enumerate.calls", "count"),
    ("implications.holds.calls", "count"),
    ("implications.holds.s", "s"),
    ("cli.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.absent_hooks", "count"),
    ("trace.overhead_frac", "ratio"),
]


def _resolve(module_name: str, attr: str):
    """(owner object, attribute name), or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, name, None)):
        return None
    return owner, name


def _bits_cache():
    """context_bits when it is an lru_cache, else None."""
    try:
        from polyconcept.context import context_bits
    except ImportError:
        return None
    return context_bits if hasattr(context_bits, "cache_info") else None


def bits_cache_info():
    """context_bits' cache statistics, or None when it has no cache."""
    cache = _bits_cache()
    return cache.cache_info() if cache else None


def clear_bits_cache():
    """Start a pass from an empty bit-view cache, when there is one."""
    cache = _bits_cache()
    if cache:
        cache.cache_clear()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.absent: list[str] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, extra=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if extra is not None:
                rec[5] = extra(args, result)
            return result

        return traced

    def install(self):
        for module_name, attr, name, extra in HOOKS:
            target = _resolve(module_name, attr)
            if target is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            owner, key = target
            raw = vars(owner).get(key)
            traced = self.wrap(name, getattr(owner, key), extra)
            setattr(owner, key, staticmethod(traced) if isinstance(raw, staticmethod) else traced)
            self._undo.append((owner, key, raw))

    def uninstall(self):
        for owner, key, raw in reversed(self._undo):
            setattr(owner, key, raw)
        self._undo.clear()

    def dump(self, path: str, header: dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "absent": self.absent, "spans": self.spans}, fh)

    def layer_metrics(self, bits_before, bits_after, overhead: float) -> dict[str, float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start

        def pick(*names):
            return [i for i, s in enumerate(spans) if s[0] in names]

        def total(ids):
            return sum(spans[i][2] - spans[i][1] for i in ids)

        def self_time(ids):
            return sum(spans[i][2] - spans[i][1] - child[i] for i in ids)

        def extra(ids):
            return sum(spans[i][5] for i in ids)

        enum, slices = pick(*ENUMERATION_SPANS), pick("transforms.slice_dim")
        flat, bits, sort = pick("transforms.flatten"), pick("context.bits"), pick("context.sort")
        parse, ser = pick("io.parse"), pick("io.serialize")
        search, brute = pick("bounds.search"), pick("enumeration.brute_force")
        classify, canon = pick("implications.classify"), pick("implications.canonical_context")
        holds, jobs = pick("implications.holds"), pick("cli.main")
        builds = hits = 0
        if bits_before is not None and bits_after is not None:
            builds = bits_after.misses - bits_before.misses
            hits = bits_after.hits - bits_before.hits
        concepts = extra(enum)
        values = {
            "enumeration.calls": len(enum),
            "enumeration.self_s": self_time(enum),
            "enumeration.concepts": concepts,
            "enumeration.concepts_per_slice": concepts / len(slices) if slices else 0.0,
            "transforms.slice_dim.calls": len(slices),
            "transforms.slice_dim.s": total(slices),
            "transforms.flatten.calls": len(flat),
            "transforms.flatten.s": total(flat),
            "context.bits.builds": builds,
            "context.bits.hits": hits,
            "context.bits.s": total(bits),
            "context.sort.calls": len(sort),
            "context.sort.s": total(sort),
            "io.parse.calls": len(parse),
            "io.parse.s": total(parse),
            "io.serialize.calls": len(ser),
            "io.serialize.s": total(ser),
            "io.serialize.bytes": extra(ser),
            "bounds.search.calls": len(search),
            "bounds.search.self_s": self_time(search),
            "bounds.orbits": extra(search),
            "enumeration.brute_force.calls": len(brute),
            "enumeration.brute_force.s": total(brute),
            "enumeration.brute_force.candidates": extra(brute),
            "implications.classify.calls": len(classify),
            "implications.classify.self_s": self_time(classify),
            "implications.canonical_context.calls": len(canon),
            "implications.canonical_context.s": total(canon),
            "implications.enumerate.calls": len(pick("implications.enumerate")),
            "implications.holds.calls": len(holds),
            "implications.holds.s": total(holds),
            "cli.self_s": self_time(jobs),
            "trace.spans": len(spans),
            "trace.absent_hooks": len(self.absent),
            "trace.overhead_frac": overhead,
        }
        return values
