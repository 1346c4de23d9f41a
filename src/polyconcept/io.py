"""Reading and writing contexts and concept lists.

Context files are line oriented and diffable:

    NCTX 1 <arity>
    sizes j1 ... jn
    labels <dim> <l1> ... <lj>     (optional, 1-based dim, default "1".."j")
    mode crosses|holes
    i1 i2 ... in                   (one 1-based tuple per line)

'#' at the start of a line or after whitespace begins a comment (labels may
therefore contain '#', as the direct-sum relabelling does); blank lines are
ignored.  In holes mode the listed tuples are the empty cells and the
relation is their complement.
"""

from __future__ import annotations

import csv
import io as _io
import json
import re
from itertools import product
from typing import Iterable

from .context import ConceptSet, NContext

FORMAT_VERSION = 1

_COMMENT_RE = re.compile(r"(?:^|\s)#")


def _strip_comment(raw: str) -> str:
    match = _COMMENT_RE.search(raw)
    return raw[: match.start()] if match else raw


class ParseError(ValueError):
    """Malformed input; carries the 1-based line number, or None for no one line."""

    def __init__(self, lineno: int | None, message: str):
        super().__init__(message if lineno is None else f"line {lineno}: {message}")
        self.lineno = lineno


def parse_context(text: str) -> NContext:
    """Parse a context file into an NContext."""
    header = None
    sizes = None
    labels: dict[int, tuple[str, ...]] = {}
    mode = None
    tuples: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if parts[0] != "NCTX" or len(parts) != 3:
                raise ParseError(lineno, "expected header 'NCTX <version> <arity>'")
            try:
                version, arity = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(lineno, "header fields must be integers") from None
            if version != FORMAT_VERSION:
                raise ParseError(lineno, f"unsupported format version {version}")
            if arity < 2:
                raise ParseError(lineno, f"arity must be >= 2, got {arity}")
            header = arity
            continue
        if parts[0] == "sizes":
            if sizes is not None:
                raise ParseError(lineno, "duplicate sizes line")
            try:
                sizes = tuple(int(p) for p in parts[1:])
            except ValueError:
                raise ParseError(lineno, "sizes must be integers") from None
            if len(sizes) != header:
                raise ParseError(lineno, f"expected {header} sizes, got {len(sizes)}")
            if any(s < 1 for s in sizes):
                raise ParseError(lineno, "all sizes must be >= 1")
            continue
        if parts[0] == "labels":
            if sizes is None:
                raise ParseError(lineno, "labels before sizes")
            try:
                dim = int(parts[1])
            except (ValueError, IndexError):
                raise ParseError(lineno, "labels needs a 1-based dimension") from None
            if not 1 <= dim <= header:
                raise ParseError(lineno, f"dimension {dim} out of range")
            given = tuple(parts[2:])
            if len(given) != sizes[dim - 1]:
                raise ParseError(
                    lineno, f"dimension {dim} needs {sizes[dim - 1]} labels, got {len(given)}"
                )
            labels[dim - 1] = given
            continue
        if parts[0] == "mode":
            if len(parts) != 2 or parts[1] not in ("crosses", "holes"):
                raise ParseError(lineno, "mode must be 'crosses' or 'holes'")
            mode = parts[1]
            continue
        if mode is None:
            raise ParseError(lineno, f"unexpected line before mode: {line!r}")
        if sizes is None:
            raise ParseError(lineno, "tuples before sizes")
        try:
            t = tuple(int(p) for p in parts)
        except ValueError:
            raise ParseError(lineno, f"malformed tuple line: {line!r}") from None
        if len(t) != header:
            raise ParseError(lineno, f"tuple has arity {len(t)}, expected {header}")
        for d, x in enumerate(t):
            if not 1 <= x <= sizes[d]:
                raise ParseError(lineno, f"index {x} out of range in dimension {d + 1}")
        tuples.append(tuple(x - 1 for x in t))

    if header is None:
        raise ParseError(1, "empty input, expected NCTX header")
    if sizes is None:
        raise ParseError(1, "missing sizes line")
    if mode is None:
        raise ParseError(1, "missing mode line")
    dims = tuple(
        labels.get(d, tuple(str(i + 1) for i in range(sizes[d])))
        for d in range(header)
    )
    listed = frozenset(tuples)
    if mode == "crosses":
        relation = listed
    else:
        everything = frozenset(product(*(range(s) for s in sizes)))
        relation = everything - listed
    return NContext(dims, relation)


def serialize_context(ctx: NContext, mode: str = "crosses") -> str:
    """Render a context file; tuples come out sorted so output is stable."""
    if mode not in ("crosses", "holes"):
        raise ValueError(f"unknown mode {mode!r}")
    out = [f"NCTX {FORMAT_VERSION} {ctx.arity}"]
    out.append("sizes " + " ".join(str(s) for s in ctx.sizes))
    for d, labels in enumerate(ctx.dims):
        out.append(f"labels {d + 1} " + " ".join(labels))
    out.append(f"mode {mode}")
    if mode == "crosses":
        listed = sorted(ctx.relation)
    else:
        everything = set(product(*(range(s) for s in ctx.sizes)))
        listed = sorted(everything - ctx.relation)
    for t in listed:
        out.append(" ".join(str(x + 1) for x in t))
    return "\n".join(out) + "\n"


def serialize_concepts(cs: ConceptSet, fmt: str = "text") -> str:
    """Render a concept set with labels, in canonical order.

    text: one "({..},{..},..)" line per concept.  json: a list of objects
    with a "components" key.  csv: one row per concept, components joined
    with spaces.
    """
    rows = cs.labelled()
    if fmt == "text":
        lines = []
        for comps in rows:
            lines.append("(" + ",".join("{" + ",".join(c) + "}" for c in comps) + ")")
        return "\n".join(lines) + ("\n" if lines else "")
    if fmt == "json":
        return json.dumps(
            [{"components": [list(c) for c in comps]} for comps in rows],
            ensure_ascii=False,
            indent=2,
        ) + "\n"
    if fmt == "csv":
        buf = _io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([f"dim{d + 1}" for d in range(cs.ctx.arity)])
        for comps in rows:
            writer.writerow([" ".join(c) for c in comps])
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


def parse_concepts_json(ctx: NContext, text: str) -> ConceptSet:
    """Read back a json concept dump against its context.

    Raises ParseError unless the dump is a list of objects, each with a
    "components" list of one label list per dimension of ctx.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from None
    if not isinstance(data, list):
        raise ParseError(None, "expected a json list of concepts")
    concepts = []
    for i, entry in enumerate(data, start=1):
        comps = entry.get("components") if isinstance(entry, dict) else None
        if (not isinstance(comps, list) or len(comps) != ctx.arity
                or not all(isinstance(comp, list) for comp in comps)):
            raise ParseError(
                None, f"concept {i} needs a \"components\" list of {ctx.arity} label lists"
            )
        try:
            concepts.append(tuple(
                frozenset(ctx.index_of(d, label) for label in comp)
                for d, comp in enumerate(comps)
            ))
        except ValueError as exc:
            raise ParseError(None, f"concept {i}: {exc}") from None
    return ConceptSet.from_iterable(ctx, concepts)


def context_from_table(dims: Iterable[Iterable[str]],
                       crosses: Iterable[Iterable[str]]) -> NContext:
    """Build a context from labelled cross tuples; a test and demo helper."""
    dim_tuple = tuple(tuple(d) for d in dims)
    lookup = [
        {label: i for i, label in enumerate(labels)} for labels in dim_tuple
    ]
    relation = set()
    for cross in crosses:
        cross = tuple(cross)
        relation.add(tuple(lookup[d][x] for d, x in enumerate(cross)))
    return NContext(dim_tuple, frozenset(relation))
