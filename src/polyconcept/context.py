"""Core data model for n-dimensional cross tables and their concepts.

An n-context is a finite n-ary relation between n named dimensions.  An
n-concept is a maximal box full of crosses: an n-tuple of subsets, one per
dimension, whose Cartesian product lies inside the relation and that cannot
be enlarged in any single dimension without breaking that property.

Dimension indices are 0-based throughout the Python API.  File formats and
the command line use 1-based indices and element labels instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import prod
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

Concept = tuple[frozenset[int], ...]
Cell = tuple[int, ...]


class ResourceLimitError(RuntimeError):
    """Raised when an operation would exceed its configured search cap."""


@dataclass(frozen=True)
class NContext:
    """An n-dimensional cross table.

    dims holds one tuple of element labels per dimension; relation is a set
    of index tuples (0-based).  Instances are immutable and hashable, so
    they can safely be shared and used as cache keys.
    """

    dims: tuple[tuple[str, ...], ...]
    relation: frozenset[Cell]

    def __post_init__(self):
        if len(self.dims) < 2:
            raise ValueError(f"arity must be >= 2, got {len(self.dims)}")
        for d, labels in enumerate(self.dims):
            if not labels:
                raise ValueError(f"dimension {d} is empty")
            if len(set(labels)) != len(labels):
                raise ValueError(f"dimension {d} has duplicate labels")
        n = len(self.dims)
        for t in self.relation:
            if len(t) != n:
                raise ValueError(f"tuple {t} has arity {len(t)}, expected {n}")
            for d, x in enumerate(t):
                if not 0 <= x < len(self.dims[d]):
                    raise ValueError(f"tuple {t}: index {x} out of range in dimension {d}")

    @staticmethod
    def build(dims: Sequence[Sequence[str]], relation: Iterable[Sequence[int]]) -> "NContext":
        return NContext(
            tuple(tuple(labels) for labels in dims),
            frozenset(tuple(t) for t in relation),
        )

    @property
    def arity(self) -> int:
        return len(self.dims)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(d) for d in self.dims)

    def cell_count(self) -> int:
        total = 1
        for s in self.sizes:
            total *= s
        return total

    def index_of(self, dim: int, label: str) -> int:
        """Index of ``label`` in the 0-based dimension ``dim``; errors name it 1-based."""
        try:
            return self.dims[dim].index(label)
        except ValueError:
            raise ValueError(f"no element {label!r} in dimension {dim + 1}") from None

    def label_tuple(self, t: Cell) -> tuple[str, ...]:
        return tuple(self.dims[d][x] for d, x in enumerate(t))

    def __repr__(self) -> str:
        return f"NContext(sizes={self.sizes}, crosses={len(self.relation)})"


def contains(ctx: NContext, t: Sequence[int]) -> bool:
    """Whether the index tuple t carries a cross."""
    t = tuple(t)
    if len(t) != ctx.arity:
        raise ValueError(f"tuple arity {len(t)} does not match context arity {ctx.arity}")
    for d, x in enumerate(t):
        if not 0 <= x < len(ctx.dims[d]):
            raise ValueError(f"index {x} out of range in dimension {d}")
    return t in ctx.relation


def _check_candidate(ctx: NContext, c: Sequence[Iterable[int]]) -> tuple[int, ...]:
    """The components of c as element masks, each index checked against ctx."""
    if len(c) != ctx.arity:
        raise ValueError(f"candidate arity {len(c)} does not match context arity {ctx.arity}")
    comps = tuple(frozenset(comp) for comp in c)
    for d, comp in enumerate(comps):
        for x in comp:
            if not 0 <= x < len(ctx.dims[d]):
                raise ValueError(f"index {x} out of range in dimension {d}")
    return tuple(sum(1 << x for x in comp) for comp in comps)


def box_full(ctx: NContext, c: Sequence[Iterable[int]]) -> bool:
    """Whether the product of the given subsets lies entirely in the relation.

    Vacuously true when any component is empty.
    """
    comps = _check_candidate(ctx, c)
    cols = box_columns(element_masks(ctx.sizes), comps)
    return not _meet(cols) & ~relation_mask(ctx)


def is_concept(ctx: NContext, c: Sequence[Iterable[int]]) -> bool:
    """Whether c is a maximal full box of ctx.

    Maximality is checked one dimension at a time: adding any single outside
    element to one component, keeping the others fixed, must break fullness.
    """
    comps = _check_candidate(ctx, c)
    return box_is_concept(relation_mask(ctx), element_masks(ctx.sizes), comps)


def description(ctx: NContext, obj: int) -> frozenset[Cell]:
    """All (n-1)-tuples over dimensions 1..n-1 crossed with the given object."""
    if not 0 <= obj < len(ctx.dims[0]):
        raise ValueError(f"object index {obj} out of range")
    return frozenset(t[1:] for t in ctx.relation if t[0] == obj)


def quasi_leq(i: int, a: Concept, b: Concept) -> bool:
    """The i-th quasi-order: component inclusion in dimension i."""
    return a[i] <= b[i]


def features(concepts: Iterable[Concept]) -> frozenset[tuple[frozenset[int], ...]]:
    """Projections of concepts onto their last n-1 components, deduplicated."""
    return frozenset(c[1:] for c in concepts)


def feature_cells(feat: Sequence[frozenset[int]]) -> frozenset[Cell]:
    """Cell set of a feature box; empty whenever a component is empty."""
    if any(not comp for comp in feat):
        return frozenset()
    return frozenset(product(*(sorted(comp) for comp in feat)))


@dataclass
class NOrderReport:
    """Outcome of checking the two n-ordered-set axioms over a concept set."""

    ok: bool
    violations: list[str] = field(default_factory=list)


def check_n_ordered(cs: "ConceptSet") -> NOrderReport:
    """Verify antiordinal dependency and the uniqueness condition.

    Antiordinal dependency: if a is below b in every quasi-order except the
    j-th, it must be above b in the j-th.  Uniqueness: concepts equal in all
    components are identical.  All pairs are checked; the report carries the
    violations found.
    """
    concepts = list(cs.concepts)
    n = cs.ctx.arity
    violations: list[str] = []
    for ai, a in enumerate(concepts):
        for b in concepts[ai + 1:]:
            if all(a[i] == b[i] for i in range(n)) and a != b:
                violations.append(f"uniqueness: {a} vs {b}")
            for j in range(n):
                if all(quasi_leq(i, a, b) for i in range(n) if i != j):
                    if not quasi_leq(j, b, a):
                        violations.append(f"antiordinal: {a} vs {b} at dimension {j}")
                if all(quasi_leq(i, b, a) for i in range(n) if i != j):
                    if not quasi_leq(j, a, b):
                        violations.append(f"antiordinal: {b} vs {a} at dimension {j}")
    return NOrderReport(ok=not violations, violations=violations)


def concept_sort_key(ctx: NContext, c: Concept):
    """Canonical order: lexicographic on the component bit strings."""
    return tuple(
        tuple(1 if x in comp else 0 for x in range(len(ctx.dims[d])))
        for d, comp in enumerate(c)
    )


@dataclass(frozen=True)
class ConceptSet:
    """The concepts of one context, kept in canonical order."""

    ctx: NContext
    concepts: tuple[Concept, ...]

    @staticmethod
    def from_iterable(ctx: NContext, concepts: Iterable[Concept]) -> "ConceptSet":
        unique = set(concepts)
        ordered = sorted(unique, key=lambda c: concept_sort_key(ctx, c))
        return ConceptSet(ctx, tuple(ordered))

    def __len__(self) -> int:
        return len(self.concepts)

    def __iter__(self) -> Iterator[Concept]:
        return iter(self.concepts)

    def __contains__(self, c) -> bool:
        return tuple(frozenset(comp) for comp in c) in set(self.concepts)

    def features(self) -> frozenset[tuple[frozenset[int], ...]]:
        return features(self.concepts)

    def labelled(self) -> list[tuple[tuple[str, ...], ...]]:
        """Concepts with element labels instead of indices, sorted per component."""
        out = []
        for c in self.concepts:
            out.append(tuple(
                tuple(self.ctx.dims[d][x] for x in sorted(comp))
                for d, comp in enumerate(c)
            ))
        return out


def to_dense(ctx: NContext) -> np.ndarray:
    """The relation as a boolean tensor of shape ctx.sizes."""
    arr = np.zeros(ctx.sizes, dtype=bool)
    for t in ctx.relation:
        arr[t] = True
    return arr


def from_dense(arr: np.ndarray, dims: Sequence[Sequence[str]] | None = None) -> NContext:
    """Build a context from a boolean tensor; labels default to "1".."j"."""
    arr = np.asarray(arr, dtype=bool)
    if arr.ndim < 2:
        raise ValueError(f"need at least 2 dimensions, got {arr.ndim}")
    if dims is None:
        dims = [tuple(str(i + 1) for i in range(s)) for s in arr.shape]
    relation = frozenset(tuple(int(x) for x in t) for t in zip(*np.nonzero(arr)))
    return NContext.build(dims, relation)


# ---------------------------------------------------------------------------
# Integer-mask kernel
#
# A relation over sizes (j1, ..., jn) is one int over its cells in row-major
# order: cell (x1, ..., xn) is bit x1*w1 + ... + xn*wn for the strides w.  A
# subset of one dimension is an int with bit x set for element x.  Row x of a
# relation is the mask, over the cells of dimensions 2..n, of the cells whose
# first coordinate is x: the row of object x in the objects-vs-rest
# flattening.  Rows and masks are built per call; nothing is cached.


def _strides(sizes: Sequence[int]) -> list[int]:
    return [prod(sizes[d + 1:]) for d in range(len(sizes))]


def relation_mask(ctx: NContext) -> int:
    """The relation of ctx as a row-major cell mask."""
    strides = _strides(ctx.sizes)
    rel = 0
    for t in ctx.relation:
        rel |= 1 << sum(x * w for x, w in zip(t, strides))
    return rel


def element_masks(sizes: Sequence[int]) -> list[list[int]]:
    """masks[d][x]: the cells whose coordinate in dimension d is x."""
    total = prod(sizes)
    out = []
    for j, w in zip(sizes, _strides(sizes)):
        first = ((1 << w) - 1) * sum(1 << k for k in range(0, total, j * w))
        out.append([first << (x * w) for x in range(j)])
    return out


def members(mask: int) -> frozenset[int]:
    """The elements of a subset mask."""
    return frozenset(x for x in range(mask.bit_length()) if mask >> x & 1)


def box_columns(elems: list[list[int]], comps: Sequence[int]) -> list[int]:
    """Per dimension, the cells whose coordinate lies in that component."""
    cols = []
    for masks, comp in zip(elems, comps):
        col = 0
        for x, m in enumerate(masks):
            if comp >> x & 1:
                col |= m
        cols.append(col)
    return cols


def _meet(cols: Iterable[int]) -> int:
    box = -1
    for col in cols:
        box &= col
    return box


def box_is_concept(rel: int, elems: list[list[int]], comps: Sequence[int]) -> bool:
    """Whether the box with component masks comps is full in rel and maximal.

    Maximal: adding one outside element to one component, the others kept,
    puts a cell outside rel.
    """
    cols = box_columns(elems, comps)
    if _meet(cols) & ~rel:
        return False
    for d, comp in enumerate(comps):
        others = _meet(cols[:d] + cols[d + 1:])
        for x, m in enumerate(elems[d]):
            if not comp >> x & 1 and not others & m & ~rel:
                return False
    return True


def split_rows(rel: int, count: int, width: int) -> list[int]:
    """The count rows of width cells each that make up rel."""
    full = (1 << width) - 1
    return [rel >> (x * width) & full for x in range(count)]


def object_rows(ctx: NContext) -> list[int]:
    """The rows of ctx, one per object."""
    return split_rows(relation_mask(ctx), ctx.sizes[0], ctx.cell_count() // ctx.sizes[0])


def extent(rows: Sequence[int], y: int) -> int:
    """Mask of the rows that contain every cell of y."""
    a = 0
    for x, row in enumerate(rows):
        if row & y == y:
            a |= 1 << x
    return a


def intent(rows: Sequence[int], a: int, full: int) -> int:
    """The cells every row in the mask a contains; full when a is empty."""
    y = full
    for x, row in enumerate(rows):
        if a >> x & 1:
            y &= row
    return y


def closure(rows: Sequence[int], y: int, full: int) -> int:
    """Dyadic closure of the cell set y: the cells shared by all rows holding y."""
    return intent(rows, extent(rows, y), full)


def next_closures(m: int, close: Callable[[int], int]) -> Iterator[int]:
    """Every set over m bits that close fixes, in lectic order (NextClosure).

    Bit 0 is the most significant.  close is called afresh at each step, so
    it may depend on what the caller did with the sets yielded so far, as
    the Duquenne-Guigues base needs.
    """
    a = close(0)
    while True:
        yield a
        cur = a
        for i in range(m - 1, -1, -1):
            bit = 1 << i
            if cur & bit:
                cur &= ~bit
                continue
            b = close(cur | bit)
            if (b & ~cur) & (bit - 1) == 0:
                a = b
                break
        else:
            return
