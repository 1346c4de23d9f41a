"""Implications over flattened and sliced contexts.

Implications live in a 2-context obtained from an n-context by slicing and
flattening.  Beyond plain validity, implications over the objects-vs-rest
flattening are classified: structural implications are the ones forced by
the feature set of the concept lattice (they survive any redistribution of
features across objects), while contextual implications hold in the given
context only because of how its objects happen to bundle features.

The classifier works through the canonical context: the class member whose
objects are exactly the forced-cohabitation classes of features.  Premises
supported there entail precisely their canonical closure; premises no
canonical object supports owe their consequences to object bundling, which
is the contextual case.  Premises unsupported in the original context hold
vacuously and are treated as structural, mirroring the convention that an
unsupported box implies everything.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .context import (
    NContext,
    ResourceLimitError,
    closure,
    extent,
    feature_cells,
    next_closures,
    object_rows,
)
from .enumeration import enumerate_concepts
from .transforms import objects_vs_rest

Cell = tuple[str, ...]

DG_ATTRIBUTE_CAP = 20


class Classification(Enum):
    STRUCTURAL = "structural"
    CONTEXTUAL = "contextual"
    NOT_HOLDING = "not-holding"


@dataclass(frozen=True)
class Implication:
    """Premise and conclusion cell sets over the attribute side of a 2-context.

    Cells are label tuples; a singleton tuple addresses a plain attribute.
    scope is a human-readable note of the transformation recipe the
    implication is stated over.
    """

    premise: frozenset[Cell]
    conclusion: frozenset[Cell]
    scope: str = "objects-vs-rest"

    @staticmethod
    def make(premise: Iterable[Sequence[str]], conclusion: Iterable[Sequence[str]],
             scope: str = "objects-vs-rest") -> "Implication":
        return Implication(
            frozenset(tuple(c) for c in premise),
            frozenset(tuple(c) for c in conclusion),
            scope,
        )

    def __str__(self) -> str:
        def side(cells: frozenset[Cell]) -> str:
            return ",".join(_cell_label(c) for c in sorted(cells))
        return f"{side(self.premise)} -> {side(self.conclusion)}"


def _cell_label(cell: Cell) -> str:
    if len(cell) == 1:
        return cell[0]
    return "(" + ",".join(cell) + ")"


def _attr_mask(ctx2: NContext, cells: Iterable[Cell]) -> int:
    lookup = {label: i for i, label in enumerate(ctx2.dims[1])}
    mask = 0
    for cell in cells:
        label = _cell_label(tuple(cell))
        if label not in lookup:
            raise ValueError(f"cell {label!r} is not an attribute of this context")
        mask |= 1 << lookup[label]
    return mask


def _closure_mask(ctx2: NContext, x: int) -> int:
    return closure(object_rows(ctx2), x, (1 << len(ctx2.dims[1])) - 1)


def closure2(ctx2: NContext, attrs: Iterable[str]) -> frozenset[str]:
    """Dyadic closure: attributes shared by every object containing attrs.

    When no object contains attrs the closure is the full attribute set.
    """
    if ctx2.arity != 2:
        raise ValueError("closure2 needs a 2-context")
    lookup = {label: i for i, label in enumerate(ctx2.dims[1])}
    x = 0
    for a in attrs:
        if a not in lookup:
            raise ValueError(f"unknown attribute {a!r}")
        x |= 1 << lookup[a]
    closed = _closure_mask(ctx2, x)
    return frozenset(ctx2.dims[1][i] for i in range(len(ctx2.dims[1])) if closed >> i & 1)


def holds(ctx2: NContext, imp: Implication) -> bool:
    """Whether the implication is valid in the 2-context."""
    premise = _attr_mask(ctx2, imp.premise)
    conclusion = _attr_mask(ctx2, imp.conclusion)
    return not conclusion & ~_closure_mask(ctx2, premise)


def implication_support(ctx2: NContext, imp: Implication) -> frozenset[str]:
    """Labels of the objects whose row contains the whole premise."""
    support = extent(object_rows(ctx2), _attr_mask(ctx2, imp.premise))
    return frozenset(label for o, label in enumerate(ctx2.dims[0]) if support >> o & 1)


# ---------------------------------------------------------------------------
# Duquenne-Guigues base


def dg_base(ctx2: NContext, cap: int = DG_ATTRIBUTE_CAP) -> list[Implication]:
    """The Duquenne-Guigues implication base of a 2-context.

    Premises are the pseudo-intents in lectic order; every valid implication
    follows from the base by Armstrong closure and no smaller complete set
    exists.  Refuses attribute sets larger than cap.
    """
    if ctx2.arity != 2:
        raise ValueError("dg_base needs a 2-context")
    m = len(ctx2.dims[1])
    if m > cap:
        raise ResourceLimitError(f"{m} attributes exceed the cap of {cap}")
    rows = object_rows(ctx2)
    base: list[tuple[int, int]] = []

    def star(x: int) -> int:
        changed = True
        while changed:
            changed = False
            for p, c in base:
                if p & ~x == 0 and p != x and c & ~x:
                    x |= c
                    changed = True
        return x

    for a in next_closures(m, star):
        closed = closure(rows, a, (1 << m) - 1)
        if closed != a:
            base.append((a, closed))

    labels = ctx2.dims[1]

    def to_cells(mask: int) -> frozenset[Cell]:
        return frozenset((labels[i],) for i in range(m) if mask >> i & 1)

    return [
        Implication(to_cells(p), to_cells(c), scope="dyadic")
        for p, c in base
    ]


# ---------------------------------------------------------------------------
# Canonical context and structural entailment


def _feature_extents(ctx: NContext) -> dict[tuple[frozenset[int], ...], frozenset[int]]:
    """Feature of each concept mapped to its extent (the map is one-to-one)."""
    out = {}
    for c in enumerate_concepts(ctx):
        out[c[1:]] = c[0]
    return out


def _assemble(ctx: NContext, descriptions: list[tuple[tuple[int, ...], ...]],
              empty_objects: int) -> NContext:
    count = len(descriptions) + empty_objects
    labels = tuple(f"o{i + 1}" for i in range(count))
    relation = set()
    for o, desc in enumerate(descriptions):
        for cell in desc:
            relation.add((o,) + cell)
    return NContext((labels,) + ctx.dims[1:], frozenset(relation))


def canonical_context(ctx: NContext) -> NContext:
    """The class representative that minimises supported contextual implications.

    Features whose cell sets intersect outside the family of feature cell
    sets must share objects in every context with this feature set, or the
    intersection box would become a feature of its own; the transitive
    closure of that relation partitions the realised features into
    cohabitation classes.  The output has one object per class, described by
    the union of the class's boxes.  An object with an empty row is appended
    only when the class objects alone would let a full hyperplane creep in
    and erase a degenerate feature of the input.

    Feature preservation is exact on sparse contexts such as the bundled
    reference pairs; on dense contexts a class union can support a feature
    that none of its members contains, which may erode maximality.  No
    general preservation proof is known for this construction.
    """
    feat_extents = _feature_extents(ctx)
    input_features = frozenset(feat_extents)
    cellsets = {feature_cells(f) for f in feat_extents}
    nodes = [
        f for f, extent in feat_extents.items()
        if extent and feature_cells(f)
    ]
    parent = list(range(len(nodes)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    cells = [feature_cells(f) for f in nodes]
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if cells[i] & cells[j] not in cellsets:
                union(i, j)

    groups: dict[int, set[tuple[int, ...]]] = {}
    for i in range(len(nodes)):
        groups.setdefault(find(i), set()).update(cells[i])

    descriptions = sorted(tuple(sorted(g)) for g in groups.values() if g)
    if not descriptions:
        return _assemble(ctx, [], 1)
    candidate = _assemble(ctx, descriptions, 0)
    if frozenset(_feature_extents(candidate)) != input_features:
        padded = _assemble(ctx, descriptions, 1)
        if frozenset(_feature_extents(padded)) == input_features:
            return padded
    return candidate


def _cells_to_attrs(ctx: NContext, cells: Iterable[Sequence[str]]) -> frozenset[str]:
    dims = ctx.dims[1:]
    out = set()
    for cell in cells:
        cell = tuple(cell)
        if len(cell) != len(dims):
            raise ValueError(f"cell {cell} has arity {len(cell)}, expected {len(dims)}")
        for d, label in enumerate(cell):
            if label not in dims[d]:
                raise ValueError(f"no element {label!r} in dimension {d + 1}")
        out.add(_cell_label(cell))
    return frozenset(out)


def _attrs_to_cells(attrs: Iterable[str], arity_rest: int) -> frozenset[Cell]:
    out = set()
    for a in attrs:
        if arity_rest == 1:
            out.add((a,))
        else:
            out.add(tuple(a.strip("()").split(",")))
    return frozenset(out)


def struct_closure(ctx: NContext, cells: Iterable[Sequence[str]]) -> frozenset[Cell]:
    """Cells forced by the feature set of ctx from the given cells.

    Computed as the dyadic closure in the flattened canonical context, so it
    is a genuine closure operator: extensive, monotone and idempotent.  A
    cell set no canonical object supports closes to the full cell space.
    """
    attrs = _cells_to_attrs(ctx, cells)
    can2 = objects_vs_rest(canonical_context(ctx))
    closed = closure2(can2, attrs)
    return _attrs_to_cells(closed, ctx.arity - 1)


def classify(ctx: NContext, imp: Implication) -> Classification:
    """Classify an implication stated over the objects-vs-rest flattening.

    not-holding when the dyadic closure misses the conclusion.  Premises
    without support hold vacuously and are structural.  Otherwise the
    implication is structural exactly when some canonical-context object
    supports the premise and the shared cells of those objects cover the
    conclusion; anything else the implication says reflects object bundling,
    so it is contextual.
    """
    ctx2 = objects_vs_rest(ctx)
    if not holds(ctx2, imp):
        return Classification.NOT_HOLDING
    if not implication_support(ctx2, imp):
        return Classification.STRUCTURAL
    can2 = objects_vs_rest(canonical_context(ctx))
    if not implication_support(can2, imp):
        return Classification.CONTEXTUAL
    if holds(can2, imp):
        return Classification.STRUCTURAL
    return Classification.CONTEXTUAL


def lattice_equivalent(c1: NContext, c2: NContext) -> bool:
    """Whether two contexts produce the same concept features.

    Requires identical feature dimensions; the object dimensions may differ.
    """
    if c1.dims[1:] != c2.dims[1:]:
        raise ValueError("contexts differ on dimensions 2..n")
    f1 = frozenset(_feature_extents(c1))
    f2 = frozenset(_feature_extents(c2))
    return f1 == f2


# ---------------------------------------------------------------------------
# Implication text syntax

_CELL_RE = re.compile(r"\(([^()]*)\)|([^,()\s]+)")


def _parse_side(text: str) -> frozenset[Cell]:
    cells = set()
    for match in _CELL_RE.finditer(text):
        grouped, bare = match.groups()
        if grouped is not None:
            cells.add(tuple(part.strip() for part in grouped.split(",")))
        else:
            cells.add((bare,))
    return frozenset(cells)


def parse_implication(text: str, scope: str = "objects-vs-rest") -> Implication:
    """Parse implications like "(1,a),(1,b) -> (1,c)" or "3 -> 1,2".

    Parenthesised groups are multi-dimension cells; bare tokens are
    single-attribute cells.  An empty side is allowed and means the empty
    cell set.
    """
    parts = text.split("->")
    if len(parts) != 2:
        raise ValueError(f"expected exactly one '->' in {text!r}")
    return Implication(_parse_side(parts[0]), _parse_side(parts[1]), scope)
