"""Implications over the objects-vs-rest flattening of a context.

An implication is stated over the attributes of a 2-context.  holds and
implication_support read any n-context through its objects-vs-rest
flattening, whose attributes are the cells of dimensions 2..n labelled
"(a,b)"; a 2-context is its own flattening, so slicing first gives the
other scopes.  Beyond plain validity, implications are classified:
structural implications are the ones forced by the feature set of the
concept lattice (they survive any redistribution of features across
objects), while contextual implications hold in the given context only
because of how its objects happen to bundle features.

The classifier works through the canonical context: the class member whose
objects are exactly the forced-cohabitation classes of features.  Premises
supported there entail precisely their canonical closure; premises no
canonical object supports owe their consequences to object bundling, which
is the contextual case.  Premises unsupported in the original context hold
vacuously and are treated as structural, mirroring the convention that an
unsupported box implies everything.

Everything runs on the integer-mask kernel: a feature is the tuple of
component masks over dimensions 2..n that the enumerator yields, so its
cell mask is their product, and a context is a list of row masks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from itertools import product
from math import prod
from typing import Iterable, Sequence

from .context import (
    NContext,
    ResourceLimitError,
    cell_index,
    closure,
    extent,
    intent,
    next_closures,
    object_rows,
)
from .enumeration import _concepts
from .transforms import _joined_label

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
            return ",".join(_joined_label(c) for c in sorted(cells))
        return f"{side(self.premise)} -> {side(self.conclusion)}"


def _attr_mask(ctx: NContext, cells: Iterable[Cell]) -> int:
    """The cells as a mask over the attributes of the objects-vs-rest flattening."""
    labels = [_joined_label(cell) for cell in product(*ctx.dims[1:])]
    lookup = {label: i for i, label in enumerate(labels)}
    if len(lookup) < len(labels):
        raise ValueError("dimension 1 has duplicate labels")
    mask = 0
    for cell in sorted(tuple(cell) for cell in cells):
        label = _joined_label(cell)
        if label not in lookup:
            raise ValueError(f"cell {label!r} is not an attribute of this context")
        mask |= 1 << lookup[label]
    return mask


def _closure_mask(ctx: NContext, x: int) -> int:
    return closure(object_rows(ctx), x, (1 << prod(ctx.sizes[1:])) - 1)


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
    return _picked(ctx2.dims[1], _closure_mask(ctx2, x))


def holds(ctx: NContext, imp: Implication) -> bool:
    """Whether the implication is valid in the objects-vs-rest flattening of ctx."""
    premise = _attr_mask(ctx, imp.premise)
    conclusion = _attr_mask(ctx, imp.conclusion)
    return not conclusion & ~_closure_mask(ctx, premise)


def implication_support(ctx: NContext, imp: Implication) -> frozenset[str]:
    """Labels of the objects whose row contains the whole premise."""
    return _picked(ctx.dims[0], extent(object_rows(ctx), _attr_mask(ctx, imp.premise)))


def _picked(items: Iterable, mask: int) -> frozenset:
    """The items whose place in items is a bit of mask: labels, or cells of a cell mask."""
    return frozenset(item for i, item in enumerate(items) if mask >> i & 1)


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

    cells = [(label,) for label in ctx2.dims[1]]
    return [Implication(_picked(cells, p), _picked(cells, c), scope="dyadic") for p, c in base]


# ---------------------------------------------------------------------------
# Canonical context and structural entailment


def _features(sizes: Sequence[int], rel: int) -> dict[tuple[int, ...], int]:
    """Feature of each concept of rel mapped to its extent (the map is one-to-one).

    A feature is the tuple of component masks over dimensions 2..n, each
    marking element x by bit x times its stride, so their product is the
    feature's cell mask; an extent is a plain element mask, bit x for object x.
    """
    return {comps[1:]: comps[0] for comps in _concepts(sizes, rel)}


def _canonical_rows(sizes: tuple[int, ...], rel: int) -> list[int]:
    """The object rows of the canonical context of rel over sizes (see canonical_context)."""
    width = prod(sizes[1:])
    feats = _features(sizes, rel)
    cellmasks = {prod(f) for f in feats}
    cells = [prod(f) for f, a in feats.items() if a and prod(f)]
    parent = list(range(len(cells)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            if cells[i] & cells[j] not in cellmasks:
                parent[find(j)] = find(i)

    groups: dict[int, int] = {}
    for i, m in enumerate(cells):
        root = find(i)
        groups[root] = groups.get(root, 0) | m
    # rows ordered by their ascending lists of cell indices
    rows = sorted(groups.values(), key=lambda g: [i for i in range(width) if g >> i & 1])

    def realises(rows: list[int]) -> bool:
        rel = sum(row << (o * width) for o, row in enumerate(rows))
        return _features((len(rows),) + sizes[1:], rel).keys() == feats.keys()

    if not rows:
        rows = [0]
    elif not realises(rows) and realises(rows + [0]):
        rows.append(0)
    return rows


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
    rows = _canonical_rows(ctx.sizes, ctx.mask)
    rel = sum(row << (o * prod(ctx.sizes[1:])) for o, row in enumerate(rows))
    return NContext((tuple(f"o{o + 1}" for o in range(len(rows))),) + ctx.dims[1:], rel)


def struct_closure(ctx: NContext, cells: Iterable[Sequence[str]]) -> frozenset[Cell]:
    """Cells forced by the feature set of ctx from the given cells.

    Computed as the dyadic closure over the rows of the canonical context,
    so it is a genuine closure operator: extensive, monotone and idempotent.
    A cell set no canonical object supports closes to the full cell space.
    """
    dims = ctx.dims[1:]
    x = 0
    for cell in cells:
        cell = tuple(cell)
        if len(cell) != len(dims):
            raise ValueError(f"cell {cell} has arity {len(cell)}, expected {len(dims)}")
        indices = [ctx.index_of(d + 1, label) for d, label in enumerate(cell)]
        x |= 1 << cell_index(ctx.sizes[1:], indices)
    rows = _canonical_rows(ctx.sizes, ctx.mask)
    return _picked(product(*dims), closure(rows, x, (1 << prod(ctx.sizes[1:])) - 1))


def classify(ctx: NContext, imp: Implication) -> Classification:
    """Classify an implication stated over the objects-vs-rest flattening.

    not-holding when the dyadic closure misses the conclusion.  Premises
    without support hold vacuously and are structural.  Otherwise the
    implication is structural exactly when some canonical-context object
    supports the premise and the shared cells of those objects cover the
    conclusion; anything else the implication says reflects object bundling,
    so it is contextual.
    """
    return _classify(ctx, imp)[0]


def _classify(ctx: NContext, imp: Implication) -> tuple[Classification, int]:
    """classify's verdict and the mask of the objects of ctx that support the premise."""
    premise = _attr_mask(ctx, imp.premise)
    conclusion = _attr_mask(ctx, imp.conclusion)
    width = prod(ctx.sizes[1:])
    rows = object_rows(ctx)
    support = extent(rows, premise)
    if conclusion & ~intent(rows, support, (1 << width) - 1):
        return Classification.NOT_HOLDING, support
    if support:
        canon = _canonical_rows(ctx.sizes, ctx.mask)
        held = extent(canon, premise)
        if not held or conclusion & ~intent(canon, held, (1 << width) - 1):
            return Classification.CONTEXTUAL, support
    return Classification.STRUCTURAL, support


def lattice_equivalent(c1: NContext, c2: NContext) -> bool:
    """Whether two contexts produce the same concept features.

    Requires identical feature dimensions; the object dimensions may differ.
    """
    if c1.dims[1:] != c2.dims[1:]:
        raise ValueError("contexts differ on dimensions 2..n")
    f1 = _features(c1.sizes, c1.mask)
    f2 = _features(c2.sizes, c2.mask)
    return f1.keys() == f2.keys()


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
