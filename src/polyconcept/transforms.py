"""Context calculus: bipartition flattening, dimension slicing, direct sums.

flatten collapses an n-context to a 2-context whose objects and attributes
are tuples over the two sides of a dimension bipartition.  slice_dim removes
one dimension by universally quantifying over a chosen element subset.
direct_sum combines two contexts so that concept counts multiply.

flatten and slice_dim run on the integer-mask kernel of context.py.  A
flattening is the relation mask laid out with the left dimensions first,
under joined labels.  A slice is a derivation: in the dyadic context of
dimension d against the rest, the sliced relation is the intent of the
kept elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Iterable, Sequence

from .context import NContext, intent, mask_cells, relation_mask, split_rows


@dataclass(frozen=True)
class Bipartition:
    """A split of the dimension indices into two nonempty disjoint halves."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "left", tuple(sorted(self.left)))
        object.__setattr__(self, "right", tuple(sorted(self.right)))

    def validate(self, arity: int) -> None:
        left, right = set(self.left), set(self.right)
        if not left or not right:
            raise ValueError("both sides of a bipartition must be nonempty")
        if len(left) != len(self.left) or len(right) != len(self.right):
            raise ValueError("a bipartition side repeats a dimension")
        if left & right:
            raise ValueError(f"bipartition sides overlap: {sorted(left & right)}")
        if left | right != set(range(arity)):
            raise ValueError("bipartition must cover all dimensions exactly once")


def _joined_label(labels: Sequence[str]) -> str:
    if len(labels) == 1:
        return labels[0]
    return "(" + ",".join(labels) + ")"


def flatten(ctx: NContext, p: Bipartition) -> NContext:
    """Collapse ctx into a 2-context along the bipartition p.

    Objects are tuples over the left dimensions, attributes tuples over the
    right ones, and a cross appears exactly when the recombined n-tuple is
    in the original relation.  Singleton tuples keep their bare label, so a
    3-context flattened against its object dimension reproduces the familiar
    object-by-cell-pair table.
    """
    p.validate(ctx.arity)
    labels = tuple(
        tuple(_joined_label(cell) for cell in product(*(ctx.dims[d] for d in side)))
        for side in (p.left, p.right)
    )
    return NContext(labels, relation_mask(ctx, p.left + p.right))


def objects_vs_rest(ctx: NContext) -> NContext:
    """The standard flattening with dimension 0 alone on the left."""
    return flatten(ctx, Bipartition((0,), tuple(range(1, ctx.arity))))


def slice_dim(ctx: NContext, d: int, keep: Iterable[int]) -> NContext:
    """Remove dimension d, keeping tuples present for every element of keep.

    An empty keep set quantifies over nothing, so the result is the full
    product of the remaining dimensions.
    """
    if not 0 <= d < ctx.arity:
        raise ValueError(f"dimension {d} out of range for arity {ctx.arity}")
    if ctx.arity == 2:
        raise ValueError("cannot slice a 2-context below arity 2")
    keep = frozenset(keep)
    for x in keep:
        if not 0 <= x < len(ctx.dims[d]):
            raise ValueError(f"element index {x} out of range in dimension {d}")
    rest = tuple(e for e in range(ctx.arity) if e != d)
    width = prod(ctx.sizes[e] for e in rest)
    rows = split_rows(relation_mask(ctx, (d,) + rest), ctx.sizes[d], width)
    rel = intent(rows, sum(1 << x for x in keep), (1 << width) - 1)
    return NContext(ctx.dims[:d] + ctx.dims[d + 1:], rel)


def _disjoint_labels(a: Sequence[str], b: Sequence[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    if set(a) & set(b):
        return tuple(f"{x}#1" for x in a), tuple(f"{x}#2" for x in b)
    return tuple(a), tuple(b)


def direct_sum(c1: NContext, c2: NContext) -> NContext:
    """Direct sum of two contexts of equal arity.

    Dimensions are concatenated per index.  A tuple is absent only when all
    of its coordinates come from the same summand and it is absent there;
    every tuple mixing coordinates of both summands is present.  The number
    of concepts of the sum is the product of the summands' counts.
    """
    if c1.arity != c2.arity:
        raise ValueError(f"arity mismatch: {c1.arity} vs {c2.arity}")
    n = c1.arity
    dims = []
    for d in range(n):
        a, b = _disjoint_labels(c1.dims[d], c2.dims[d])
        dims.append(a + b)
    # every cell is crossed but the holes of each summand, moved to its corner
    holes = NContext.build(dims, (
        [x + off for x, off in zip(t, offs)]
        for c, offs in ((c1, (0,) * n), (c2, c1.sizes))
        for t in mask_cells(c.sizes, c.mask ^ (1 << c.cell_count()) - 1)
    ))
    return NContext(holes.dims, holes.mask ^ (1 << holes.cell_count()) - 1)
