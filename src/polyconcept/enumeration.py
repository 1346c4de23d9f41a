"""Enumeration of all n-concepts of an n-context.

Two routes are provided on purpose.  brute_force_concepts tests every
candidate tuple of subsets for a maximal full box; it is exact by
construction and serves as the correctness oracle.  enumerate_concepts goes
objects first, after TRIAS (Jäschke et al., ICDM 2006).  It lays the
relation out with its dimensions sorted by size, smallest outermost (a
stable sort), and walks the closed object sets A of the objects-vs-rest
flattening by Close-by-One, each with its intent: the (n-1)-context of the
cells every object of A has.  It recurses into that context and keeps a
concept of it when no object outside A has a row holding its box; at two
dimensions the closed sets are the concepts.  The components are mapped
back to the input's dimension order at the end.  Each concept then appears
once, so count_concepts counts a stream.  Both routes return the same set
wherever the oracle can run.
"""

from __future__ import annotations

from itertools import product
from math import prod
from operator import itemgetter
from typing import Iterator, Sequence

from .context import (
    ConceptSet,
    NContext,
    ResourceLimitError,
    _per_component,
    box_is_concept,
    closed_sets,
    element_masks,
    relation_mask,
    split_rows,
)

BRUTE_FORCE_CAP = 2 ** 24


def brute_force_concepts(ctx: NContext, cap: int = BRUTE_FORCE_CAP) -> ConceptSet:
    """All concepts by direct filtering of every subset tuple.

    The candidate space has prod(2**j_i) elements; the call refuses to start
    when that exceeds cap.
    """
    candidates = prod(2 ** j for j in ctx.sizes)
    if candidates > cap:
        raise ResourceLimitError(
            f"brute force needs {candidates} candidates, above the cap of {cap}"
        )
    elems = element_masks(ctx.sizes)
    return ConceptSet.from_iterable(ctx, (
        comps for comps in product(*(range(2 ** j) for j in ctx.sizes))
        if box_is_concept(ctx.mask, elems, comps)
    ))


def _concepts(sizes: Sequence[int], rel: int, stride: int = 1) -> Iterator[tuple[int, ...]]:
    """Each concept of the relation rel over sizes once, as its component masks.

    Component 0 marks element x by bit x * stride, bit x at the top level.
    Component d > 0 marks it by bit x * w_d, w_d the stride of dimension d,
    so their product is the box, built only by the level that reads it.
    """
    width = prod(sizes[1:])
    rows = split_rows(rel, sizes[0], width)
    marks = [1 << (x * stride) for x in range(sizes[0])]
    pairs = closed_sets(rows, (1 << width) - 1, marks)
    if len(sizes) == 2:
        yield from pairs
        return
    for a, y in pairs:
        outside = [row for row, mark in zip(rows, marks) if not a & mark]
        for comps in _concepts(sizes[1:], y, prod(sizes[2:])):
            box = prod(comps)
            for row in outside:
                if row & box == box:
                    break
            else:
                yield (a,) + comps


def _by_size(ctx: NContext) -> tuple[list[int], Iterator[tuple[int, ...]]]:
    """The dimensions ordered by size, smallest first (a stable sort), and
    the component masks of every concept of ctx laid out in that order."""
    order = sorted(range(ctx.arity), key=lambda d: ctx.sizes[d])
    return order, _concepts([ctx.sizes[d] for d in order], relation_mask(ctx, order))


def enumerate_concepts(ctx: NContext) -> ConceptSet:
    """All concepts, found objects first; output order is canonical."""
    order, found = _by_size(ctx)
    sizes = [ctx.sizes[d] for d in order]
    unstride = [lambda c: c] + [
        lambda c, j=j, w=prod(sizes[k + 1:]): sum(1 << x for x in range(j) if c >> (x * w) & 1)
        for k, j in enumerate(sizes[1:], 1)
    ]
    back = itemgetter(*(order.index(d) for d in range(ctx.arity)))
    return ConceptSet.from_iterable(ctx, map(back, _per_component(found, unstride)))


def count_concepts(ctx: NContext) -> int:
    """Number of concepts of ctx, counted as they are found."""
    return sum(1 for _ in _by_size(ctx)[1])
