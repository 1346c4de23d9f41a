"""Enumeration of all n-concepts of an n-context.

Two routes are provided on purpose.  brute_force_concepts tests every
candidate tuple of subsets for a maximal full box; it is exact by
construction and serves as the correctness oracle.  enumerate_concepts goes
objects first, after TRIAS (Jäschke et al., ICDM 2006): it walks the closed
object sets A of the objects-vs-rest flattening with NextClosure, recurses
into the (n-1)-context of the cells that every object of A has, and keeps a
concept of that context when the objects whose rows hold its box are
exactly A.  Each concept then appears once, so count_concepts counts a
stream.  Both routes return the same set wherever the oracle can run.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Iterator, Sequence

from .context import (
    ConceptSet,
    NContext,
    ResourceLimitError,
    box_is_concept,
    element_masks,
    extent,
    intent,
    members,
    next_closures,
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
    rel = relation_mask(ctx)
    elems = element_masks(ctx.sizes)
    found = [
        tuple(members(m) for m in comps)
        for comps in product(*(range(2 ** j) for j in ctx.sizes))
        if box_is_concept(rel, elems, comps)
    ]
    return ConceptSet.from_iterable(ctx, found)


def _concepts(sizes: Sequence[int], rel: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each concept of the relation rel over sizes once: (component masks, box cells)."""
    if len(sizes) == 1:
        yield (rel,), rel
        return
    width = prod(sizes[1:])
    full = (1 << width) - 1
    rows = split_rows(rel, sizes[0], width)
    for a in next_closures(sizes[0], lambda a: extent(rows, intent(rows, a, full))):
        lift = sum(1 << (x * width) for x in range(sizes[0]) if a >> x & 1)
        for comps, box in _concepts(sizes[1:], intent(rows, a, full)):
            if extent(rows, box) == a:
                yield (a,) + comps, box * lift


def enumerate_concepts(ctx: NContext) -> ConceptSet:
    """All concepts, found objects first; output order is canonical."""
    found = [
        tuple(members(m) for m in comps)
        for comps, _ in _concepts(ctx.sizes, relation_mask(ctx))
    ]
    return ConceptSet.from_iterable(ctx, found)


def count_concepts(ctx: NContext) -> int:
    """Number of concepts of ctx, counted as they are found."""
    return sum(1 for _ in _concepts(ctx.sizes, relation_mask(ctx)))
