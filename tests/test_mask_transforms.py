"""flatten and slice_dim on the mask kernel, against their per-tuple definitions."""

import random
from itertools import combinations, permutations, product

import pytest

from polyconcept import Bipartition, NContext, flatten, parse_context, serialize_context, slice_dim
from polyconcept.context import relation_mask


def oracle_flatten(ctx, p):
    """Index every left and right combination, then map each tuple across."""
    left_elems = list(product(*(range(len(ctx.dims[d])) for d in p.left)))
    right_elems = list(product(*(range(len(ctx.dims[d])) for d in p.right)))

    def label(combo, side):
        labels = [ctx.dims[d][x] for d, x in zip(side, combo)]
        return labels[0] if len(labels) == 1 else "(" + ",".join(labels) + ")"

    left_index = {combo: i for i, combo in enumerate(left_elems)}
    right_index = {combo: i for i, combo in enumerate(right_elems)}
    relation = {
        (left_index[tuple(t[d] for d in p.left)], right_index[tuple(t[d] for d in p.right)])
        for t in ctx.relation
    }
    dims = (tuple(label(c, p.left) for c in left_elems),
            tuple(label(c, p.right) for c in right_elems))
    return NContext.build(dims, relation)


def oracle_slice(ctx, d, keep):
    """Keep a tuple of the other dimensions when it is crossed with every kept element."""
    dims = ctx.dims[:d] + ctx.dims[d + 1:]
    relation = {
        t for t in product(*(range(len(labels)) for labels in dims))
        if all(t[:d] + (x,) + t[d:] in ctx.relation for x in keep)
    }
    return NContext.build(dims, relation)


def seeded_contexts(count, seed):
    """Contexts of arity 2-4 with size-1 dimensions and empty and full relations among them."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(2, 4)
        sizes = [rng.randint(1, 4 if n < 4 else 3) for _ in range(n)]
        density = (0.0, 1.0, rng.random())[k % 3]
        dims = [tuple(f"{'abcd'[d]}{x}" for x in range(j)) for d, j in enumerate(sizes)]
        cells = product(*(range(j) for j in sizes))
        yield rng, NContext.build(dims, [t for t in cells if rng.random() < density])


def bipartitions(n):
    for r in range(1, n):
        for left in combinations(range(n), r):
            yield Bipartition(left, tuple(d for d in range(n) if d not in left))


CONTEXTS = list(seeded_contexts(150, seed=15))


def test_seeded_contexts_cover_the_edge_cases():
    assert {ctx.arity for _, ctx in CONTEXTS} == {2, 3, 4}
    assert any(1 in ctx.sizes for _, ctx in CONTEXTS)
    assert any(not ctx.relation for _, ctx in CONTEXTS)
    assert any(len(ctx.relation) == ctx.cell_count() for _, ctx in CONTEXTS)


def test_flatten_matches_the_tuple_definition():
    for _, ctx in CONTEXTS:
        for p in bipartitions(ctx.arity):
            assert flatten(ctx, p) == oracle_flatten(ctx, p)


def test_slice_matches_the_tuple_definition():
    empty_keeps = 0
    for rng, ctx in CONTEXTS:
        if ctx.arity == 2:
            continue
        for d in range(ctx.arity):
            for _ in range(3):
                keep = [x for x in range(ctx.sizes[d]) if rng.random() < 0.5]
                empty_keeps += not keep
                assert slice_dim(ctx, d, keep) == oracle_slice(ctx, d, keep)
    assert empty_keeps


def test_mask_round_trip():
    for _, ctx in CONTEXTS:
        assert NContext(ctx.dims, relation_mask(ctx)) == ctx


@pytest.mark.parametrize("seed", range(3))
def test_mask_round_trip_in_a_permuted_order(seed):
    rng = random.Random(seed)
    for _, ctx in CONTEXTS:
        order = rng.sample(range(ctx.arity), ctx.arity)
        permuted = NContext.build(
            [ctx.dims[d] for d in order],
            [tuple(t[d] for d in order) for t in ctx.relation],
        )
        assert NContext(permuted.dims, relation_mask(ctx, order)) == permuted


def test_build_round_trip():
    for _, ctx in CONTEXTS:
        assert NContext.build(ctx.dims, ctx.relation) == ctx


def test_relation_is_the_set_bits_in_ascending_order():
    for _, ctx in CONTEXTS:
        cells = product(*(range(j) for j in ctx.sizes))
        assert sorted(ctx.relation) == [t for i, t in enumerate(cells) if ctx.mask >> i & 1]


def test_holes_mode_parses_to_the_complement():
    for _, ctx in CONTEXTS:
        text = serialize_context(ctx)
        holes = parse_context(text.replace("mode crosses", "mode holes"))
        cells = frozenset(product(*(range(j) for j in ctx.sizes)))
        assert holes.dims == ctx.dims and holes.relation == cells - parse_context(text).relation


def test_mask_layout_in_every_order():
    for _, ctx in CONTEXTS:
        for order in permutations(range(ctx.arity)):
            permuted = NContext.build(
                [ctx.dims[d] for d in order],
                [tuple(t[d] for d in order) for t in ctx.relation],
            )
            assert relation_mask(ctx, order) == permuted.mask
