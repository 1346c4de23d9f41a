"""Peak memory of counting and enumerating stays near the size of the mask.

tracemalloc traces what Python allocates, so the bounds below hold on any
machine and do not depend on timing.  A context with one hole has only a
few concepts, so whatever the enumerator holds beyond its input shows.
"""

import tracemalloc
from math import prod

import pytest

from polyconcept import NContext, count_concepts, enumerate_concepts


def one_hole(sizes):
    """The context over sizes with every cell crossed except cell (0, ..., 0)."""
    return NContext(tuple(tuple(str(x) for x in range(j)) for j in sizes), (1 << prod(sizes)) - 2)


def peak_mb(call, ctx):
    """Peak traced memory, in MB, of call(ctx)."""
    tracemalloc.start()
    try:
        call(ctx)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sizes, call, limit", [
    ((600, 600), count_concepts, 1.0),
    ((600, 600), enumerate_concepts, 1.0),
    ((60, 60, 60), count_concepts, 0.5),
])
def test_peak_memory_is_linear_in_the_mask(sizes, call, limit):
    ctx = one_hole(sizes)
    assert peak_mb(call, ctx) < limit
