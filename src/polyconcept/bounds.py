"""Bounds on the maximal concept count of cubic contexts.

naive_bounds gives the closed forms n**s and (2**s - 1)**(n - 1) + n - 1.
lower_bound_context_4d builds the 4-dimensional witness family from rook
contexts and contranominal scales via direct sums.  exhaustive_max_concepts
searches every cubic relation of a given shape, with optional isomorph
rejection, and bounds_report assembles everything into one record.

The symmetry group is built once per search as numpy lookup tables that
give the image of each chunk of a relation mask under every element, in
64-bit words; a relation is kept when the mask is the least image of its
orbit.  Kept relations are counted by the enumeration kernel, and each
witness is recounted by brute_force_concepts.
"""

from __future__ import annotations

import csv
import io as _io
from dataclasses import dataclass, field
from itertools import chain, islice, permutations, product
from math import factorial
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .context import NContext, ResourceLimitError, relation_mask
from .enumeration import _concepts, brute_force_concepts
from .generators import contranominal, fixture, _numeric
from .transforms import direct_sum

SEARCH_SPACE_CAP = 2 ** 20
GROUP_CAP = 2 ** 23  # group order times cells
TABLE_BYTES = 2 ** 20
WORD = 64
BLOCK = 8  # masks per _canonical call

ROOK_SIDE = 3
ROOK_CONCEPTS = 112

KNOWN_3D_LOWER_BASE = 3.359
KNOWN_3D_UPPER_BASE = 3.384
ROOK_GROWTH_BASE = 4.82


def naive_bounds(n: int, s: int) -> tuple[int, int]:
    """Closed-form lower and upper bounds for the maximal concept count.

    The lower bound n**s is attained by the contranominal scale; the upper
    bound counts the ways to fix n-1 components plus the n-1 degenerate
    concepts.  Exact integer arithmetic throughout.
    """
    if n < 2:
        raise ValueError(f"arity must be >= 2, got {n}")
    if s < 1:
        raise ValueError(f"side must be >= 1, got {s}")
    return n ** s, (2 ** s - 1) ** (n - 1) + n - 1


def lower_bound_context_4d(s: int) -> NContext:
    """The 4-dimensional lower-bound witness of side s >= 3.

    Writes s = 3k + r with r in [0, 2] and direct-sums k rook contexts of
    side 3, then a contranominal scale of side r.  The result has exactly
    112**k * 4**r concepts.
    """
    if s < 3:
        raise ValueError(f"side must be >= 3, got {s}")
    k, r = divmod(s, 3)
    ctx = fixture("crook")
    for _ in range(k - 1):
        ctx = direct_sum(ctx, fixture("crook"))
    if r:
        ctx = direct_sum(ctx, contranominal(4, r))
    return ctx


def lower_bound_count_4d(s: int) -> int:
    """Concept count of lower_bound_context_4d(s), by multiplicativity."""
    if s < 3:
        raise ValueError(f"side must be >= 3, got {s}")
    k, r = divmod(s, 3)
    return ROOK_CONCEPTS ** k * 4 ** r


@dataclass
class SearchResult:
    max_count: int
    witnesses: list[NContext]
    exact: bool
    examined: int


def _group_order(n: int, s: int) -> int:
    """The order of the symmetry group of shape (n, s), refused above GROUP_CAP."""
    order = factorial(n) * factorial(s) ** n
    if order * s ** n > GROUP_CAP:
        raise ResourceLimitError(
            f"symmetry group of order {order} on {s ** n} cells exceeds the cap of "
            f"{GROUP_CAP} element-cells"
        )
    return order


def _group(n: int, s: int) -> np.ndarray:
    """The symmetry group of shape (n, s) as a (|G|, cells) array of cell maps.

    Element (p, q_0, ..., q_{n-1}) of dimension and element permutations
    moves cell t to the cell whose coordinate d is q_d[t[p[d]]].  Cells are
    numbered row-major, as in relation_mask.
    """
    order = _group_order(n, s)
    coords = np.indices((s,) * n, dtype=np.int32).reshape(n, -1)
    # at s = 1 the group is n! copies of the identity; int8 keeps them small
    dim_perms = np.fromiter(chain.from_iterable(permutations(range(n))), np.int8).reshape(-1, n)
    elem_perms = np.array(list(permutations(range(s))), dtype=np.int32)
    # axes: dimension permutation, then one element permutation per
    # dimension, then the cell
    moved = sum(
        np.expand_dims(
            elem_perms[:, coords[dim_perms[:, d]]].swapaxes(0, 1),
            tuple(e + 1 for e in range(n) if e != d),
        ) * s ** (n - 1 - d)
        for d in range(n)
    )
    return moved.reshape(order, s ** n)


def _tables(n: int, s: int) -> np.ndarray:
    """tables[c, v, u, g]: word u (least significant first) of the image of
    the mask v << (c * width) under group element g.

    The chunk width is the largest in 1..9 whose tables fit in TABLE_BYTES,
    and 1 when none does.
    """
    group = _group(n, s)
    order, cells = group.shape
    words = -(-cells // WORD)
    width = max([w for w in range(1, 10)
                 if -(-cells // w) * 2 ** w * words * order * 8 <= TABLE_BYTES], default=1)
    tables = np.zeros((-(-cells // width), 2 ** width, words, order), dtype=np.uint64)
    elements = np.arange(order)
    for i in range(cells):
        c, j = divmod(i, width)
        image = np.zeros((words, order), dtype=np.uint64)
        word, bit = np.divmod(group[:, i], WORD)
        image[word, elements] = np.uint64(1) << bit.astype(np.uint64)
        tables[c, 2 ** j:2 ** (j + 1)] = tables[c, :2 ** j] | image
    return tables


def _canonical(tables: np.ndarray, masks: Sequence[int]) -> list[int]:
    """The least image of each mask under the group of tables, as one block.

    Words are compared most significant first: the least is the numeric one.
    """
    chunks, values, words, _ = tables.shape
    width = values.bit_length() - 1
    keys = np.array([[m >> (c * width) & (values - 1) for c in range(chunks)] for m in masks])
    images = tables[0, keys[:, 0]]
    for c in range(1, chunks):
        images |= tables[c, keys[:, c]]
    least = [0] * len(masks)
    for u in reversed(range(words)):
        low = images[:, u].min(axis=1)
        if u:
            # an image above the least in word u is out of the running
            images[:, :u] = np.where(
                (images[:, u] == low[:, None])[:, None], images[:, :u], np.uint64(2 ** WORD - 1)
            )
        least = [m << WORD | int(x) for m, x in zip(least, low.tolist())]
    return least


def _least_images(tables: np.ndarray, masks: Iterable[int]) -> Iterator[tuple[int, int]]:
    """(mask, its least image) for each of masks, BLOCK masks per _canonical call."""
    masks = iter(masks)
    while block := list(islice(masks, BLOCK)):
        yield from zip(block, _canonical(tables, block))


def _context_from_mask(n: int, s: int, mask: int) -> NContext:
    cells = list(product(range(s), repeat=n))
    relation = frozenset(t for i, t in enumerate(cells) if mask >> i & 1)
    return NContext((_numeric(s),) * n, relation)


def exhaustive_max_concepts(
    n: int,
    s: int,
    symmetry_reduction: bool = True,
    max_relations: Optional[int] = None,
) -> SearchResult:
    """Exact maximum concept count over all cubic contexts of shape (n, s).

    Relation masks are scanned in ascending order.  With symmetry reduction
    only the least mask of each orbit under dimension and element
    permutations is examined; the maximum is unchanged.  A max_relations
    budget turns the result into a lower bound (exact=False) when the scan
    stops early.  Witnesses are deduplicated up to symmetry, so a group
    above GROUP_CAP is refused either way, first; without a budget the
    search then refuses spaces above SEARCH_SPACE_CAP relations.  A budget
    below 1 is a ValueError; a witness whose brute-force recount differs a
    RuntimeError.
    """
    if max_relations is not None and max_relations < 1:
        raise ValueError(f"max_relations must be at least 1, got {max_relations}")
    naive_bounds(n, s)  # rejects n < 2 and s < 1
    _group_order(n, s)  # caps the cells, so the space below can be built
    space = 2 ** s ** n
    if max_relations is None and space > SEARCH_SPACE_CAP:
        raise ResourceLimitError(
            f"search space of {space} relations exceeds the cap of {SEARCH_SPACE_CAP}; "
            "pass max_relations to run a partial scan"
        )
    tables = _tables(n, s)
    relations = range(space)
    if symmetry_reduction:
        relations = (m for m, least in _least_images(tables, relations) if m == least)
    best = -1
    witnesses: list[int] = []
    examined = 0
    for mask in islice(relations, max_relations):
        examined += 1
        cnt = sum(1 for _ in _concepts([s] * n, mask))
        if cnt > best:
            best = cnt
            witnesses = [mask]
        elif cnt == best:
            witnesses.append(mask)
    unique = sorted({least for _, least in _least_images(tables, witnesses)})
    contexts = [_context_from_mask(n, s, m) for m in unique]
    for ctx in contexts:
        recount = len(brute_force_concepts(ctx))
        if recount != best:
            raise RuntimeError(f"witness has {recount} concepts by brute force, not {best}")
    # the full relation is fixed by every symmetry, so it is kept, and it
    # is the last mask: the scan was complete exactly when it got there
    return SearchResult(
        max_count=best, witnesses=contexts, exact=mask == space - 1, examined=examined
    )


def canonical_relation_mask(ctx: NContext) -> int:
    """Least relation bitmask over the symmetry group (row-major cells)."""
    sizes = set(ctx.sizes)
    if len(sizes) != 1:
        raise ValueError("canonical form is defined for cubic contexts")
    return _canonical(_tables(ctx.arity, ctx.sizes[0]), [relation_mask(ctx)])[0]


@dataclass
class BoundsReport:
    """Known bounds and witnesses for the maximal concept count at (n, s)."""

    n: int
    s: int
    naive_lower: int
    naive_upper: int
    best_known_lower: int
    best_known_source: str
    exact: Optional[int] = None
    annotations: list[str] = field(default_factory=list)
    witnesses: list[NContext] = field(default_factory=list)
    witness_file: str = ""

    def __post_init__(self):
        if not self.naive_lower <= self.best_known_lower <= self.naive_upper:
            raise ValueError("bounds out of order")
        if self.exact is not None and not self.best_known_lower <= self.exact <= self.naive_upper:
            raise ValueError("exact value out of range")


SEARCHABLE = {(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)}


def bounds_report(n: int, s: int, run_search: Optional[bool] = None) -> BoundsReport:
    """Assemble naive bounds, generator lower bounds and search results.

    run_search defaults to searching exactly the shapes whose relation space
    fits the cap.  Annotated growth rates are reported as text only; every
    number in the record is an exact integer.
    """
    lower, upper = naive_bounds(n, s)
    best, source = lower, "contranominal"
    witnesses = [contranominal(n, s)]
    annotations = []
    if n == 4 and s >= 3:
        rook_lower = lower_bound_count_4d(s)
        if rook_lower > best:
            best, source = rook_lower, "rook-direct-sum"
            witnesses = [lower_bound_context_4d(s)]
        annotations.append(
            f"rook direct sums give c*{ROOK_GROWTH_BASE}^s with c = (4/{ROOK_GROWTH_BASE})^2"
        )
    if n == 3:
        annotations.append(
            f"known window for cubic 3-contexts: {KNOWN_3D_LOWER_BASE}^s lower, "
            f"{KNOWN_3D_UPPER_BASE}^s upper"
        )
    if n == 2:
        annotations.append("lower and upper bounds agree in two dimensions")
    exact = None
    if run_search is None:
        run_search = (n, s) in SEARCHABLE
    if run_search:
        try:
            result = exhaustive_max_concepts(n, s)
        except ResourceLimitError as exc:
            raise ResourceLimitError(str(exc).replace(
                "pass max_relations", f"call exhaustive_max_concepts({n}, {s}, max_relations=N)"
            )) from None
        if result.exact:
            exact = result.max_count
            if exact >= best:
                best, source = exact, "exhaustive-search"
                witnesses = result.witnesses
    return BoundsReport(
        n=n,
        s=s,
        naive_lower=lower,
        naive_upper=upper,
        best_known_lower=best,
        best_known_source=source,
        exact=exact,
        annotations=annotations,
        witnesses=witnesses,
    )


def render_text(report: BoundsReport) -> str:
    lines = [
        f"shape: {report.n} dimensions, side {report.s}",
        f"naive lower bound:  {report.naive_lower}",
        f"best known lower:   {report.best_known_lower} ({report.best_known_source})",
        f"exact maximum:      {report.exact if report.exact is not None else 'unknown'}",
        f"naive upper bound:  {report.naive_upper}",
    ]
    for note in report.annotations:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


CSV_COLUMNS = [
    "n", "s", "naive_lower", "best_lower", "best_lower_source",
    "exact", "naive_upper", "witness_file",
]


def render_csv(reports: list[BoundsReport]) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        writer.writerow([
            r.n, r.s, r.naive_lower, r.best_known_lower, r.best_known_source,
            "" if r.exact is None else r.exact, r.naive_upper, r.witness_file,
        ])
    return buf.getvalue()
