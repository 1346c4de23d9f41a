"""Bounds on the maximal concept count of cubic contexts.

naive_bounds gives the closed forms n**s and (2**s - 1)**(n - 1) + n - 1.
lower_bound_context_4d builds the 4-dimensional witness family from rook
contexts and contranominal scales via direct sums.  exhaustive_max_concepts
searches every cubic relation of a given shape, with optional isomorph
rejection, and bounds_report assembles everything into one record.
"""

from __future__ import annotations

import csv
import io as _io
from dataclasses import dataclass, field
from itertools import permutations, product
from typing import Optional

from .context import NContext, ResourceLimitError
from .enumeration import brute_force_concepts
from .generators import contranominal, fixture, _numeric
from .transforms import direct_sum

SEARCH_SPACE_CAP = 2 ** 20

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


def _cell_permutations(n: int, s: int) -> list[list[int]]:
    """Index maps of the symmetry group: dimension swaps and element perms."""
    cells = list(product(range(s), repeat=n))
    index = {t: i for i, t in enumerate(cells)}
    maps = []
    for dim_perm in permutations(range(n)):
        for elem_perms in product(list(permutations(range(s))), repeat=n):
            mapping = [0] * len(cells)
            for i, t in enumerate(cells):
                moved = tuple(elem_perms[d][t[dim_perm[d]]] for d in range(n))
                mapping[i] = index[moved]
            maps.append(mapping)
    return maps


def _apply(mapping: list[int], mask: int, total: int) -> int:
    out = 0
    for i in range(total):
        if mask >> i & 1:
            out |= 1 << mapping[i]
    return out


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

    With symmetry reduction only lexicographically minimal relations under
    dimension and element permutations are examined; the maximum is
    unchanged.  A max_relations budget turns the result into a lower bound
    (exact=False) when the scan stops early.  Without a budget the search
    refuses spaces above 2**20 relations.  A budget below 1 is a ValueError.
    """
    if max_relations is not None and max_relations < 1:
        raise ValueError(f"max_relations must be at least 1, got {max_relations}")
    total_cells = s ** n
    space = 2 ** total_cells
    if max_relations is None and space > SEARCH_SPACE_CAP:
        raise ResourceLimitError(
            f"search space of {space} relations exceeds the cap of {SEARCH_SPACE_CAP}; "
            "pass max_relations to run a partial scan"
        )
    maps = _cell_permutations(n, s) if symmetry_reduction else None
    best = -1
    witnesses: list[int] = []
    examined = 0
    exact = True
    for mask in range(space):
        if max_relations is not None and examined >= max_relations:
            exact = False
            break
        if maps is not None:
            canonical = min(_apply(mp, mask, total_cells) for mp in maps)
            if canonical != mask:
                continue
        examined += 1
        ctx = _context_from_mask(n, s, mask)
        cnt = len(brute_force_concepts(ctx))
        if cnt > best:
            best = cnt
            witnesses = [mask]
        elif cnt == best:
            witnesses.append(mask)
    dedupe_maps = maps if maps is not None else _cell_permutations(n, s)
    seen = set()
    unique = []
    for mask in witnesses:
        canonical = min(_apply(mp, mask, total_cells) for mp in dedupe_maps)
        if canonical not in seen:
            seen.add(canonical)
            unique.append(canonical)
    witnesses = unique
    return SearchResult(
        max_count=best,
        witnesses=[_context_from_mask(n, s, m) for m in sorted(witnesses)],
        exact=exact,
        examined=examined,
    )


def canonical_relation_mask(ctx: NContext) -> int:
    """Lexicographically minimal relation bitmask over the symmetry group."""
    sizes = set(ctx.sizes)
    if len(sizes) != 1:
        raise ValueError("canonical form is defined for cubic contexts")
    n, s = ctx.arity, ctx.sizes[0]
    cells = list(product(range(s), repeat=n))
    index = {t: i for i, t in enumerate(cells)}
    mask = 0
    for t in ctx.relation:
        mask |= 1 << index[t]
    return min(_apply(mp, mask, s ** n) for mp in _cell_permutations(n, s))


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


SEARCHABLE = {(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)}


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
        result = exhaustive_max_concepts(n, s)
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
