"""One-shot verification of the bundled reference values.

Each check asserts facts read off the reference cross tables: printed
concept lists, transformation tables, implication classifications, family
counts and search results.  run_checks returns one record per check and the
CLI renders them as a pass/fail table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

from .bounds import (
    exhaustive_max_concepts,
    lower_bound_context_4d,
    naive_bounds,
    canonical_relation_mask,
)
from .context import is_concept, object_rows
from .enumeration import count_concepts, enumerate_concepts
from .generators import b_class, contranominal, fixture, rook_context
from .implications import (
    Classification,
    canonical_context,
    classify,
    holds,
    lattice_equivalent,
    parse_implication,
)
from .io import context_from_table, serialize_context
from .transforms import Bipartition, direct_sum, flatten, slice_dim

FIG3L_CONCEPTS = {
    ((), ("1", "2", "3"), ("a", "b", "c")),
    (("α", "β"), (), ("a", "b", "c")),
    (("α", "β"), ("1", "2", "3"), ()),
    (("α",), ("1",), ("a", "b", "c")),
    (("α",), ("1", "2", "3"), ("a",)),
    (("α", "β"), ("1",), ("a",)),
    (("β",), ("2",), ("b",)),
}

FIG3R_CONCEPTS = {
    ((), ("1", "2", "3"), ("a", "b", "c")),
    (("α", "β", "γ"), (), ("a", "b", "c")),
    (("α", "β", "γ"), ("1", "2", "3"), ()),
    (("α",), ("1",), ("a", "b", "c")),
    (("β",), ("1", "2", "3"), ("a",)),
    (("α", "β", "γ"), ("1",), ("a",)),
    (("γ",), ("2",), ("b",)),
}

GREEK3 = ("α", "β", "γ")
PAIR_ATTRS = tuple(f"({n},{l})" for n in "123" for l in "abc")

FLATTENED_TABLE = {
    "α": ["(1,a)", "(2,a)", "(3,a)", "(3,b)"],
    "β": ["(1,a)", "(1,c)", "(2,a)", "(3,b)"],
    "γ": ["(1,c)", "(3,b)", "(3,c)"],
}

SLICE_A_TABLE = {"α": ["1", "2", "3"], "β": ["1", "2"], "γ": []}
SLICE_13_TABLE = {"α": ["a"], "β": [], "γ": ["c"]}


def check_fig3_concept_lists() -> str:
    for name, expected in (("fig3l", FIG3L_CONCEPTS), ("fig3r", FIG3R_CONCEPTS)):
        got = set(enumerate_concepts(fixture(name)).labelled())
        assert got == expected, f"{name}: got {sorted(got)}"
    return "both 7-concept lists reproduced exactly"


def check_fig1_spot_concept() -> str:
    ctx = fixture("fig1")
    cand = ({0, 1}, {0, 1}, {0})
    assert is_concept(ctx, cand), "({α,β},{1,2},{a}) should be a concept"
    assert cand_labelled() in set(enumerate_concepts(ctx).labelled())
    return "({α,β},{1,2},{a}) found among the concepts"


def cand_labelled():
    return (("α", "β"), ("1", "2"), ("a",))


def _expected_2ctx(attrs, table) -> str:
    crosses = [(obj, a) for obj, row in table.items() for a in row]
    return serialize_context(context_from_table((GREEK3, attrs), crosses))


def check_fig2_transforms() -> str:
    ctx = fixture("fig1")
    flat = serialize_context(flatten(ctx, Bipartition((0,), (1, 2))))
    assert flat == _expected_2ctx(PAIR_ATTRS, FLATTENED_TABLE), "flattening differs"
    sl_a = serialize_context(slice_dim(ctx, 2, {0}))
    assert sl_a == _expected_2ctx(("1", "2", "3"), SLICE_A_TABLE), "slice by {a} differs"
    sl_13 = serialize_context(slice_dim(ctx, 1, {0, 2}))
    assert sl_13 == _expected_2ctx(("a", "b", "c"), SLICE_13_TABLE), "slice by {1,3} differs"
    return "flattening and both slices match the reference tables byte for byte"


def check_implication_holds() -> str:
    ctx = fixture("fig1")
    sliced_a = slice_dim(ctx, 2, {0})
    assert holds(sliced_a, parse_implication("3 -> 1,2", scope="slice latin={a}"))
    sliced_3 = slice_dim(ctx, 1, {2})
    assert holds(sliced_3, parse_implication(" -> b", scope="slice numbers={3}"))
    flat = flatten(ctx, Bipartition((0,), (1, 2)))
    assert holds(flat, parse_implication("(1,a) -> (3,b)"))
    return "all three reference implications hold"


def check_classification() -> str:
    left, right = fixture("fig3l"), fixture("fig3r")
    cases = [
        ("(1,b),(1,c) -> (1,a)", Classification.STRUCTURAL, Classification.STRUCTURAL),
        ("(2,a) -> (3,a)", Classification.STRUCTURAL, Classification.STRUCTURAL),
        ("(2,b) -> (1,a)", Classification.CONTEXTUAL, Classification.CONTEXTUAL),
    ]
    for text, want_l, want_r in cases:
        imp = parse_implication(text)
        assert classify(left, imp) == want_l, f"{text} in fig3l"
        assert classify(right, imp) == want_r, f"{text} in fig3r"
    imp = parse_implication("(1,b),(2,a) -> (3,a),(1,c)")
    assert classify(left, imp) == Classification.CONTEXTUAL, "mixed premise in fig3l"
    assert classify(right, imp) != Classification.CONTEXTUAL, "mixed premise in fig3r"
    return "structural and contextual labels match on all reference implications"


def check_canonical_context() -> str:
    left, right = fixture("fig5l"), fixture("fig5r")
    built = canonical_context(left)
    assert built.dims[1:] == right.dims[1:]
    assert sorted(object_rows(built)) == sorted(object_rows(right)), "object rows differ"
    assert lattice_equivalent(left, built), "features not preserved"
    assert lattice_equivalent(left, right), "reference pair disagrees"
    return "canonical form matches the reference table up to object names"


def check_contranominal_counts() -> str:
    for n in (2, 3, 4):
        for s in (1, 2, 3, 4):
            got = count_concepts(contranominal(n, s))
            assert got == n ** s, f"({n},{s}): got {got}"
    return "count n**s confirmed on all 12 shapes, including 16 at (2,4)"


def check_b_class() -> str:
    b33 = b_class((3, 3))
    assert serialize_context(b33) == serialize_context(fixture("fig4")), "generated table differs"
    assert count_concepts(b33) == 51
    fig7 = fixture("fig7")
    assert count_concepts(fig7) == 11
    feats = enumerate_concepts(fig7).features()
    full = frozenset({0, 1})
    wanted = {
        (frozenset(r), frozenset(c))
        for r in _subsets(2) for c in _subsets(2)
        if r and c
    }
    wanted |= {(frozenset(), full), (full, frozenset())}
    assert feats == frozenset(wanted), f"features: {feats}"
    assert lattice_equivalent(fixture("fig8"), b33)
    return "51 and 11 concepts, all rectangles realised, fig8 equivalent to b_class(3,3)"


def _subsets(size: int):
    out = []
    for mask in range(2 ** size):
        out.append([i for i in range(size) if mask >> i & 1])
    return out


def check_rook() -> str:
    crook = fixture("crook")
    assert count_concepts(crook) == 112
    generated = rook_context(4, 3, 0)
    assert generated.relation == crook.relation, "hole sets differ"
    full = set(product(range(3), repeat=4))
    holes = full - set(crook.relation)
    for d in range(4):
        for rest in product(range(3), repeat=3):
            line = 0
            for x in range(3):
                t = rest[:d] + (x,) + rest[d:]
                if t in holes:
                    line += 1
            assert line == 1, f"axis line {d}:{rest} has {line} holes"
    return "112 concepts and a perfect rook covering, matching the generator at offset 0"


def check_direct_sum() -> str:
    assert count_concepts(lower_bound_context_4d(4)) == 448
    a = contranominal(3, 1)
    assert count_concepts(direct_sum(a, a)) == 9
    added = contranominal(4, 1)
    for _ in range(2):
        added = direct_sum(added, contranominal(4, 1))
    assert added.relation == contranominal(4, 3).relation, "summed scales differ"
    return "448 concepts at side 4; summed unit contexts rebuild the contranominal scale"


def check_naive_bounds() -> str:
    for s in (1, 2, 3, 4, 5):
        lo, hi = naive_bounds(2, s)
        assert lo == hi == 2 ** s, f"(2,{s})"
    assert naive_bounds(3, 2) == (9, 11)
    assert naive_bounds(4, 3) == (64, 346)
    return "two-dimensional bounds coincide; (3,2) and (4,3) plug-ins verified"


def check_exhaustive_small() -> str:
    r22 = exhaustive_max_concepts(2, 2)
    assert r22.exact and r22.max_count == 4
    want = canonical_relation_mask(contranominal(2, 2))
    got = {canonical_relation_mask(w) for w in r22.witnesses}
    assert got == {want}, "witness should be the contranominal scale"
    r23 = exhaustive_max_concepts(2, 3)
    assert r23.exact and r23.max_count == 8
    r32 = exhaustive_max_concepts(3, 2)
    assert r32.exact and 9 <= r32.max_count <= 11
    return (
        f"maxima 4, 8 and {r32.max_count} with contranominal witness at (2,2)"
    )


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


CHECKS: list[tuple[str, Callable[[], str]]] = [
    ("concept-lists", check_fig3_concept_lists),
    ("spot-concept", check_fig1_spot_concept),
    ("transform-tables", check_fig2_transforms),
    ("implication-holds", check_implication_holds),
    ("implication-classes", check_classification),
    ("canonical-context", check_canonical_context),
    ("contranominal-counts", check_contranominal_counts),
    ("extremal-class", check_b_class),
    ("rook-covering", check_rook),
    ("direct-sum", check_direct_sum),
    ("naive-bounds", check_naive_bounds),
    ("exhaustive-search", check_exhaustive_small),
]


def run_checks() -> list[CheckResult]:
    results = []
    for name, fn in CHECKS:
        try:
            detail = fn()
            results.append(CheckResult(name, True, detail))
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc) or "assertion failed"))
    return results


def render_results(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        lines.append(f"{status}  {r.name.ljust(width)}  {r.detail}")
    passed = sum(r.ok for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
