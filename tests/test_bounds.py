import random
import time
from itertools import permutations, product
from math import factorial

import pytest

from polyconcept import (
    ResourceLimitError,
    bounds_report,
    brute_force_concepts,
    contranominal,
    count_concepts,
    exhaustive_max_concepts,
    lower_bound_context_4d,
    lower_bound_count_4d,
    naive_bounds,
    render_csv,
    render_text,
)
from polyconcept import bounds
from polyconcept.bounds import GROUP_CAP, canonical_relation_mask

F3_OF_2 = 9  # established by the exhaustive scan of all 256 relations


def plain_group(n, s):
    """Cell maps of the symmetry group of shape (n, s), built cell by cell."""
    cells = list(product(range(s), repeat=n))
    index = {t: i for i, t in enumerate(cells)}
    return [
        [index[tuple(q[d][t[p[d]]] for d in range(n))] for t in cells]
        for p in permutations(range(n))
        for q in product(list(permutations(range(s))), repeat=n)
    ]


def plain_least_image(group, mask):
    return min(sum(1 << image[i] for i in range(len(image)) if mask >> i & 1)
               for image in group)


def cycles(image):
    seen, count = set(), 0
    for start in range(len(image)):
        if start not in seen:
            count += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = image[i]
    return count


class TestNaiveBounds:
    def test_two_dimensions_coincide(self):
        for s in range(1, 8):
            lower, upper = naive_bounds(2, s)
            assert lower == upper == 2 ** s

    def test_reference_values(self):
        assert naive_bounds(3, 2) == (9, 11)
        assert naive_bounds(4, 3) == (64, 346)

    def test_big_values_are_exact_integers(self):
        lower, upper = naive_bounds(5, 40)
        assert lower == 5 ** 40
        assert upper == (2 ** 40 - 1) ** 4 + 4

    def test_validation(self):
        with pytest.raises(ValueError):
            naive_bounds(1, 3)
        with pytest.raises(ValueError):
            naive_bounds(2, 0)


class TestLowerBound4d:
    def test_side_three_is_the_rook_context(self, crook):
        ctx = lower_bound_context_4d(3)
        assert ctx.relation == crook.relation
        assert count_concepts(ctx) == 112

    def test_side_four_count(self):
        ctx = lower_bound_context_4d(4)
        assert ctx.sizes == (4, 4, 4, 4)
        assert count_concepts(ctx) == 448

    def test_predicted_counts(self):
        assert lower_bound_count_4d(3) == 112
        assert lower_bound_count_4d(4) == 448
        assert lower_bound_count_4d(6) == 112 ** 2
        assert lower_bound_count_4d(7) == 112 ** 2 * 4

    def test_validation(self):
        with pytest.raises(ValueError):
            lower_bound_context_4d(2)
        with pytest.raises(ValueError):
            lower_bound_count_4d(1)


class TestExhaustiveSearch:
    def test_two_by_two(self):
        result = exhaustive_max_concepts(2, 2)
        assert result.exact and result.max_count == 4
        assert len(result.witnesses) == 1
        witness = result.witnesses[0]
        assert canonical_relation_mask(witness) == canonical_relation_mask(
            contranominal(2, 2)
        )

    def test_two_by_three(self):
        result = exhaustive_max_concepts(2, 3)
        assert result.exact and result.max_count == 8

    def test_three_by_two_frozen_value(self):
        result = exhaustive_max_concepts(3, 2)
        assert result.exact
        assert 9 <= result.max_count <= 11
        assert result.max_count == F3_OF_2

    def test_symmetry_reduction_does_not_change_the_maximum(self):
        for n, s in [(2, 2), (3, 2)]:
            reduced = exhaustive_max_concepts(n, s)
            unreduced = exhaustive_max_concepts(n, s, symmetry_reduction=False)
            assert reduced.max_count == unreduced.max_count
            assert reduced.examined < unreduced.examined

    def test_budget_yields_partial_result(self):
        result = exhaustive_max_concepts(2, 2, max_relations=3)
        assert not result.exact
        assert result.examined == 3
        assert result.max_count <= 4

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_is_rejected(self, budget):
        with pytest.raises(ValueError, match=f"at least 1, got {budget}"):
            exhaustive_max_concepts(2, 2, max_relations=budget)

    def test_cap_on_large_spaces(self):
        with pytest.raises(ResourceLimitError):
            exhaustive_max_concepts(3, 3)

    @pytest.mark.parametrize("n,s,orbits", [(2, 2, 6), (2, 3, 26), (3, 2, 22),
                                            (4, 2, 402), (2, 4, 192)])
    def test_full_scan_examines_one_relation_per_orbit(self, n, s, orbits):
        group = plain_group(n, s)
        burnside, rest = divmod(sum(2 ** cycles(g) for g in group), len(group))
        assert rest == 0 and burnside == orbits
        assert exhaustive_max_concepts(n, s).examined == orbits

    def test_four_by_two(self):
        report = bounds_report(4, 2)
        assert report.exact == report.best_known_lower == 17
        assert report.best_known_source == "exhaustive-search"
        assert len(report.witnesses) == 1
        assert len(brute_force_concepts(report.witnesses[0])) == 17

    def test_witness_recount_must_agree(self, monkeypatch):
        monkeypatch.setattr(bounds, "brute_force_concepts", lambda ctx: ())
        with pytest.raises(RuntimeError, match="brute force"):
            exhaustive_max_concepts(2, 2)

    @pytest.mark.parametrize("s", [6, 8])
    @pytest.mark.parametrize("symmetry", [True, False])
    def test_oversized_group_is_refused_at_once(self, s, symmetry):
        order = 2 * factorial(s) ** 2
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=f"group of order {order} "):
            exhaustive_max_concepts(2, s, symmetry_reduction=symmetry, max_relations=1)
        assert time.perf_counter() - start < 1

    def test_oversized_group_is_refused_before_the_space_is_built(self):
        # 2 ** 2 ** 40 would be a 128 GiB integer
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="symmetry group of order "):
            exhaustive_max_concepts(40, 2, max_relations=1)
        assert time.perf_counter() - start < 1

    def test_group_cap_comes_before_the_space_cap(self):
        with pytest.raises(ResourceLimitError, match="group of order 1036800 "):
            exhaustive_max_concepts(2, 6)

    @pytest.mark.parametrize("n,s", [(3, 4), (4, 3), (6, 2), (2, 5)])
    def test_groups_under_the_cap(self, n, s):
        assert factorial(n) * factorial(s) ** n * s ** n <= GROUP_CAP

    def test_side_one_group_is_the_identity_once(self):
        group = bounds._group(10, 1)
        assert group.shape == (1, 1) and group[0, 0] == 0

    def test_two_by_five_budget(self):
        result = exhaustive_max_concepts(2, 5, max_relations=2)
        assert not result.exact and result.examined == 2


class TestCanonicalForm:
    def test_every_two_by_two_mask(self):
        group = plain_group(2, 2)
        masks = range(2 ** 4)
        assert bounds._canonical(bounds._tables(2, 2), masks) == [
            plain_least_image(group, m) for m in masks
        ]

    @pytest.mark.parametrize("n,s,word", [(2, 3, 64), (3, 3, 64), (4, 2, 64),
                                          (2, 3, 4), (3, 2, 2)])
    def test_seeded_masks(self, monkeypatch, n, s, word):
        # a narrow word makes these shapes take the several-word path that
        # shapes of more than 64 cells take
        monkeypatch.setattr(bounds, "WORD", word)
        group = plain_group(n, s)
        rng = random.Random(13)
        masks = [rng.getrandbits(s ** n) for _ in range(200)]
        got = [least for _, least in bounds._least_images(bounds._tables(n, s), masks)]
        assert got == [plain_least_image(group, m) for m in masks]

    def test_relation_mask_of_a_context(self):
        ctx = contranominal(3, 2)
        group = plain_group(3, 2)
        mask = sum(1 << (4 * a + 2 * b + c) for a, b, c in ctx.relation)
        assert canonical_relation_mask(ctx) == plain_least_image(group, mask)


class TestBoundsReport:
    def test_rook_shape(self):
        report = bounds_report(4, 3)
        assert report.naive_lower == 64
        assert report.naive_upper == 346
        assert report.best_known_lower == 112
        assert report.best_known_source == "rook-direct-sum"
        assert report.exact is None
        assert len(report.witnesses) == 1
        assert count_concepts(report.witnesses[0]) == 112

    def test_two_dimensional_gap_is_zero(self):
        report = bounds_report(2, 5, run_search=False)
        assert report.naive_lower == report.naive_upper == 32

    def test_three_dimensional_annotation(self):
        report = bounds_report(3, 6, run_search=False)
        assert any("3.359" in a and "3.384" in a for a in report.annotations)

    def test_over_cap_advice_fits_the_library(self):
        with pytest.raises(ResourceLimitError) as info:
            bounds_report(3, 3, run_search=True)
        message = str(info.value)
        assert "exhaustive_max_concepts(3, 3, max_relations=N)" in message
        assert "pass max_relations" not in message

    def test_search_backed_exact(self):
        report = bounds_report(3, 2)
        assert report.exact == F3_OF_2
        assert report.best_known_lower == F3_OF_2
        assert report.witnesses
        assert all(count_concepts(w) == F3_OF_2 for w in report.witnesses)

    def test_invariant_ordering(self):
        for n, s in [(2, 3), (3, 2), (3, 5), (4, 3), (4, 6), (5, 4)]:
            r = bounds_report(n, s, run_search=False)
            assert r.naive_lower <= r.best_known_lower <= r.naive_upper
            if r.exact is not None:
                assert r.best_known_lower <= r.exact <= r.naive_upper

    def test_renderings(self):
        report = bounds_report(4, 3)
        text = render_text(report)
        assert "112" in text and "346" in text
        csv_text = render_csv([report])
        lines = csv_text.strip().splitlines()
        assert lines[0] == "n,s,naive_lower,best_lower,best_lower_source,exact,naive_upper,witness_file"
        assert lines[1].startswith("4,3,64,112,rook-direct-sum,,346")
