import pytest

from polyconcept import (
    ResourceLimitError,
    bounds_report,
    contranominal,
    count_concepts,
    exhaustive_max_concepts,
    lower_bound_context_4d,
    lower_bound_count_4d,
    naive_bounds,
    render_csv,
    render_text,
)
from polyconcept.bounds import canonical_relation_mask

F3_OF_2 = 9  # established by the exhaustive scan of all 256 relations


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
