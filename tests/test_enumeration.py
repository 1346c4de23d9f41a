import random

import pytest

from polyconcept import (
    NContext,
    ResourceLimitError,
    b_class,
    brute_force_concepts,
    contranominal,
    count_concepts,
    enumerate_concepts,
    naive_bounds,
    random_context,
    serialize_concepts,
)

FIG3L_EXPECTED = {
    ((), ("1", "2", "3"), ("a", "b", "c")),
    (("α", "β"), (), ("a", "b", "c")),
    (("α", "β"), ("1", "2", "3"), ()),
    (("α",), ("1",), ("a", "b", "c")),
    (("α",), ("1", "2", "3"), ("a",)),
    (("α", "β"), ("1",), ("a",)),
    (("β",), ("2",), ("b",)),
}


class TestBruteForce:
    def test_reference_lists(self, fig3l):
        got = set(brute_force_concepts(fig3l).labelled())
        assert got == FIG3L_EXPECTED

    def test_one_cell_empty_context_has_n_concepts(self):
        for n in (2, 3, 4):
            ctx = contranominal(n, 1)
            assert len(brute_force_concepts(ctx)) == n

    def test_cap(self):
        ctx = random_context((13, 13), 0.5, seed=0)
        with pytest.raises(ResourceLimitError) as err:
            brute_force_concepts(ctx)
        assert str(2 ** 24) in str(err.value)
        # an explicit higher cap allows the run to be configured
        brute_force_concepts(random_context((2, 2), 0.5, seed=0), cap=16)


class TestEnumerate:
    def test_tesseract(self):
        assert len(enumerate_concepts(contranominal(2, 4))) == 16

    def test_rook_reference(self, crook):
        assert len(enumerate_concepts(crook)) == 112

    def test_extremal_class_count(self):
        assert len(enumerate_concepts(b_class((3, 3)))) == 51

    def test_matches_oracle_on_fixtures(self, fig1, fig3l, fig3r, fig5l):
        for ctx in (fig1, fig3l, fig3r, fig5l):
            assert set(enumerate_concepts(ctx).concepts) == set(
                brute_force_concepts(ctx).concepts
            )

    def test_deterministic_output(self):
        ctx = random_context((3, 3, 3), 0.4, seed=99)
        first = serialize_concepts(enumerate_concepts(ctx), "json")
        second = serialize_concepts(enumerate_concepts(ctx), "json")
        assert first == second

    def test_all_results_are_concepts(self):
        from polyconcept import is_concept

        ctx = random_context((3, 2, 3), 0.5, seed=4)
        for c in enumerate_concepts(ctx):
            assert is_concept(ctx, c)

    def test_nonempty_extents_realise_their_feature(self):
        from polyconcept import description, feature_cells

        ctx = random_context((3, 3, 2), 0.6, seed=12)
        for c in enumerate_concepts(ctx):
            if not c[0]:
                continue
            feat = feature_cells(c[1:])
            for obj in c[0]:
                assert feat <= description(ctx, obj)


class TestCount:
    def test_contranominal_power(self):
        assert count_concepts(contranominal(3, 2)) == 9

    def test_fig7(self):
        from polyconcept import fixture

        assert count_concepts(fixture("fig7")) == 11

    def test_empty_two_by_two(self):
        ctx = NContext.build([("g1", "g2"), ("m1", "m2")], [])
        assert count_concepts(ctx) == 2

    def test_full_relation_has_single_concept(self):
        ctx = random_context((2, 2, 2), 1.0, seed=0)
        assert count_concepts(ctx) == 1
        assert len(brute_force_concepts(ctx)) == 1

    @pytest.mark.parametrize("shape", [
        (2, 2), (3, 3), (2, 2, 2), (3, 3, 2), (2, 2, 2, 2), (3, 2, 2, 2),
    ])
    def test_matches_oracle_count(self, shape):
        rng = random.Random(str(shape))
        densities = [0.0, 1.0] + [rng.random() for _ in range(6)]
        for seed, density in enumerate(densities):
            ctx = random_context(shape, density, seed=seed)
            assert count_concepts(ctx) == len(brute_force_concepts(ctx)), (density, seed)

    def test_counts_stay_below_naive_upper(self):
        rng = random.Random(31)
        for trial in range(30):
            n, s = rng.choice([(3, 2), (3, 3), (2, 4)])
            ctx = random_context((s,) * n, rng.random(), seed=trial)
            _, upper = naive_bounds(n, s)
            assert count_concepts(ctx) <= upper


class TestSizeOrder:
    """Shapes whose sizes are not ascending: the enumerator lays the
    dimensions out smallest first and must map the components back."""

    @pytest.mark.parametrize("shape", [
        (4, 2), (3, 1, 2), (4, 3, 2), (2, 4, 3), (3, 2, 2, 1), (1, 2, 3, 2),
    ])
    def test_matches_oracle(self, shape):
        rng = random.Random(str(shape))
        densities = [0.0, 1.0] + [rng.random() for _ in range(6)]
        for seed, density in enumerate(densities):
            ctx = random_context(shape, density, seed=seed)
            oracle = brute_force_concepts(ctx)
            assert enumerate_concepts(ctx) == oracle, (density, seed)
            assert count_concepts(ctx) == len(oracle), (density, seed)
