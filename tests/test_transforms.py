import random
from itertools import product

import pytest

from polyconcept import (
    Bipartition,
    contranominal,
    count_concepts,
    direct_sum,
    flatten,
    objects_vs_rest,
    random_context,
    slice_dim,
)


class TestBipartition:
    def test_validation(self):
        Bipartition((0,), (1, 2)).validate(3)
        with pytest.raises(ValueError):
            Bipartition((), (0, 1)).validate(2)
        with pytest.raises(ValueError):
            Bipartition((0,), (0, 1)).validate(2)
        with pytest.raises(ValueError):
            Bipartition((0,), (2,)).validate(3)

    @pytest.mark.parametrize("left, right", [
        ((0, 0), (1, 2)),
        ((0,), (1, 1, 2)),
        ((0, 1, 1), (2,)),
    ])
    def test_repeated_dimension_is_refused(self, left, right):
        with pytest.raises(ValueError, match="repeats a dimension"):
            Bipartition(left, right).validate(3)


class TestFlatten:
    def test_reference_table(self, fig1):
        flat = flatten(fig1, Bipartition((0,), (1, 2)))
        assert flat.dims[0] == ("α", "β", "γ")
        assert flat.dims[1] == tuple(f"({n},{l})" for n in "123" for l in "abc")
        alpha_row = {flat.dims[1][a] for (o, a) in flat.relation if o == 0}
        assert alpha_row == {"(1,a)", "(2,a)", "(3,a)", "(3,b)"}

    def test_identity_on_2_contexts(self):
        ctx = random_context((3, 4), 0.5, seed=1)
        assert flatten(ctx, Bipartition((0,), (1,))) == ctx

    def test_cross_count_preserved(self):
        rng = random.Random(2)
        for trial in range(20):
            ctx = random_context((2, 3, 2), rng.random(), seed=trial)
            for left in ((0,), (1,), (0, 2), (2,)):
                right = tuple(d for d in range(3) if d not in left)
                flat = flatten(ctx, Bipartition(left, right))
                assert len(flat.relation) == len(ctx.relation)

    def test_injective_for_fixed_bipartition(self):
        p = Bipartition((0,), (1, 2))
        seen = {}
        for trial in range(40):
            ctx = random_context((2, 2, 2), 0.5, seed=trial)
            flat = flatten(ctx, p)
            if flat.relation in seen:
                assert seen[flat.relation] == ctx.relation
            seen[flat.relation] = ctx.relation

    def test_objects_vs_rest(self, fig1):
        assert objects_vs_rest(fig1) == flatten(fig1, Bipartition((0,), (1, 2)))

    def test_invalid_bipartition(self, fig1):
        with pytest.raises(ValueError):
            flatten(fig1, Bipartition((0,), (1,)))


class TestSlice:
    def test_reference_slices(self, fig1):
        bl = slice_dim(fig1, 2, {0})
        rows = {
            bl.dims[0][o]: {bl.dims[1][x] for (oo, x) in bl.relation if oo == o}
            for o in range(3)
        }
        assert rows == {"α": {"1", "2", "3"}, "β": {"1", "2"}, "γ": set()}
        br = slice_dim(fig1, 1, {0, 2})
        rows = {
            br.dims[0][o]: {br.dims[1][x] for (oo, x) in br.relation if oo == o}
            for o in range(3)
        }
        assert rows == {"α": {"a"}, "β": set(), "γ": {"c"}}

    def test_empty_subset_gives_full_product(self, fig1):
        sliced = slice_dim(fig1, 2, set())
        assert len(sliced.relation) == 9

    def test_anti_monotone(self):
        rng = random.Random(8)
        for trial in range(30):
            ctx = random_context((2, 3, 3), rng.random(), seed=trial)
            small = {0}
            big = {0, rng.randrange(1, 3)}
            assert slice_dim(ctx, 2, big).relation <= slice_dim(ctx, 2, small).relation

    def test_composition_commutes(self):
        rng = random.Random(13)
        for trial in range(20):
            ctx = random_context((2, 2, 3, 2), rng.random(), seed=trial)
            d_keep = {0}
            b_keep = {1}
            # slicing dimension 3 then dimension 1 equals the reverse order
            one = slice_dim(slice_dim(ctx, 3, d_keep), 1, b_keep)
            other = slice_dim(slice_dim(ctx, 1, b_keep), 2, d_keep)
            assert one == other

    def test_errors(self, fig1):
        with pytest.raises(ValueError):
            slice_dim(fig1, 5, set())
        with pytest.raises(ValueError):
            slice_dim(fig1, 1, {9})
        with pytest.raises(ValueError):
            slice_dim(random_context((2, 2), 0.5, seed=0), 0, set())


class TestDirectSum:
    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            direct_sum(contranominal(2, 2), contranominal(3, 2))

    def test_sizes_additive(self):
        s = direct_sum(random_context((2, 3, 2), 0.5, seed=1),
                       random_context((1, 2, 2), 0.5, seed=2))
        assert s.sizes == (3, 5, 4)

    def test_label_collision_suffixes(self):
        s = direct_sum(contranominal(2, 2), contranominal(2, 2))
        assert s.dims[0] == ("1#1", "2#1", "1#2", "2#2")

    def test_mixed_tuples_always_present(self):
        c1 = random_context((2, 2), 0.3, seed=3)
        c2 = random_context((2, 2), 0.3, seed=4)
        s = direct_sum(c1, c2)
        for t in product(range(4), repeat=2):
            in_first = [t[d] < 2 for d in range(2)]
            if any(in_first) and not all(in_first):
                assert t in s.relation

    def test_pure_blocks_copy_the_summands(self):
        c1 = random_context((2, 2), 0.4, seed=5)
        c2 = random_context((2, 2), 0.4, seed=6)
        s = direct_sum(c1, c2)
        assert {t for t in s.relation if all(x < 2 for x in t)} == c1.relation
        shifted = {tuple(x + 2 for x in t) for t in c2.relation}
        assert {t for t in s.relation if all(x >= 2 for x in t)} == shifted

    def test_concept_multiplicativity(self):
        rng = random.Random(21)
        for trial in range(10):
            c1 = random_context((2, 2, 2), rng.random(), seed=trial)
            c2 = random_context((2, 1, 2), rng.random(), seed=100 + trial)
            assert count_concepts(direct_sum(c1, c2)) == (
                count_concepts(c1) * count_concepts(c2)
            )

    def test_summed_unit_contexts_build_contranominal(self):
        acc = contranominal(3, 1)
        for _ in range(2):
            acc = direct_sum(acc, contranominal(3, 1))
        assert acc.relation == contranominal(3, 3).relation
        assert count_concepts(acc) == 27

    def test_summed_scales_build_bigger_scales(self):
        for n, a, b in [(2, 2, 3), (3, 1, 2), (4, 1, 1), (3, 2, 2)]:
            summed = direct_sum(contranominal(n, a), contranominal(n, b))
            assert summed.relation == contranominal(n, a + b).relation, (n, a, b)

    def test_flatten_composite_labels(self):
        ctx = random_context((2, 2, 2), 0.5, seed=44)
        flat = flatten(ctx, Bipartition((0, 1), (2,)))
        assert flat.dims[0] == ("(1,1)", "(1,2)", "(2,1)", "(2,2)")
        assert flat.dims[1] == ("1", "2")
