from itertools import product

import pytest

from polyconcept import (
    FIXTURE_NAMES,
    ResourceLimitError,
    Shape,
    b_class,
    contranominal,
    count_concepts,
    description,
    enumerate_concepts,
    fixture,
    random_context,
    rook_context,
    serialize_context,
)


class TestShape:
    def test_cubic(self):
        assert Shape.cubic(4, 3).sizes == (3, 3, 3, 3)
        assert Shape((2, 3)).arity == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            Shape((3,))
        with pytest.raises(ValueError):
            Shape((0, 2))


class TestContranominal:
    def test_diagonal_holes(self):
        ctx = contranominal(2, 4)
        holes = set(product(range(4), repeat=2)) - set(ctx.relation)
        assert holes == {(x, x) for x in range(4)}
        assert count_concepts(ctx) == 16

    def test_unit_side(self):
        for n in (2, 3, 5):
            ctx = contranominal(n, 1)
            assert ctx.relation == frozenset()
            assert count_concepts(ctx) == n

    def test_power_counts(self):
        for s in (1, 2, 3):
            assert count_concepts(contranominal(3, s)) == 3 ** s

    def test_validation(self):
        with pytest.raises(ValueError):
            contranominal(1, 3)
        with pytest.raises(ValueError):
            contranominal(2, 0)


class TestBClass:
    def test_matches_reference_table(self):
        assert serialize_context(b_class((3, 3))) == serialize_context(fixture("fig4"))

    def test_object_order_is_reverse_removal(self):
        ctx = b_class((3, 3))
        # α misses the letter column c, ζ misses the number row 1
        alpha = description(ctx, 0)
        assert alpha == frozenset((n, l) for n in range(3) for l in range(2))
        zeta = description(ctx, 5)
        assert zeta == frozenset((n, l) for n in range(1, 3) for l in range(3))

    def test_count_formula(self):
        for j in [(2,), (3,), (2, 2), (3, 3), (2, 3), (2, 2, 2)]:
            ctx = b_class(j)
            expected = 1
            for size in j:
                expected *= 2 ** size - 1
            expected += len(j)
            assert count_concepts(ctx) == expected, j

    def test_all_feature_boxes_realised(self):
        ctx = b_class((2, 2))
        feats = enumerate_concepts(ctx).features()
        full = frozenset({0, 1})
        wanted = {
            (frozenset(a), frozenset(b))
            for a in ({0}, {1}, {0, 1})
            for b in ({0}, {1}, {0, 1})
        }
        wanted |= {(frozenset(), full), (full, frozenset())}
        assert feats == wanted

    def test_validation(self):
        with pytest.raises(ValueError):
            b_class(())
        with pytest.raises(ValueError):
            b_class((0, 2))


class TestRook:
    def test_matches_reference_holes(self, crook):
        assert rook_context(4, 3, 0).relation == crook.relation

    def test_degenerates_to_contranominal_in_2d(self):
        for s in (2, 3, 4):
            assert rook_context(2, s, 0).relation == contranominal(2, s).relation

    def test_one_hole_per_axis_line(self):
        for n, s, c in [(3, 3, 1), (3, 4, 2), (4, 2, 0)]:
            ctx = rook_context(n, s, c)
            holes = set(product(range(s), repeat=n)) - set(ctx.relation)
            for d in range(n):
                for rest in product(range(s), repeat=n - 1):
                    count = sum(
                        rest[:d] + (x,) + rest[d:] in holes for x in range(s)
                    )
                    assert count == 1

    def test_offsets_shift_holes(self):
        a = rook_context(3, 3, 0)
        b = rook_context(3, 3, 1)
        assert a.relation != b.relation
        assert len(a.relation) == len(b.relation)

    def test_validation(self):
        with pytest.raises(ValueError):
            rook_context(2, 1, 0)


class TestRandomContext:
    def test_density_extremes(self):
        empty = random_context((2, 3), 0.0, seed=1)
        assert empty.relation == frozenset()
        full = random_context((2, 2, 2), 1.0, seed=1)
        assert len(full.relation) == 8
        assert count_concepts(full) == 1

    def test_seed_determinism(self):
        a = random_context((3, 3, 3), 0.5, seed=42)
        b = random_context((3, 3, 3), 0.5, seed=42)
        c = random_context((3, 3, 3), 0.5, seed=43)
        assert a == b
        assert a != c

    def test_accepts_shape(self):
        assert random_context(Shape.cubic(2, 3), 0.5, seed=0).sizes == (3, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_context((2, 2), 1.5, seed=0)


@pytest.mark.parametrize("build", [
    lambda: contranominal(2, 4097),
    lambda: b_class((2049, 4096)),
    lambda: rook_context(2, 4097),
    lambda: random_context((4097, 4097), 0.5, 1),
], ids=["contranominal", "b_class", "rook", "random"])
def test_families_refuse_too_many_cells(build):
    with pytest.raises(ResourceLimitError, match="cells exceed the cap of 16777216"):
        build()


class TestFixtures:
    def test_all_load(self):
        for name in FIXTURE_NAMES:
            ctx = fixture(name)
            assert ctx.arity >= 2

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            fixture("fig99")

    def test_reference_cross_counts(self, fig1, crook):
        # 11 crosses in the triadic table, verified against its flattening
        assert len(fig1.relation) == 11
        assert len(crook.relation) == 81 - 27

    def test_crook_holes(self, crook):
        holes = set(product(range(3), repeat=4)) - set(crook.relation)
        assert len(holes) == 27
        for t in holes:
            assert t[1] == (t[0] + t[2] + t[3]) % 3
