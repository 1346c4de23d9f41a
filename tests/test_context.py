import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyconcept import (
    ConceptSet,
    NContext,
    box_full,
    check_n_ordered,
    contains,
    description,
    enumerate_concepts,
    features,
    from_dense,
    is_concept,
    quasi_leq,
    random_context,
    to_dense,
)


def idx(ctx, dim, label):
    return ctx.index_of(dim, label)


class TestNContext:
    def test_validation(self):
        with pytest.raises(ValueError):
            NContext.build([("a",)], [])  # arity 1
        with pytest.raises(ValueError):
            NContext.build([("a", "a"), ("x",)], [])  # duplicate labels
        with pytest.raises(ValueError):
            NContext.build([("a",), ("x",)], [(0, 5)])  # out of range
        with pytest.raises(ValueError):
            NContext.build([("a",), ("x",)], [(0, 0, 0)])  # arity mismatch

    def test_basic_accessors(self, fig1):
        assert fig1.arity == 3
        assert fig1.sizes == (3, 3, 3)
        assert fig1.cell_count() == 27
        assert len(fig1.relation) == 11
        assert fig1.index_of(0, "β") == 1
        with pytest.raises(ValueError):
            fig1.index_of(0, "zzz")

    def test_immutability_and_hash(self, fig1):
        assert hash(fig1) == hash(NContext(fig1.dims, fig1.relation))

    def test_dense_round_trip(self, fig1):
        arr = to_dense(fig1)
        assert arr.shape == (3, 3, 3)
        assert int(arr.sum()) == 11
        back = from_dense(arr, fig1.dims)
        assert back == fig1
        assert from_dense(np.zeros((2, 2), dtype=bool)).relation == frozenset()


class TestContains:
    def test_reference_cells(self, fig1):
        a = (idx(fig1, 0, "α"), idx(fig1, 1, "1"), idx(fig1, 2, "a"))
        b = (idx(fig1, 0, "α"), idx(fig1, 1, "1"), idx(fig1, 2, "b"))
        assert contains(fig1, a) is True
        assert contains(fig1, b) is False
        # set semantics: asking twice gives the same answer
        assert contains(fig1, a) == contains(fig1, a)

    def test_errors(self, fig1):
        with pytest.raises(ValueError):
            contains(fig1, (0, 0))
        with pytest.raises(ValueError):
            contains(fig1, (0, 0, 9))


class TestBoxFull:
    def test_reference_boxes(self, fig1):
        assert box_full(fig1, ({0, 1}, {0, 1}, {0}))
        assert not box_full(fig1, ({0}, {0}, {1}))

    def test_empty_component_is_vacuous(self, fig1):
        assert box_full(fig1, (set(), {0, 1, 2}, {0, 1, 2}))

    def test_arity_mismatch(self, fig1):
        with pytest.raises(ValueError):
            box_full(fig1, ({0}, {0}))

    def test_monotone_decreasing_under_growth(self):
        import random

        rng = random.Random(17)
        for trial in range(100):
            ctx = random_context((3, 2, 3), rng.random(), seed=trial)
            comps = [frozenset(x for x in range(s) if rng.random() < 0.5)
                     for s in ctx.sizes]
            d = rng.randrange(3)
            outside = [x for x in range(ctx.sizes[d]) if x not in comps[d]]
            if not outside:
                continue
            grown = list(comps)
            grown[d] = comps[d] | {rng.choice(outside)}
            if box_full(ctx, grown):
                assert box_full(ctx, comps)


class TestIsConcept:
    def test_reference_concepts(self, fig1, fig3l):
        assert is_concept(fig1, ({0, 1}, {0, 1}, {0}))
        # dropping element 2 from the middle component leaves it extendable
        assert not is_concept(fig1, ({0, 1}, {0}, {0}))
        assert is_concept(fig3l, (set(), {0, 1, 2}, {0, 1, 2}))

    def test_arity_mismatch(self, fig1):
        with pytest.raises(ValueError):
            is_concept(fig1, ({0},))


class TestDescription:
    def test_reference_rows(self, fig1):
        alpha = {(0, 0), (1, 0), (2, 0), (2, 1)}
        gamma = {(0, 2), (2, 1), (2, 2)}
        assert description(fig1, 0) == frozenset(alpha)
        assert description(fig1, 2) == frozenset(gamma)

    def test_empty_relation(self):
        ctx = NContext.build([("g",), ("m", "n")], [])
        assert description(ctx, 0) == frozenset()

    def test_invalid_object(self, fig1):
        with pytest.raises(ValueError):
            description(fig1, 7)


class TestQuasiOrders:
    def test_inclusion(self):
        a = (frozenset({0}), frozenset({1}))
        b = (frozenset({0, 1}), frozenset({1}))
        assert quasi_leq(0, a, b)
        assert not quasi_leq(0, b, a)

    @given(st.sets(st.integers(0, 5)))
    @settings(max_examples=50)
    def test_reflexive(self, xs):
        c = (frozenset(xs), frozenset(xs))
        assert quasi_leq(0, c, c) and quasi_leq(1, c, c)

    def test_reference_pair(self, fig3l):
        cs = enumerate_concepts(fig3l)
        by_label = {tuple(tuple(sorted(x)) for x in c): c for c in cs}
        a = by_label[((1,), (1,), (1,))]          # ({β},{2},{b})
        b = by_label[((0, 1), (), (0, 1, 2))]     # ({α,β},{},{a,b,c})
        assert quasi_leq(2, a, b)


class TestNOrdered:
    def test_reference_sets_are_n_ordered(self, fig1, crook):
        for ctx in (fig1, crook):
            report = check_n_ordered(enumerate_concepts(ctx))
            assert report.ok, report.violations

    def test_antiordinal_violation_detected(self, fig1):
        bad = ConceptSet(
            fig1,
            (
                (frozenset({0}), frozenset({0}), frozenset({0})),
                (frozenset({0}), frozenset({0}), frozenset({1})),
            ),
        )
        report = check_n_ordered(bad)
        assert not report.ok
        assert any("antiordinal" in v for v in report.violations)

    def test_uniqueness_holds_by_representation(self, fig3l):
        # concepts equal in every component are the same tuple, so the
        # uniqueness condition cannot be violated by a ConceptSet
        report = check_n_ordered(enumerate_concepts(fig3l))
        assert report.ok


class TestFeatures:
    def test_reference_features(self, fig3l, fig3r):
        f_left = enumerate_concepts(fig3l).features()
        f_right = enumerate_concepts(fig3r).features()
        assert len(f_left) == 7
        assert f_left == f_right
        assert (frozenset({0}), frozenset({0, 1, 2})) in f_left
        assert (frozenset({1}), frozenset({1})) in f_left

    def test_single_concept(self):
        single = [(frozenset({0}), frozenset({1}), frozenset({0}))]
        assert len(features(single)) == 1

