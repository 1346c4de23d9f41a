import os
import random
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import pytest

from polyconcept import (
    Classification,
    Implication,
    NContext,
    ResourceLimitError,
    canonical_context,
    classify,
    closure2,
    context_from_table,
    contranominal,
    description,
    dg_base,
    enumerate_concepts,
    fixture,
    holds,
    implication_support,
    lattice_equivalent,
    objects_vs_rest,
    parse_implication,
    random_context,
    serialize_context,
    slice_dim,
    struct_closure,
)


class TestClosure2:
    def test_reference_values(self, fig1):
        flat = objects_vs_rest(fig1)
        assert closure2(flat, ["(1,a)"]) == {"(1,a)", "(2,a)", "(3,b)"}
        bottom_left = slice_dim(fig1, 2, {0})
        assert closure2(bottom_left, []) == frozenset()
        everything = frozenset(flat.dims[1])
        assert closure2(flat, everything) == everything

    def test_unsupported_set_closes_to_all(self):
        ctx = context_from_table([("g",), ("m", "n")], [("g", "m")])
        assert closure2(ctx, ["n"]) == {"m", "n"}

    def test_needs_2_context(self, fig1):
        with pytest.raises(ValueError):
            closure2(fig1, [])


class TestHolds:
    def test_reference_implications(self, fig1):
        sliced = slice_dim(fig1, 2, {0})
        assert holds(sliced, parse_implication("3 -> 1,2"))
        sliced3 = slice_dim(fig1, 1, {2})
        assert holds(sliced3, parse_implication(" -> b"))
        flat = objects_vs_rest(fig1)
        assert holds(flat, parse_implication("(1,a) -> (3,b)"))
        assert not holds(flat, parse_implication("(1,a) -> (3,c)"))

    def test_scope_mismatch(self, fig1):
        flat = objects_vs_rest(fig1)
        with pytest.raises(ValueError):
            holds(flat, parse_implication("(9,z) -> (1,a)"))

    def test_support(self, fig1):
        flat = objects_vs_rest(fig1)
        assert implication_support(flat, parse_implication("(1,a) -> (3,b)")) == {"α", "β"}

    def test_n_context_reads_cells_not_dimension_2(self, fig1):
        with pytest.raises(ValueError, match="cell '2' is not an attribute of this context"):
            holds(fig1, parse_implication("2 -> 3"))
        with pytest.raises(ValueError, match="cell '1' is not an attribute of this context"):
            implication_support(fig1, parse_implication("1 -> 2"))

    @pytest.mark.parametrize("arity", [3, 4])
    def test_n_context_agrees_with_its_flattening(self, arity):
        rng = random.Random(arity)
        for trial in range(40):
            sizes = (rng.randint(1, 5),) + tuple(rng.randint(1, 3) for _ in range(arity - 1))
            ctx = random_context(sizes, rng.random(), seed=trial)
            flat = objects_vs_rest(ctx)
            cells = list(product(*ctx.dims[1:]))
            for _ in range(5):
                imp = Implication.make(
                    [c for c in cells if rng.random() < 0.3],
                    [c for c in cells if rng.random() < 0.3],
                )
                assert holds(ctx, imp) == holds(flat, imp)
                assert implication_support(ctx, imp) == implication_support(flat, imp)


class TestDgBase:
    def brute_closure(self, ctx2, base, attrs):
        cur = set(attrs)
        changed = True
        while changed:
            changed = False
            for imp in base:
                prem = {c[0] for c in imp.premise}
                conc = {c[0] for c in imp.conclusion}
                if prem <= cur and not conc <= cur:
                    cur |= conc
                    changed = True
        return frozenset(cur)

    def test_full_relation(self):
        ctx = context_from_table(
            [("g1", "g2"), ("m1", "m2")],
            [(g, m) for g in ("g1", "g2") for m in ("m1", "m2")],
        )
        base = dg_base(ctx)
        assert len(base) == 1
        (imp,) = base
        assert imp.premise == frozenset()
        assert {c[0] for c in imp.conclusion} == {"m1", "m2"}

    def test_contranominal_base_is_empty(self):
        assert dg_base(contranominal(2, 3)) == []

    def test_reference_slice_base(self, fig1):
        base = dg_base(slice_dim(fig1, 2, {0}))
        by_premise = {frozenset(c[0] for c in imp.premise): imp for imp in base}
        assert frozenset({"3"}) in by_premise
        conclusion = {c[0] for c in by_premise[frozenset({"3"})].conclusion}
        assert {"1", "2"} <= conclusion

    def test_sound_and_complete(self):
        rng = random.Random(6)
        for trial in range(25):
            ctx = random_context((rng.randrange(2, 5), rng.randrange(2, 5)),
                                 rng.random(), seed=trial)
            base = dg_base(ctx)
            attrs = ctx.dims[1]
            for r in range(len(attrs) + 1):
                for sub in combinations(attrs, r):
                    assert self.brute_closure(ctx, base, sub) == closure2(ctx, sub)

    def test_minimal_cardinality(self):
        # the DG base has exactly one implication per pseudo-intent
        rng = random.Random(14)
        for trial in range(10):
            ctx = random_context((3, 4), rng.random(), seed=trial)
            base = dg_base(ctx)
            attrs = ctx.dims[1]
            pseudo = []
            for r in range(len(attrs) + 1):
                for sub in map(frozenset, combinations(attrs, r)):
                    closed = closure2(ctx, sub)
                    if closed == sub:
                        continue
                    if all(closure2(ctx, q) <= sub for q in pseudo if q < sub):
                        pseudo.append(sub)
            assert len(base) == len(pseudo)

    def test_cap(self):
        wide = random_context((2, 21), 0.5, seed=0)
        with pytest.raises(ResourceLimitError):
            dg_base(wide)


class TestStructClosure:
    def test_reference_values(self, fig3l):
        assert ("1", "a") in struct_closure(fig3l, [("1", "b"), ("1", "c")])
        assert ("3", "a") in struct_closure(fig3l, [("2", "a")])
        assert struct_closure(fig3l, [("2", "b")]) == {("2", "b")}

    def test_empty_set_closes_to_shared_canonical_cells(self, fig3l):
        # the canonical objects of fig3l share no cell
        assert struct_closure(fig3l, []) == frozenset()

    def test_labels_with_commas_and_parentheses(self):
        ctx = context_from_table(
            [("g", "h"), ("x,y", "(p"), ("a", "b")],
            [("g", "x,y", "a"), ("g", "(p", "a"), ("h", "(p", "b")],
        )
        assert struct_closure(ctx, [("x,y", "a")]) == {("x,y", "a"), ("(p", "a")}
        assert struct_closure(ctx, [("(p", "b")]) == {("(p", "b")}

    def test_unknown_label_names_its_dimension(self, fig3l):
        with pytest.raises(ValueError, match="no element '9' in dimension 2"):
            struct_closure(fig3l, [("9", "a")])
        with pytest.raises(ValueError, match="no element 'z' in dimension 3"):
            struct_closure(fig3l, [("1", "z")])

    def test_closure_laws(self):
        rng = random.Random(23)
        for trial in range(60):
            ctx = random_context((2, 2, 2), rng.random(), seed=trial)
            cells = list(product(ctx.dims[1], ctx.dims[2]))
            x = frozenset(c for c in cells if rng.random() < 0.3)
            y = x | frozenset(c for c in cells if rng.random() < 0.2)
            cx = struct_closure(ctx, x)
            assert x <= cx
            assert cx <= struct_closure(ctx, y)
            assert struct_closure(ctx, cx) == cx


class TestClassify:
    def test_reference_classifications(self, fig3l, fig3r):
        for text, left_tag, right_tag in [
            ("(1,b),(1,c) -> (1,a)", Classification.STRUCTURAL, Classification.STRUCTURAL),
            ("(2,a) -> (3,a)", Classification.STRUCTURAL, Classification.STRUCTURAL),
            ("(2,b) -> (1,a)", Classification.CONTEXTUAL, Classification.CONTEXTUAL),
        ]:
            imp = parse_implication(text)
            assert classify(fig3l, imp) == left_tag
            assert classify(fig3r, imp) == right_tag

    def test_mixed_premise_contextual_left_only(self, fig3l, fig3r):
        imp = parse_implication("(1,b),(2,a) -> (3,a),(1,c)")
        assert classify(fig3l, imp) == Classification.CONTEXTUAL
        assert classify(fig3r, imp) != Classification.CONTEXTUAL

    def test_holds_in_first_only_example(self, fig3l, fig3r):
        imp = parse_implication("(2,a) -> (1,b)")
        assert classify(fig3l, imp) == Classification.CONTEXTUAL
        assert classify(fig3r, imp) == Classification.NOT_HOLDING

    def test_classified_implies_holds(self, fig3l):
        rng = random.Random(3)
        cells = list(product(fig3l.dims[1], fig3l.dims[2]))
        flat = objects_vs_rest(fig3l)
        for trial in range(60):
            prem = frozenset(c for c in cells if rng.random() < 0.25)
            conc = frozenset(c for c in cells if rng.random() < 0.25)
            imp = Implication.make(prem, conc)
            tag = classify(fig3l, imp)
            if tag != Classification.NOT_HOLDING:
                assert holds(flat, imp)

    def test_structural_survives_feature_preserving_contexts(self, fig3l, fig3r):
        # fig3l and fig3r share a feature set; so does their canonical form
        rng = random.Random(4)
        cells = list(product(fig3l.dims[1], fig3l.dims[2]))
        contexts = [fig3r, canonical_context(fig3l)]
        for trial in range(120):
            prem = frozenset(c for c in cells if rng.random() < 0.3)
            conc = frozenset(c for c in cells if rng.random() < 0.3)
            imp = Implication.make(prem, conc)
            if classify(fig3l, imp) is not Classification.STRUCTURAL:
                continue
            for other in contexts:
                assert holds(objects_vs_rest(other), imp), (prem, conc)

    def test_scope_mismatch(self, fig3l):
        with pytest.raises(ValueError):
            classify(fig3l, parse_implication("(9,9) -> (1,a)"))

    def test_ambiguous_flattened_labels_are_refused(self):
        # cells (x,y ; a) and (x ; y,a) would both be the attribute "(x,y,a)"
        ctx = context_from_table(
            [("g",), ("x,y", "x"), ("a", "y,a")], [("g", "x,y", "a")]
        )
        with pytest.raises(ValueError, match="duplicate labels"):
            classify(ctx, Implication.make([("x,y", "a")], []))


class TestCanonicalContext:
    def test_reference_pair(self, fig5l, fig5r):
        built = canonical_context(fig5l)
        assert built.dims[1:] == fig5r.dims[1:]
        rows_built = sorted(
            sorted(description(built, o)) for o in range(len(built.dims[0]))
        )
        rows_ref = sorted(
            sorted(description(fig5r, o)) for o in range(len(fig5r.dims[0]))
        )
        assert rows_built == rows_ref

    def test_feature_preservation_on_reference_pairs(self, fig3l, fig3r, fig5l):
        for ctx in (fig3l, fig3r, fig5l):
            can = canonical_context(ctx)
            assert enumerate_concepts(ctx).features() == enumerate_concepts(can).features()

    def test_idempotent_on_reference_pairs(self, fig3l, fig5l):
        for ctx in (fig3l, fig5l):
            once = canonical_context(ctx)
            twice = canonical_context(once)
            assert serialize_context(once) == serialize_context(twice)

    def test_empty_relation(self):
        ctx = random_context((2, 2, 2), 0.0, seed=0)
        can = canonical_context(ctx)
        assert enumerate_concepts(ctx).features() == enumerate_concepts(can).features()


class TestLatticeEquivalent:
    def test_reference_pairs(self, fig3l, fig3r):
        assert lattice_equivalent(fig3l, fig3r)
        assert lattice_equivalent(fig3l, canonical_context(fig3l))
        assert lattice_equivalent(fixture("fig4"), fixture("fig8"))

    def test_negative(self, fig3l):
        lone = context_from_table(
            (("x",), fig3l.dims[1], fig3l.dims[2]),
            [("x", "1", "a")],
        )
        assert not lattice_equivalent(fig3l, lone)

    def test_dimension_mismatch(self, fig3l):
        with pytest.raises(ValueError):
            lattice_equivalent(fig3l, fixture("fig7"))

    def test_agrees_with_concept_features(self):
        # enumerate_concepts(...).features() shares no code with the
        # component masks lattice_equivalent compares
        rng = random.Random(41)
        verdicts = []
        for trial in range(200):
            rest = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
            c1 = random_context((rng.randint(1, 5),) + rest, rng.random(), seed=trial)
            kind = trial % 3
            if kind == 0:
                c2 = canonical_context(c1)
            elif kind == 1:
                order = list(range(c1.sizes[0]))
                rng.shuffle(order)
                c2 = NContext.build(c1.dims, ((order[t[0]],) + t[1:] for t in c1.relation))
            else:
                c2 = random_context((rng.randint(1, 5),) + rest, rng.random(), seed=1000 + trial)
            same = enumerate_concepts(c1).features() == enumerate_concepts(c2).features()
            assert lattice_equivalent(c1, c2) == same
            verdicts.append(same)
        assert any(verdicts) and not all(verdicts)


class TestParseImplication:
    def test_forms(self):
        imp = parse_implication("(1,a),(1,b) -> (1,c)")
        assert imp.premise == {("1", "a"), ("1", "b")}
        assert imp.conclusion == {("1", "c")}
        bare = parse_implication("3 -> 1,2")
        assert bare.premise == {("3",)}
        assert bare.conclusion == {("1",), ("2",)}
        empty = parse_implication(" -> b")
        assert empty.premise == frozenset()

    def test_str_round_trip(self):
        imp = parse_implication("(1,a),(2,b) -> (3,c)")
        again = parse_implication(str(imp))
        assert again.premise == imp.premise and again.conclusion == imp.conclusion

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_implication("no arrow here")
        with pytest.raises(ValueError):
            parse_implication("a -> b -> c")


class TestUnknownCellError:
    def test_names_the_least_unknown_cell_under_any_hash_seed(self):
        # b, c and d are all unknown; the message must not follow hash order
        root = Path(__file__).resolve().parent.parent
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        code = (
            "from polyconcept import classify, fixture, parse_implication\n"
            "try:\n"
            "    classify(fixture('fig3l'), parse_implication('b,c,d -> a'))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        for seed in range(6):
            env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(seed))
            done = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert done.stdout == "cell 'b' is not an attribute of this context\n", done.stderr
