"""Structural implications survive any redistribution of feature classes.

Contexts built by handing each object a union of cohabitation classes (every
class covered somewhere) stay in the same feature-equivalence class; the
implications classified structural must keep holding in all of them, while
contextual ones are free to disappear.
"""

import random
from itertools import product

from polyconcept import (
    Classification,
    Implication,
    canonical_context,
    classify,
    description,
    enumerate_concepts,
    fixture,
    holds,
    lattice_equivalent,
    NContext,
    objects_vs_rest,
    parse_implication,
)


def class_descriptions(ctx):
    can = canonical_context(ctx)
    return [frozenset(description(can, o)) for o in range(len(can.dims[0]))]


def reshuffled_contexts(ctx, seed, count):
    """Same-feature-set contexts: objects carry unions of feature classes."""
    classes = class_descriptions(ctx)
    rng = random.Random(seed)
    built = []
    attempts = 0
    while len(built) < count and attempts < count * 20:
        attempts += 1
        n_objects = rng.randint(len(classes), len(classes) + 2)
        assignment = [set() for _ in range(n_objects)]
        for k, cls in enumerate(classes):
            assignment[rng.randrange(n_objects)].add(k)
        for o in range(n_objects):
            for k in range(len(classes)):
                if rng.random() < 0.25:
                    assignment[o].add(k)
        relation = set()
        for o, ks in enumerate(assignment):
            for k in ks:
                for cell in classes[k]:
                    relation.add((o,) + cell)
        labels = tuple(f"g{o + 1}" for o in range(n_objects))
        candidate = NContext.build((labels,) + ctx.dims[1:], relation)
        if lattice_equivalent(ctx, candidate):
            built.append(candidate)
    return built


class TestStructuralAcrossTheClass:
    def test_reference_class(self):
        ctx = fixture("fig3l")
        others = reshuffled_contexts(ctx, seed=7, count=12)
        assert len(others) >= 8, "reshuffle generator starved"
        cells = list(product(ctx.dims[1], ctx.dims[2]))
        rng = random.Random(8)
        structural_seen = 0
        for trial in range(300):
            prem = frozenset(c for c in cells if rng.random() < 0.3)
            conc = frozenset(c for c in cells if rng.random() < 0.3)
            imp = Implication.make(prem, conc)
            if classify(ctx, imp) is not Classification.STRUCTURAL:
                continue
            structural_seen += 1
            for other in others:
                assert holds(objects_vs_rest(other), imp), (prem, conc)
        assert structural_seen >= 20

    def test_known_structural_fixtures_survive(self):
        ctx = fixture("fig3l")
        others = reshuffled_contexts(ctx, seed=17, count=10)
        for text in ["(1,b),(1,c) -> (1,a)", "(2,a) -> (3,a)"]:
            imp = parse_implication(text)
            for other in others:
                assert holds(objects_vs_rest(other), imp), text

    def test_contextual_fixture_can_disappear(self):
        ctx = fixture("fig3l")
        imp = parse_implication("(2,b) -> (1,a)")
        assert classify(ctx, imp) == Classification.CONTEXTUAL
        disappeared = False
        for other in reshuffled_contexts(ctx, seed=23, count=20):
            if not holds(objects_vs_rest(other), imp):
                disappeared = True
                break
        assert disappeared, "a contextual implication held in every reshuffle"

    def test_reshuffles_share_features(self):
        ctx = fixture("fig5l")
        for other in reshuffled_contexts(ctx, seed=29, count=6):
            assert enumerate_concepts(other).features() == enumerate_concepts(ctx).features()
