"""Cross-checks of lattice_equivalent against quasi-order isomorphism.

Feature-set equality is how equivalence is implemented; the ground-truth
notion is an isomorphism of the quasi-orders on dimensions 2..n.  A brute
force over bijections verifies the implementation on every pair it can
afford.  Equality of labelled feature sets is the finer relation: a mere
relabelling of a feature dimension preserves isomorphism type but not
feature sets, so only the sound direction is asserted for random pairs.
"""

import random
from itertools import permutations

from polyconcept import (
    enumerate_concepts,
    fixture,
    lattice_equivalent,
    quasi_leq,
    random_context,
)


def quasi_order_isomorphic(c1, c2, limit=8) -> bool:
    """Brute-force search for a bijection preserving every quasi-order 2..n."""
    a = list(enumerate_concepts(c1))
    b = list(enumerate_concepts(c2))
    if len(a) != len(b):
        return False
    if len(a) > limit:
        raise ValueError(f"too many concepts for brute force: {len(a)}")
    n = c1.arity
    dims = range(1, n)
    for perm in permutations(range(len(b))):
        good = True
        for i in range(len(a)):
            for j in range(len(a)):
                for k in dims:
                    fwd = quasi_leq(k, a[i], a[j])
                    img = quasi_leq(k, b[perm[i]], b[perm[j]])
                    if fwd != img:
                        good = False
                        break
                if not good:
                    break
            if not good:
                break
        if good:
            return True
    return False


class TestAgainstIsomorphismOracle:
    def test_reference_pair_agrees_both_ways(self):
        left, right = fixture("fig3l"), fixture("fig3r")
        assert lattice_equivalent(left, right)
        assert quasi_order_isomorphic(left, right)

    def test_equal_features_imply_isomorphism(self):
        rng = random.Random(61)
        found_pairs = 0
        trials = 0
        while found_pairs < 8 and trials < 400:
            trials += 1
            c1 = random_context((2, 2, 2), rng.random(), seed=trials)
            c2 = random_context((3, 2, 2), rng.random(), seed=1000 + trials)
            if len(enumerate_concepts(c1)) > 8:
                continue
            if not lattice_equivalent(c1, c2):
                continue
            assert quasi_order_isomorphic(c1, c2), (trials,)
            found_pairs += 1
        assert found_pairs >= 3, "not enough equivalent pairs sampled"

    def test_unequal_concept_counts_are_never_equivalent(self):
        rng = random.Random(62)
        for trial in range(60):
            c1 = random_context((2, 2, 2), rng.random(), seed=trial)
            c2 = random_context((2, 2, 2), rng.random(), seed=500 + trial)
            n1 = len(enumerate_concepts(c1))
            n2 = len(enumerate_concepts(c2))
            if n1 != n2:
                assert not lattice_equivalent(c1, c2)

    def test_relabelling_is_the_known_gap(self):
        # swapping two attribute labels preserves the isomorphism type but
        # changes the labelled feature sets; equivalence is the finer test
        base = fixture("fig3l")
        swapped_relation = frozenset(
            (o, n, {0: 0, 1: 2, 2: 1}[l]) for (o, n, l) in base.relation
        )
        from polyconcept import NContext

        swapped = NContext.build(base.dims, swapped_relation)
        assert quasi_order_isomorphic(base, swapped)
        assert not lattice_equivalent(base, swapped)
