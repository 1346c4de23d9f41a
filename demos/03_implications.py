"""
Structural versus contextual implications
=========================================

Implications live in the 2-context obtained by flattening an n-context
against its object dimension; holds reads any context that way.  Some
implications are forced by the feature set of the concepts alone; those
are structural.  The rest hold only because of the way this particular
context distributes features over its objects; those are contextual, and
a canonical form of the context strips as many of them as possible.
"""

from polyconcept import (
    canonical_context,
    classify,
    description,
    dg_base,
    fixture,
    holds,
    lattice_equivalent,
    parse_implication,
    slice_dim,
    struct_closure,
)

left = fixture("fig3l")
right = fixture("fig3r")
print("the two contexts share their features:", lattice_equivalent(left, right))

for text in [
    "(1,b),(1,c) -> (1,a)",
    "(2,a) -> (3,a)",
    "(2,b) -> (1,a)",
    "(1,b),(2,a) -> (3,a),(1,c)",
]:
    imp = parse_implication(text)
    print(f"{text:32}  left: {classify(left, imp).value:11}"
          f"  right: {classify(right, imp).value}")

# The structural closure collects every cell forced by the feature set.
print("\nstruct closure of {(2,a)}:", sorted(struct_closure(left, [("2", "a")])))
print("struct closure of {(2,b)}:", sorted(struct_closure(left, [("2", "b")])))

# The canonical context of the class: one object per cohabitation class of
# features.  Contextual implications with support largely disappear.
can = canonical_context(left)
print("\ncanonical objects:")
for o, label in enumerate(can.dims[0]):
    print(" ", label, sorted(can.dims[1][a] + can.dims[2][b]
                             for (a, b) in description(can, o)))

imp = parse_implication("(2,b) -> (1,a)")
print("contextual in the original:", holds(left, imp))
print("gone in the canonical form:", not holds(can, imp))

# Plain dyadic machinery is available too: a Duquenne-Guigues base of the
# slice that keeps crosses valid for letter a.
base = dg_base(slice_dim(fixture("fig1"), 2, {0}))
print("\nimplication base of the letter-a slice:")
for imp in base:
    print(" ", imp)
