"""
How many concepts can a cubic context hold?
===========================================

For shape (n, s) the contranominal scale gives n**s concepts and a simple
argument caps everything at (2**s - 1)**(n - 1) + n - 1.  In two dimensions
the two agree; beyond that the gap widens and better witnesses exist.  At
tiny shapes the exact maximum is computable by scanning every relation.
"""

from polyconcept import (
    bounds_report,
    exhaustive_max_concepts,
    lower_bound_context_4d,
    lower_bound_count_4d,
    naive_bounds,
    render_csv,
    render_text,
)

for n in (2, 3, 4):
    row = [f"n={n}:"]
    for s in (1, 2, 3, 4, 5):
        lo, hi = naive_bounds(n, s)
        row.append(f"{lo}..{hi}")
    print("  ".join(row))

# Exhaustive search at tiny shapes.  With isomorph rejection only canonical
# relations are scanned; the maximum is unchanged.
for n, s in [(2, 2), (2, 3), (3, 2), (4, 2)]:
    result = exhaustive_max_concepts(n, s)
    print(f"\nexact maximum at ({n},{s}): {result.max_count} "
          f"({result.examined} canonical relations scanned, "
          f"{len(result.witnesses)} witness up to symmetry)")

# In four dimensions, direct sums of rook contexts beat the scale:
print("\nfour-dimensional lower bounds from rook sums:")
for s in (3, 4, 6):
    print(f"  side {s}: {lower_bound_count_4d(s)} concepts "
          f"(contranominal gives {4 ** s})")
ctx = lower_bound_context_4d(4)
print("the side-4 witness really is cubic:", ctx.sizes)

# A consolidated report, printable or as CSV.
report = bounds_report(4, 3)
print()
print(render_text(report))
print(render_csv([bounds_report(n, 3, run_search=False) for n in (2, 3, 4)]))
