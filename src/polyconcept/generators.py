"""Constructors for the named context families and bundled reference tables.

contranominal builds the cubic scales missing exactly their diagonal,
b_class the extremal contexts realising every possible feature box,
rook_context the cubic contexts whose holes form a rook covering, and
random_context seeded random fill for property tests.  fixture loads the
reference cross tables shipped with the package.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from importlib import resources
from itertools import product
from typing import Sequence

from .context import NContext, capped_cells, cell_mask, element_masks
from .io import parse_context

GREEK = (
    "α", "β", "γ", "δ", "ε", "ζ", "η", "θ", "ι", "κ", "λ", "μ",
    "ν", "ξ", "ο", "π", "ρ", "σ", "τ", "υ", "φ", "χ", "ψ", "ω",
)

FIXTURE_NAMES = (
    "fig1", "fig3l", "fig3r", "fig4", "fig5l", "fig5r", "fig7", "fig8", "crook",
)


@dataclass(frozen=True)
class Shape:
    """Dimension sizes of a context; cubic shapes have one repeated side."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.sizes) < 2:
            raise ValueError("a shape needs at least 2 dimensions")
        if any(s < 1 for s in self.sizes):
            raise ValueError("all sizes must be >= 1")

    @staticmethod
    def cubic(n: int, s: int) -> "Shape":
        return Shape((s,) * n)

    @property
    def arity(self) -> int:
        return len(self.sizes)


def _numeric(count: int) -> tuple[str, ...]:
    return tuple(str(i + 1) for i in range(count))


def _letters(count: int) -> tuple[str, ...]:
    if count <= 26:
        return tuple(chr(ord("a") + i) for i in range(count))
    return tuple(f"a{i + 1}" for i in range(count))


def _object_labels(count: int) -> tuple[str, ...]:
    if count <= len(GREEK):
        return GREEK[:count]
    return tuple(f"o{i + 1}" for i in range(count))


def _feature_dim_labels(k: int, size: int) -> tuple[str, ...]:
    # k is the 0-based context dimension index; dimension 1 counts, 2 letters
    if k == 1:
        return _numeric(size)
    if k == 2:
        return _letters(size)
    if k == 3:
        return tuple(chr(ord("A") + i) if i < 26 else f"A{i + 1}" for i in range(size))
    return tuple(f"e{i + 1}" for i in range(size))


def contranominal(n: int, s: int) -> NContext:
    """The cubic context of side s missing exactly the s diagonal tuples."""
    if n < 2:
        raise ValueError(f"arity must be >= 2, got {n}")
    if s < 1:
        raise ValueError(f"side must be >= 1, got {s}")
    cells = capped_cells((s,) * n)
    # the diagonal cell (x, ..., x) is bit x * (s**(n-1) + ... + s + 1)
    diagonal = sum(1 << x * sum(s ** k for k in range(n)) for x in range(s))
    return NContext((_numeric(s),) * n, (1 << cells) - 1 ^ diagonal)


def b_class(j: Sequence[int]) -> NContext:
    """An extremal context realising every feature box over sizes j.

    One object per feature-dimension element; its description is the full
    feature space minus the hyperplane fixing that element.  Objects are
    ordered by dimension from last to first and within a dimension from the
    last element to the first.
    """
    j = tuple(j)
    if not j:
        raise ValueError("need at least one feature dimension size")
    if any(x < 1 for x in j):
        raise ValueError("all sizes must be >= 1")
    n = len(j) + 1
    cells = capped_cells((sum(j),) + j)
    dims = [_object_labels(sum(j))]
    for k in range(1, n):
        dims.append(_feature_dim_labels(k, j[k - 1]))
    planes = [plane for per_dim in reversed(element_masks(j)) for plane in reversed(per_dim)]
    holes = sum(plane << (o * cells // sum(j)) for o, plane in enumerate(planes))
    return NContext(tuple(dims), (1 << cells) - 1 ^ holes)


def rook_context(n: int, s: int, c: int = 0) -> NContext:
    """A cubic context whose holes are a rook covering.

    Holes are the tuples satisfying x2 = x1 + x3 + ... + xn + c (mod s) in
    0-based coordinates, so every axis-parallel line contains exactly one
    hole.  With n = 2 and c = 0 this is the contranominal scale.
    """
    if n < 2:
        raise ValueError(f"arity must be >= 2, got {n}")
    if s < 2:
        raise ValueError(f"side must be >= 2, got {s}")
    return NContext((_numeric(s),) * n, cell_mask(capped_cells((s,) * n), (
        i for i, t in enumerate(product(range(s), repeat=n))
        if t[1] != (sum(t) - t[1] + c) % s
    )))


def random_context(shape: Shape | Sequence[int], density: float, seed: int) -> NContext:
    """Seeded random context: each cell crossed with the given probability."""
    sizes = shape.sizes if isinstance(shape, Shape) else Shape(tuple(shape)).sizes
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    rng = _random.Random(seed)
    cells = capped_cells(sizes)
    mask = cell_mask(cells, (i for i in range(cells) if rng.random() < density))
    return NContext(tuple(_numeric(s) for s in sizes), mask)


def fixture(name: str) -> NContext:
    """Load one of the bundled reference cross tables by name."""
    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {name!r}; choose from {', '.join(FIXTURE_NAMES)}")
    path = resources.files("polyconcept").joinpath("fixtures", f"{name}.nctx")
    return parse_context(path.read_text(encoding="utf-8"))
