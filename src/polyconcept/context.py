"""Core data model for n-dimensional cross tables and their concepts.

An n-context is a finite n-ary relation between n named dimensions.  An
n-concept is a maximal box full of crosses: an n-tuple of subsets, one per
dimension, whose Cartesian product lies inside the relation and that cannot
be enlarged in any single dimension without breaking that property.

Dimension indices are 0-based throughout the Python API.  File formats and
the command line use 1-based indices and element labels instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, product
from math import prod
from typing import Callable, Iterable, Iterator, Sequence

Concept = tuple[frozenset[int], ...]
Cell = tuple[int, ...]

CELL_CAP = 2 ** 24  # cells of one context; its mask takes cells / 8 bytes


class ResourceLimitError(RuntimeError):
    """Raised when an operation would exceed its configured search cap."""


@dataclass(frozen=True)
class NContext:
    """An n-dimensional cross table.

    dims holds one tuple of element labels per dimension; mask is the
    relation as a row-major cell mask (see the kernel below), which build
    makes from 0-based index tuples.  Instances are immutable and hashable,
    so they can safely be shared and used as cache keys.
    """

    dims: tuple[tuple[str, ...], ...]
    mask: int

    def __post_init__(self):
        if len(self.dims) < 2:
            raise ValueError(f"arity must be >= 2, got {len(self.dims)}")
        for d, labels in enumerate(self.dims):
            if not labels:
                raise ValueError(f"dimension {d} is empty")
            if len(set(labels)) != len(labels):
                raise ValueError(f"dimension {d} has duplicate labels")
        cells = capped_cells(self.sizes)
        if not 0 <= self.mask < 1 << cells:
            raise ValueError(f"mask must lie in [0, 2**{cells}), the cells of sizes {self.sizes}")

    @staticmethod
    def build(dims: Sequence[Sequence[str]], relation: Iterable[Sequence[int]]) -> "NContext":
        """The context over dims whose crosses are the index tuples of relation."""
        empty = NContext(tuple(tuple(labels) for labels in dims), 0)
        cells = [cell_index(empty.sizes, t) for t in relation]
        return NContext(empty.dims, cell_mask(empty.cell_count(), cells))

    @property
    def relation(self) -> frozenset[Cell]:
        """The crosses as index tuples (0-based), built on each call."""
        return frozenset(mask_cells(self.sizes, self.mask))

    @property
    def arity(self) -> int:
        return len(self.dims)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(d) for d in self.dims)

    def cell_count(self) -> int:
        return prod(self.sizes)

    def index_of(self, dim: int, label: str) -> int:
        """Index of ``label`` in the 0-based dimension ``dim``; errors name it 1-based."""
        try:
            return self.dims[dim].index(label)
        except ValueError:
            raise ValueError(f"no element {label!r} in dimension {dim + 1}") from None

    def __repr__(self) -> str:
        return f"NContext(sizes={self.sizes}, crosses={self.mask.bit_count()})"


def contains(ctx: NContext, t: Sequence[int]) -> bool:
    """Whether the index tuple t carries a cross."""
    return bool(ctx.mask >> cell_index(ctx.sizes, t) & 1)


def cell_index(sizes: Sequence[int], t: Sequence[int]) -> int:
    """The bit of the index tuple t in a row-major mask over sizes; t is checked."""
    t = tuple(t)
    if len(t) != len(sizes):
        raise ValueError(f"tuple {t} has arity {len(t)}, expected {len(sizes)}")
    i = 0
    for d, (x, j) in enumerate(zip(t, sizes)):
        if not 0 <= x < j:
            raise ValueError(f"tuple {t}: index {x} out of range in dimension {d}")
        i = i * j + x
    return i


def _check_candidate(ctx: NContext, c: Sequence[Iterable[int]]) -> tuple[int, ...]:
    """The components of c as element masks, each index checked against ctx."""
    if len(c) != ctx.arity:
        raise ValueError(f"candidate arity {len(c)} does not match context arity {ctx.arity}")
    comps = tuple(frozenset(comp) for comp in c)
    for d, comp in enumerate(comps):
        for x in comp:
            if not 0 <= x < len(ctx.dims[d]):
                raise ValueError(f"index {x} out of range in dimension {d}")
    return tuple(sum(1 << x for x in comp) for comp in comps)


def box_full(ctx: NContext, c: Sequence[Iterable[int]]) -> bool:
    """Whether the product of the given subsets lies entirely in the relation.

    Vacuously true when any component is empty.
    """
    comps = _check_candidate(ctx, c)
    cols = box_columns(element_masks(ctx.sizes), comps)
    return not _meet(cols) & ~ctx.mask


def is_concept(ctx: NContext, c: Sequence[Iterable[int]]) -> bool:
    """Whether c is a maximal full box of ctx.

    Maximality is checked one dimension at a time: adding any single outside
    element to one component, keeping the others fixed, must break fullness.
    """
    comps = _check_candidate(ctx, c)
    return box_is_concept(ctx.mask, element_masks(ctx.sizes), comps)


def description(ctx: NContext, obj: int) -> frozenset[Cell]:
    """All (n-1)-tuples over dimensions 1..n-1 crossed with the given object."""
    if not 0 <= obj < len(ctx.dims[0]):
        raise ValueError(f"object index {obj} out of range")
    width = ctx.cell_count() // ctx.sizes[0]
    return frozenset(mask_cells(ctx.sizes[1:], ctx.mask >> obj * width & (1 << width) - 1))


def quasi_leq(i: int, a: Concept, b: Concept) -> bool:
    """The i-th quasi-order: component inclusion in dimension i."""
    return a[i] <= b[i]


def features(concepts: Iterable[Concept]) -> frozenset[tuple[frozenset[int], ...]]:
    """Projections of concepts onto their last n-1 components, deduplicated."""
    return frozenset(c[1:] for c in concepts)


def feature_cells(feat: Sequence[frozenset[int]]) -> frozenset[Cell]:
    """Cell set of a feature box; empty whenever a component is empty."""
    if any(not comp for comp in feat):
        return frozenset()
    return frozenset(product(*(sorted(comp) for comp in feat)))


@dataclass
class NOrderReport:
    """Outcome of checking the two n-ordered-set axioms over a concept set."""

    ok: bool
    violations: list[str] = field(default_factory=list)


def check_n_ordered(cs: "ConceptSet") -> NOrderReport:
    """Verify antiordinal dependency and the uniqueness condition.

    Antiordinal dependency: if a is below b in every quasi-order except the
    j-th, it must be above b in the j-th.  Uniqueness: concepts equal in all
    components are identical.  All pairs are checked; the report carries the
    violations found.
    """
    concepts = list(cs.concepts)
    n = cs.ctx.arity
    violations: list[str] = []
    for ai, a in enumerate(concepts):
        for b in concepts[ai + 1:]:
            if all(a[i] == b[i] for i in range(n)) and a != b:
                violations.append(f"uniqueness: {a} vs {b}")
            for j in range(n):
                if all(quasi_leq(i, a, b) for i in range(n) if i != j):
                    if not quasi_leq(j, b, a):
                        violations.append(f"antiordinal: {a} vs {b} at dimension {j}")
                if all(quasi_leq(i, b, a) for i in range(n) if i != j):
                    if not quasi_leq(j, a, b):
                        violations.append(f"antiordinal: {b} vs {a} at dimension {j}")
    return NOrderReport(ok=not violations, violations=violations)


@dataclass(frozen=True)
class ConceptSet:
    """The concepts of one context as element masks (bit x of masks[i][d] marks
    element x of dimension d), ordered on the component bit strings, element 0 first."""

    ctx: NContext
    masks: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_iterable(ctx: NContext, masks: Iterable[tuple[int, ...]]) -> "ConceptSet":
        unique = list(set(masks))
        keys = _per_component(unique, [lambda c, j=j: f"{c:0{j}b}"[::-1] for j in ctx.sizes])
        return ConceptSet(ctx, tuple(m for _, m in sorted(zip(keys, unique))))

    @property
    def concepts(self) -> tuple[Concept, ...]:
        """The concepts as tuples of frozensets, built on each call."""
        return tuple(_per_component(self.masks, [members] * self.ctx.arity))

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[Concept]:
        return iter(self.concepts)

    def __contains__(self, c) -> bool:
        try:
            return _check_candidate(self.ctx, tuple(c)) in self.masks
        except (TypeError, ValueError):
            return False

    def features(self) -> frozenset[tuple[frozenset[int], ...]]:
        return features(self.concepts)

    def labelled(self) -> list[tuple[tuple[str, ...], ...]]:
        """Concepts with element labels instead of indices, sorted per component."""
        return self._rendered(tuple)

    def _rendered(self, render: Callable, dims: Sequence[Sequence[str]] = ()) -> list[tuple]:
        """Each concept as render(labels of component d) per d; labels from dims or ctx."""
        return _per_component(self.masks, [
            lambda c, t=t: render(tuple(label for x, label in enumerate(t) if c >> x & 1))
            for t in dims or self.ctx.dims
        ])


def _per_component(rows: Iterable[tuple[int, ...]], convert: Sequence[Callable]) -> list[tuple]:
    """rows with component d mapped by convert[d], called once per distinct component."""
    return list(zip(*[
        map({c: f(c) for c in set(col)}.__getitem__, col)
        for f, col in zip(convert, zip(*rows))
    ]))


def to_dense(ctx: NContext) -> np.ndarray:
    """The relation as a boolean tensor of shape ctx.sizes."""
    import numpy as np
    bits = f"{ctx.mask:0{ctx.cell_count()}b}".encode()[::-1]
    return (np.frombuffer(bits, np.uint8) == ord("1")).reshape(ctx.sizes)


def from_dense(arr: np.ndarray, dims: Sequence[Sequence[str]] | None = None) -> NContext:
    """Build a context from a boolean tensor; labels default to "1".."j"."""
    import numpy as np
    arr = np.asarray(arr, dtype=bool)
    if arr.ndim < 2:
        raise ValueError(f"need at least 2 dimensions, got {arr.ndim}")
    if dims is None:
        dims = [tuple(str(i + 1) for i in range(s)) for s in arr.shape]
    if (shape := tuple(map(len, dims))) != arr.shape:
        d = next(d for d in range(len(shape) + 1) if shape[d:d + 1] != arr.shape[d:d + 1])
        raise ValueError(f"dims have shape {shape}, arr {arr.shape}; they differ on axis {d}")
    mask = int.from_bytes(np.packbits(arr.ravel(), bitorder="little").tobytes(), "little")
    return NContext(tuple(tuple(labels) for labels in dims), mask)


# ---------------------------------------------------------------------------
# Integer-mask kernel
#
# A relation over sizes (j1, ..., jn) is one int over its cells in row-major
# order: cell (x1, ..., xn) is bit x1*w1 + ... + xn*wn for the strides w.  A
# subset of one dimension is an int with bit x set for element x, or bit
# x*w for a stride w where that is handier.  An NContext stores its mask;
# relation_mask lays it out in any other dimension order.  Context masks
# are built from cell indices or bit strings, never one bit at a time into
# a growing int, which is quadratic in the cells.  Row x of a relation is
# the mask, over the cells of dimensions 2..n, of the cells whose first
# coordinate is x: the row of object x in the objects-vs-rest flattening.
# closed_sets walks the closed row sets of such rows by Close-by-One, in no
# fixed order, for the enumerator; next_closures walks them by NextClosure
# in lectic order, which the Duquenne-Guigues base needs.  Rows and layouts
# are built per call; nothing is cached.


def _strides(sizes: Sequence[int]) -> list[int]:
    return [prod(sizes[d + 1:]) for d in range(len(sizes))]


def capped_cells(sizes: Sequence[int]) -> int:
    """The number of cells over sizes, refused above CELL_CAP."""
    cells = prod(sizes)
    if cells > CELL_CAP:
        raise ResourceLimitError(f"{cells} cells exceed the cap of {CELL_CAP}")
    return cells


def cell_mask(cells: int, indices: Iterable[int]) -> int:
    """The mask over cells bits whose set bits are indices."""
    bits = bytearray(b"0") * cells
    for i in indices:
        bits[i] = ord("1")
    return int(bits[::-1], 2)


def mask_cells(sizes: Sequence[int], mask: int) -> Iterator[Cell]:
    """The cells of a row-major mask over sizes as index tuples, in ascending order."""
    return compress(product(*map(range, sizes)), map("1".__eq__, bin(mask)[:1:-1]))


def relation_mask(ctx: NContext, order: Sequence[int] | None = None) -> int:
    """The relation of ctx as a row-major cell mask.

    With order, dimension order[k] of ctx is laid out as dimension k; each
    run along the last one is copied as one extended slice of the cell bits.
    """
    if order is None or list(order) == list(range(ctx.arity)):
        return ctx.mask
    *lead, last = order
    strides = _strides(ctx.sizes)
    step, stop = strides[last], strides[last] * ctx.sizes[last]
    bits = f"{ctx.mask:0{ctx.cell_count()}b}".encode()[::-1]
    out = bytearray()
    for xs in product(*(range(ctx.sizes[d]) for d in lead)):
        start = sum(x * strides[d] for x, d in zip(xs, lead))
        out += bits[start:start + stop:step]
    return int(out[::-1], 2)


def element_masks(sizes: Sequence[int]) -> list[list[int]]:
    """masks[d][x]: the cells whose coordinate in dimension d is x."""
    total = prod(sizes)
    out = []
    for j, w in zip(sizes, _strides(sizes)):
        first = ((1 << w) - 1) * sum(1 << k for k in range(0, total, j * w))
        out.append([first << (x * w) for x in range(j)])
    return out


def members(mask: int) -> frozenset[int]:
    """The elements of a subset mask."""
    return frozenset(x for x in range(mask.bit_length()) if mask >> x & 1)


def box_columns(elems: list[list[int]], comps: Sequence[int]) -> list[int]:
    """Per dimension, the cells whose coordinate lies in that component."""
    cols = []
    for masks, comp in zip(elems, comps):
        col = 0
        for x, m in enumerate(masks):
            if comp >> x & 1:
                col |= m
        cols.append(col)
    return cols


def _meet(cols: Iterable[int]) -> int:
    box = -1
    for col in cols:
        box &= col
    return box


def box_is_concept(rel: int, elems: list[list[int]], comps: Sequence[int]) -> bool:
    """Whether the box with component masks comps is full in rel and maximal.

    Maximal: adding one outside element to one component, the others kept,
    puts a cell outside rel.
    """
    cols = box_columns(elems, comps)
    if _meet(cols) & ~rel:
        return False
    for d, comp in enumerate(comps):
        others = _meet(cols[:d] + cols[d + 1:])
        for x, m in enumerate(elems[d]):
            if not comp >> x & 1 and not others & m & ~rel:
                return False
    return True


def split_rows(rel: int, count: int, width: int) -> list[int]:
    """The count rows of width cells each that make up rel."""
    full = (1 << width) - 1
    return [rel >> (x * width) & full for x in range(count)]


def object_rows(ctx: NContext) -> list[int]:
    """The rows of ctx, one per object."""
    return split_rows(ctx.mask, ctx.sizes[0], ctx.cell_count() // ctx.sizes[0])


def extent(rows: Sequence[int], y: int) -> int:
    """Mask of the rows that contain every cell of y."""
    a = 0
    for x, row in enumerate(rows):
        if row & y == y:
            a |= 1 << x
    return a


def intent(rows: Sequence[int], a: int, full: int) -> int:
    """The cells every row in the mask a contains; full when a is empty."""
    y = full
    for x, row in enumerate(rows):
        if a >> x & 1:
            y &= row
    return y


def closure(rows: Sequence[int], y: int, full: int) -> int:
    """Dyadic closure of the cell set y: the cells shared by all rows holding y."""
    return intent(rows, extent(rows, y), full)


def closed_sets(
    rows: Sequence[int], full: int, marks: Sequence[int]
) -> Iterator[tuple[int, int]]:
    """Every closed row set of the dyadic context rows with its intent, once each.

    An extent is the union of marks[x] over its rows x, such as 1 << x.
    Close-by-One (Kuznetsov 1993): the intent of A plus row i is
    intent(A) & rows[i], so no intent is recomputed.  The child is kept only
    when no row j < i outside A holds that intent; the rest of its extent
    then comes from the rows after i.  Pairs come in no particular order.
    """
    top = 0
    after = []
    for mark, row in zip(marks, rows):
        if row & full == full:
            top |= mark
        else:
            after.append((mark, row))
    # (extent, intent, rows outside it before every candidate, (mark, row)
    # of each candidate: the rows outside it after its generator)
    stack = [(top, full, [], after)]
    while stack:
        a, y, before, after = stack.pop()
        yield a, y
        for k, (mark, row) in enumerate(after):
            b = y & row
            for other in before:
                if other & b == b:
                    break
            else:
                c = a | mark
                rest = []
                for pair in after[k + 1:]:
                    if pair[1] & b == b:
                        c |= pair[0]
                    else:
                        rest.append(pair)
                stack.append((c, b, before[:], rest))
            before.append(row)


def next_closures(m: int, close: Callable[[int], int]) -> Iterator[int]:
    """Every set over m bits that close fixes, in lectic order (NextClosure).

    Bit 0 is the most significant.  close is called afresh at each step, so
    it may depend on what the caller did with the sets yielded so far, as
    the Duquenne-Guigues base needs; it also needs the lectic order, which
    closed_sets does not keep.
    """
    a = close(0)
    while True:
        yield a
        cur = a
        for i in range(m - 1, -1, -1):
            bit = 1 << i
            if cur & bit:
                cur &= ~bit
                continue
            b = close(cur | bit)
            if (b & ~cur) & (bit - 1) == 0:
                a = b
                break
        else:
            return
