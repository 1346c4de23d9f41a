"""Independent checks of polyconcept answers on dense numpy tensors.

Nothing here calls the library's kernels.  NCTX text is read by a reader of
its own, and a box is tested against the relation as a boolean tensor: for
each dimension d, the elements x whose row {x} x (other components) is full
must be exactly the box's d-th component.  That one test is fullness
(every member's row is full) and maximality (no outside row is full) at once,
and it follows the library's convention that a box with an empty component
is vacuously full.
"""

from __future__ import annotations

import re
import string
from itertools import combinations, product

import numpy as np

_COMMENT_RE = re.compile(r"(?:^|\s)#")


def read_nctx(text: str) -> tuple[list[tuple[str, ...]], np.ndarray]:
    """Labels per dimension and the relation as a boolean tensor."""
    sizes = None
    labels: dict[int, tuple[str, ...]] = {}
    mode = None
    cells = []
    header = False
    for raw in text.splitlines():
        match = _COMMENT_RE.search(raw)
        parts = (raw[: match.start()] if match else raw).split()
        if not parts:
            continue
        if not header:
            if parts[0] != "NCTX" or len(parts) != 3:
                raise ValueError("missing NCTX header")
            header = True
        elif parts[0] == "sizes":
            sizes = tuple(int(p) for p in parts[1:])
        elif parts[0] == "labels":
            labels[int(parts[1]) - 1] = tuple(parts[2:])
        elif parts[0] == "mode":
            mode = parts[1]
        else:
            cells.append(tuple(int(p) - 1 for p in parts))
    if sizes is None or mode not in ("crosses", "holes"):
        raise ValueError("NCTX text lacks sizes or mode")
    dense = np.zeros(sizes, dtype=bool)
    for cell in cells:
        dense[cell] = True
    if mode == "holes":
        dense = ~dense
    dims = [labels.get(d, tuple(str(i + 1) for i in range(s))) for d, s in enumerate(sizes)]
    return dims, dense


def membership(sizes: tuple[int, ...], boxes: list[tuple]) -> list[np.ndarray]:
    """One 0/1 matrix per dimension: row k marks the k-th box's component."""
    mats = [np.zeros((len(boxes), s)) for s in sizes]
    for k, box in enumerate(boxes):
        for d, comp in enumerate(box):
            mats[d][k, list(comp)] = 1.0
    return mats


def full_rows(dense: np.ndarray, d: int, mats: list[np.ndarray]) -> np.ndarray:
    """[k, x]: is {x} times the other components of box k inside the relation?"""
    n = dense.ndim
    axes = string.ascii_lowercase[:n]
    others = [e for e in range(n) if e != d]
    spec = axes + "".join(",z" + axes[e] for e in others) + "->z" + axes[d]
    crosses = np.einsum(spec, dense.astype(float), *(mats[e] for e in others),
                        optimize=True)
    need = np.ones(len(mats[0]))
    for e in others:
        need = need * mats[e].sum(axis=1)
    return crosses == need[:, None]


def maximal_full(dense: np.ndarray, boxes: list[tuple]) -> np.ndarray:
    """Per box: is it a maximal full box (an n-concept) of the relation?"""
    if not boxes:
        return np.zeros(0, dtype=bool)
    mats = membership(dense.shape, boxes)
    ok = np.ones(len(boxes), dtype=bool)
    for d in range(dense.ndim):
        ok &= (full_rows(dense, d, mats) == (mats[d] > 0)).all(axis=1)
    return ok


def _subsets(size: int):
    for r in range(size + 1):
        yield from combinations(range(size), r)


def concept_features(dense: np.ndarray) -> frozenset:
    """Projections of all concepts onto dimensions 2..n, as index tuples.

    Every tuple of feature-side subsets is a candidate; its extent is the set
    of objects whose row covers the box, and it is a feature exactly when the
    completed box is maximal.  Meant for the small contexts of the
    implications workload only.
    """
    feats = list(product(*(list(_subsets(s)) for s in dense.shape[1:])))
    mats = membership(dense.shape, [((),) + f for f in feats])
    extents = full_rows(dense, 0, mats)
    boxes = [(tuple(np.flatnonzero(extents[k])),) + f for k, f in enumerate(feats)]
    ok = maximal_full(dense, boxes)
    return frozenset(f for f, good in zip(feats, ok) if good)


def implication_verdict(dense: np.ndarray, premise: list[tuple], conclusion: list[tuple]):
    """(holds, supporting objects) on the objects-vs-rest flattening.

    premise and conclusion are feature-side cells as index tuples.
    """
    rows = dense.reshape(dense.shape[0], -1)
    flat = lambda cells: [int(np.ravel_multi_index(c, dense.shape[1:])) for c in cells]
    support = rows[:, flat(premise)].all(axis=1)
    holds = bool(rows[support][:, flat(conclusion)].all())
    return holds, np.flatnonzero(support)


def _and_over_subsets(table: np.ndarray, axis: int, full: int) -> np.ndarray:
    """Replace an axis of size j by 2**j entries: the AND over each subset."""
    table = np.moveaxis(table, axis, 0)
    out = np.empty((2 ** table.shape[0],) + table.shape[1:], dtype=table.dtype)
    out[0] = full
    for mask in range(1, len(out)):
        low = (mask & -mask).bit_length() - 1
        out[mask] = out[mask & (mask - 1)] & table[low]
    return out


def count_concepts_dense(dense: np.ndarray) -> int:
    """Number of n-concepts of a relation with n >= 3, by dense enumeration.

    For every tuple Z of subsets of dimensions 3..n and every subset A of
    dimension 2, the extent E is the set of objects o with {o} x A x Z full.
    (E, A, Z) is a concept when A is closed (no attribute outside A keeps the
    box full) and no element outside Z does.  Rows are bitmasks over
    dimension 2, so the whole search is integer array arithmetic.
    """
    j0, j1 = dense.shape[:2]
    rest = dense.shape[2:]
    full = (1 << j1) - 1
    weights = (1 << np.arange(j1, dtype=np.int64)).reshape((1, j1) + (1,) * len(rest))
    rows = (dense.astype(np.int64) * weights).sum(axis=1)     # (j0, *rest)
    table = rows
    for axis in range(1, 1 + len(rest)):
        table = _and_over_subsets(table, axis, full)
        table = np.moveaxis(table, 0, axis)
    table = np.moveaxis(table, 0, -1).reshape(-1, j0)          # (subset tuples, j0)
    attrs = np.arange(full + 1, dtype=np.int64)
    bits = [1 << b for b in range(sum(rest))]
    count = 0
    for start in range(0, len(table), 64):  # 64 subset tuples at a time bound memory
        zs = np.arange(start, min(start + 64, len(table)))
        rows_z = table[zs][:, None, :]                         # (z, 1, j0)
        extent = (rows_z & attrs[None, :, None]) == attrs[None, :, None]
        common = np.bitwise_and.reduce(np.where(extent, rows_z, full), axis=2)
        cz, ca = np.nonzero(common == attrs[None, :])
        z, a = zs[cz], attrs[ca]
        ext = extent[cz, ca]
        maximal = np.ones(len(z), dtype=bool)
        for bit in bits:
            grow = (z & bit) == 0
            grown = table[z[grow] | bit]
            still = ((grown & a[grow, None]) == a[grow, None]) | ~ext[grow]
            maximal[np.flatnonzero(grow)[still.all(axis=1)]] = False
        count += int(maximal.sum())
    return count
