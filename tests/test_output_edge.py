"""The output edge: ConceptSet order, labels and all three formats against
the frozenset code they replaced, and `enum` stdout against recorded files.

The reference below keeps the old per-concept code: a 0/1 tuple sort key
per element, labels read from frozensets, and json.dumps with indent=2.
"""

import csv
import io
import json
import random
from importlib import resources
from itertools import product
from pathlib import Path

import pytest

from polyconcept import (
    FIXTURE_NAMES,
    NContext,
    brute_force_concepts,
    enumerate_concepts,
    fixture,
    parse_concepts_json,
    serialize_concepts,
)
from polyconcept.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "enum"
EXTENSIONS = {"text": "txt", "json": "json", "csv": "csv"}
AWKWARD = ["a,b", 'x"y', "b\\c", "é", "日本", "t\tab", "#h", "{}", "[x]", "", " ", "ω"]


def reference_sort_key(ctx, c):
    return tuple(
        tuple(1 if x in comp else 0 for x in range(len(ctx.dims[d])))
        for d, comp in enumerate(c)
    )


def reference_labelled(ctx, concepts):
    return [
        tuple(tuple(ctx.dims[d][x] for x in sorted(comp)) for d, comp in enumerate(c))
        for c in concepts
    ]


def reference_serialize(ctx, rows, fmt):
    if fmt == "text":
        lines = ["(" + ",".join("{" + ",".join(c) + "}" for c in comps) + ")" for comps in rows]
        return "\n".join(lines) + ("\n" if lines else "")
    if fmt == "json":
        return json.dumps(
            [{"components": [list(c) for c in comps]} for comps in rows],
            ensure_ascii=False,
            indent=2,
        ) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([f"dim{d + 1}" for d in range(ctx.arity)])
    for comps in rows:
        writer.writerow([" ".join(c) for c in comps])
    return buf.getvalue()


def seeded_context(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3, 4])
    sizes = [rng.randint(1, {2: 5, 3: 4, 4: 3}[n]) for _ in range(n)]
    pool = AWKWARD if seed % 2 else ["a", "b", "c", "d", "e"]
    dims = [rng.sample(pool, s) for s in sizes]
    cells = list(product(*(range(s) for s in sizes)))
    kind = seed % 5
    if kind == 0:
        relation = []
    elif kind == 1:
        relation = cells
    else:
        relation = [t for t in cells if rng.random() < rng.choice([0.3, 0.6, 0.9])]
    return NContext.build(dims, relation)


def check_against_reference(ctx, cs):
    concepts = list(cs.concepts)
    assert concepts == sorted(set(concepts), key=lambda c: reference_sort_key(ctx, c))
    assert list(cs) == concepts and len(cs) == len(concepts)
    rows = reference_labelled(ctx, concepts)
    assert cs.labelled() == rows
    for fmt in ("text", "json", "csv"):
        assert serialize_concepts(cs, fmt) == reference_serialize(ctx, rows, fmt)


@pytest.mark.parametrize("seed", range(200))
def test_seeded_contexts_match_reference(seed):
    ctx = seeded_context(seed)
    cs = enumerate_concepts(ctx)
    check_against_reference(ctx, cs)
    assert set(cs.concepts) == set(brute_force_concepts(ctx).concepts)
    back = parse_concepts_json(ctx, serialize_concepts(cs, "json"))
    assert back == cs


def test_size_one_dimensions():
    ctx = NContext.build([("x",), ("y",), ("z",)], [(0, 0, 0)])
    cs = enumerate_concepts(ctx)
    check_against_reference(ctx, cs)
    assert cs.labelled() == [(("x",), ("y",), ("z",))]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_empty_concept_set(fmt):
    ctx = fixture("fig3l")
    cs = parse_concepts_json(ctx, "[]")
    assert len(cs) == 0 and cs.labelled() == [] and cs.concepts == ()
    assert serialize_concepts(cs, fmt) == reference_serialize(ctx, [], fmt)


def test_label_listed_twice():
    ctx = fixture("fig3l")
    text = '[{"components": [["α", "α"], ["1", "2", "1"], []]}]'
    cs = parse_concepts_json(ctx, text)
    assert cs.concepts == ((frozenset({0}), frozenset({0, 1}), frozenset()),)
    check_against_reference(ctx, cs)


def test_dump_order_is_ignored():
    ctx = fixture("fig1")
    cs = enumerate_concepts(ctx)
    entries = json.loads(serialize_concepts(cs, "json"))
    random.Random(7).shuffle(entries)
    assert parse_concepts_json(ctx, json.dumps(entries + entries[:3])) == cs


def test_membership():
    ctx = fixture("fig3l")
    cs = enumerate_concepts(ctx)
    for c in cs:
        assert c in cs
        assert tuple(sorted(comp) for comp in c) in cs
    first = cs.concepts[0]
    assert first[:2] not in cs
    assert first + (frozenset(),) not in cs
    assert (first[0] | {len(ctx.dims[0])},) + first[1:] not in cs
    assert ({-1},) + first[1:] not in cs
    assert tuple(frozenset() for _ in ctx.dims) not in cs


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_enum_output_is_unchanged(capsys, name, fmt):
    path = resources.files("polyconcept").joinpath("fixtures", f"{name}.nctx")
    assert main(["enum", "--format", fmt, str(path)]) == 0
    expected = (GOLDEN / f"{name}.{EXTENSIONS[fmt]}").read_bytes().decode("utf-8")
    assert capsys.readouterr().out == expected
