import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyconcept import (
    ParseError,
    context_from_table,
    enumerate_concepts,
    parse_concepts_json,
    parse_context,
    random_context,
    serialize_concepts,
    serialize_context,
)


class TestParseContext:
    def test_minimal_file(self):
        ctx = parse_context("NCTX 1 2\nsizes 2 2\nmode crosses\n1 1\n2 2\n")
        assert ctx.sizes == (2, 2)
        assert ctx.relation == {(0, 0), (1, 1)}
        assert ctx.dims == (("1", "2"), ("1", "2"))

    def test_comments_and_blank_lines(self):
        text = "# header comment\nNCTX 1 2\n\nsizes 1 1\nmode crosses  # trailing\n1 1\n"
        assert parse_context(text).relation == {(0, 0)}

    def test_holes_mode(self, crook):
        assert len(crook.relation) == 54

    def test_empty_body_crosses(self):
        ctx = parse_context("NCTX 1 2\nsizes 3 3\nmode crosses\n")
        assert ctx.relation == frozenset()

    def test_labels(self):
        ctx = parse_context(
            "NCTX 1 2\nsizes 2 2\nlabels 1 x y\nmode crosses\n1 2\n"
        )
        assert ctx.dims == (("x", "y"), ("1", "2"))

    def test_second_labels_line_for_a_dimension(self):
        with pytest.raises(ParseError) as err:
            parse_context("NCTX 1 2\nsizes 2 2\nlabels 1 x y\nlabels 1 u v\nmode crosses\n")
        assert err.value.lineno == 4
        assert str(err.value) == "line 4: duplicate labels line for dimension 1"

    def test_repeated_label_within_a_line(self):
        with pytest.raises(ParseError) as err:
            parse_context("NCTX 1 2\nsizes 2 2\nlabels 2 x x\nmode crosses\n")
        assert err.value.lineno == 3
        assert str(err.value) == "line 3: dimension 2 has duplicate labels"

    @pytest.mark.parametrize("text,lineno", [
        ("BAD 1 2\nsizes 2 2\nmode crosses\n", 1),
        ("NCTX 2 2\nsizes 2 2\nmode crosses\n", 1),
        ("NCTX 1 2\nsizes 2\nmode crosses\n", 2),
        ("NCTX 1 2\nsizes 2 2\nmode nothing\n", 3),
        ("NCTX 1 2\nsizes 2 2\nmode crosses\n1 5\n", 4),
        ("NCTX 1 2\nsizes 2 2\nmode crosses\n1 1 1\n", 4),
        ("NCTX 1 2\nsizes 2 2\n1 1\n", 3),
        ("NCTX 1 2\nsizes 2 2\nlabels 1 onlyone\nmode crosses\n", 3),
    ])
    def test_errors_carry_line_numbers(self, text, lineno):
        with pytest.raises(ParseError) as err:
            parse_context(text)
        assert err.value.lineno == lineno


class TestRoundTrip:
    def test_fixture_round_trips(self):
        from polyconcept import FIXTURE_NAMES, fixture

        for name in FIXTURE_NAMES:
            ctx = fixture(name)
            assert parse_context(serialize_context(ctx)) == ctx, name
            assert parse_context(serialize_context(ctx, "holes")) == ctx, name

    def test_random_round_trips(self):
        rng = random.Random(77)
        for trial in range(50):
            sizes = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(2, 5)))
            ctx = random_context(sizes, rng.random(), seed=trial)
            assert parse_context(serialize_context(ctx)) == ctx

    @given(st.integers(0, 2 ** 9 - 1))
    @settings(max_examples=80)
    def test_any_3x3_table_round_trips(self, mask):
        relation = [(i // 3, i % 3) for i in range(9) if mask >> i & 1]
        ctx = context_from_table(
            [("r1", "r2", "r3"), ("c1", "c2", "c3")],
            [("r%d" % (a + 1), "c%d" % (b + 1)) for a, b in relation],
        )
        assert parse_context(serialize_context(ctx)) == ctx


class TestSerializeConcepts:
    def test_text_matches_reference_list(self, fig3l):
        text = serialize_concepts(enumerate_concepts(fig3l), "text")
        lines = set(text.strip().splitlines())
        assert len(lines) == 7
        assert "({α,β},{1},{a})" in lines
        assert "({},{1,2,3},{a,b,c})" in lines

    def test_json_round_trip(self, fig3l):
        cs = enumerate_concepts(fig3l)
        text = serialize_concepts(cs, "json")
        assert parse_concepts_json(fig3l, text).concepts == cs.concepts

    @pytest.mark.parametrize("text", [
        '[{"component": [[], [], []]}]',
        '{"components": [[], [], []]}',
        '[{"components": [["α"], ["1"]]}]',
        '[{"components": [["α"], ["1"], ["a"], ["a"]]}]',
        '[{"components": [["α"], ["1"], ["zz"]]}]',
        '[{"components": ',
    ])
    def test_json_malformed_dump(self, fig3l, text):
        with pytest.raises(ParseError):
            parse_concepts_json(fig3l, text)

    def test_json_shape(self, fig3l):
        data = json.loads(serialize_concepts(enumerate_concepts(fig3l), "json"))
        assert all(set(entry) == {"components"} for entry in data)
        assert all(len(entry["components"]) == 3 for entry in data)

    def test_csv(self, fig3l):
        csv_text = serialize_concepts(enumerate_concepts(fig3l), "csv")
        lines = csv_text.strip().splitlines()
        assert lines[0] == "dim1,dim2,dim3"
        assert len(lines) == 8

    def test_stable_across_runs(self, fig1):
        one = serialize_concepts(enumerate_concepts(fig1), "text")
        two = serialize_concepts(enumerate_concepts(fig1), "text")
        assert one == two

    def test_unknown_format(self, fig1):
        with pytest.raises(ValueError):
            serialize_concepts(enumerate_concepts(fig1), "xml")
