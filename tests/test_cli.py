import io
import sys
import time

import pytest

from polyconcept.cli import main


def run(capsys, argv, stdin_text=None):
    if stdin_text is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            code = main(argv)
        finally:
            sys.stdin = old
    else:
        code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerateAndCount:
    def test_contranominal_pipe(self, capsys):
        code, out, _ = run(capsys, ["gen", "contranominal", "-n", "2", "-s", "4"])
        assert code == 0
        code, out, _ = run(capsys, ["count"], stdin_text=out)
        assert code == 0
        assert out.strip() == "16"

    def test_fixture_rook_count(self, capsys):
        code, out, _ = run(capsys, ["gen", "fixture", "crook"])
        assert code == 0
        code, out, _ = run(capsys, ["count"], stdin_text=out)
        assert out.strip() == "112"

    def test_bclass_and_random(self, capsys):
        code, out, _ = run(capsys, ["gen", "bclass", "-j", "2", "2"])
        assert code == 0 and "sizes 4 2 2" in out
        code, one, _ = run(capsys, ["gen", "random", "--sizes", "2", "2",
                                    "--density", "0.5", "--seed", "9"])
        assert code == 0
        code, two, _ = run(capsys, ["gen", "random", "--sizes", "2", "2",
                                    "--density", "0.5", "--seed", "9"])
        assert one == two


class TestTransformCommands:
    def test_flatten(self, capsys, fig1):
        from polyconcept import serialize_context

        code, out, _ = run(capsys, ["flatten", "--left", "1"],
                           stdin_text=serialize_context(fig1))
        assert code == 0
        assert "(1,a)" in out

    def test_slice(self, capsys, fig1):
        from polyconcept import serialize_context

        code, out, _ = run(capsys, ["slice", "--dim", "3", "--keep", "a"],
                           stdin_text=serialize_context(fig1))
        assert code == 0
        assert "sizes 3 3" in out

    @pytest.mark.parametrize("dim", ["9", "0"])
    def test_slice_dimension_out_of_range(self, capsys, fig1, dim):
        from polyconcept import serialize_context

        code, out, err = run(capsys, ["slice", "--dim", dim, "--keep", "a"],
                             stdin_text=serialize_context(fig1))
        assert code == 1 and out == ""
        assert err == f"error: dimension {dim} out of range 1..3\n"

    def test_slice_without_keep(self, capsys, fig1):
        from polyconcept import serialize_context

        code, out, err = run(capsys, ["slice", "--dim", "3"],
                             stdin_text=serialize_context(fig1))
        assert code == 1 and out == ""
        assert err == "error: --keep names no labels\n"

    def test_sum(self, capsys, tmp_path):
        from polyconcept import contranominal, serialize_context

        p1 = tmp_path / "one.nctx"
        p1.write_text(serialize_context(contranominal(2, 1)))
        p2 = tmp_path / "two.nctx"
        p2.write_text(serialize_context(contranominal(2, 1)))
        code, out, _ = run(capsys, ["sum", str(p1), str(p2)])
        assert code == 0
        code, out, _ = run(capsys, ["count"], stdin_text=out)
        assert out.strip() == "4"


class TestImplicationCommands:
    def test_impl_check_with_slice_scope(self, capsys, fig1):
        from polyconcept import serialize_context

        code, out, _ = run(
            capsys,
            ["impl-check", "--impl", "3 -> 1,2", "--slice", "3=a"],
            stdin_text=serialize_context(fig1),
        )
        assert code == 0
        assert "holds" in out and "does not" not in out

    def test_impl_check_default_scope(self, capsys, fig1):
        from polyconcept import serialize_context

        code, out, _ = run(capsys, ["impl-check", "--impl", "(1,a) -> (3,c)"],
                           stdin_text=serialize_context(fig1))
        assert code == 0
        assert "does not hold" in out

    def test_impl_check_scope_matches_slice(self, capsys, fig1):
        from polyconcept import serialize_context

        text = serialize_context(fig1)
        code, by_scope, _ = run(capsys, ["impl-check", "--impl", "3 -> 1,2",
                                         "--scope", "slice:3=a"], stdin_text=text)
        assert code == 0
        code, by_slice, _ = run(capsys, ["impl-check", "--impl", "3 -> 1,2",
                                         "--slice", "3=a"], stdin_text=text)
        assert code == 0
        assert by_scope == by_slice == "3 -> 1,2: holds\n"

    def test_impl_check_unknown_scope(self, capsys, fig1):
        from polyconcept import serialize_context

        code, out, err = run(capsys, ["impl-check", "--impl", "(1,a) -> (3,c)",
                                      "--scope", "bogus"],
                             stdin_text=serialize_context(fig1))
        assert code == 1 and out == ""
        assert err.startswith("error: unknown scope 'bogus'")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("entry, message", [
        ("9=a", "dimension 9 out of range 1..3"),
        ("0=a", "dimension 0 out of range 1..3"),
        ("3=z", "no element 'z' in dimension 3"),
        ("3", "{option} entry '3' names no labels"),
        ("x=a", "{option} entry 'x=a' needs an integer DIM"),
    ])
    def test_impl_check_bad_slice_entry(self, capsys, fig1, entry, message):
        from polyconcept import serialize_context

        for option, value in (("--slice", entry), ("--scope", f"slice:{entry}")):
            code, out, err = run(capsys, ["impl-check", "--impl", "3 -> 1,2",
                                          option, value],
                                 stdin_text=serialize_context(fig1))
            assert code == 1 and out == ""
            assert err == f"error: {message.format(option=option)}\n"

    def test_classify(self, capsys, fig3l):
        from polyconcept import serialize_context

        code, out, _ = run(capsys, ["classify", "--impl", "(2,b) -> (1,a)"],
                           stdin_text=serialize_context(fig3l))
        assert code == 0
        assert "contextual" in out and "β" in out

    def test_minimize_and_equiv(self, capsys, tmp_path, fig5l, fig5r):
        from polyconcept import serialize_context

        code, out, _ = run(capsys, ["minimize"], stdin_text=serialize_context(fig5l))
        assert code == 0
        built = tmp_path / "canonical.nctx"
        built.write_text(out)
        ref = tmp_path / "reference.nctx"
        ref.write_text(serialize_context(fig5r))
        code, out, _ = run(capsys, ["equiv", str(built), str(ref)])
        assert code == 0
        assert out.strip() == "equivalent"


# Full stdout of three searches, fixed byte for byte: the scan order, the
# canonical form and the choice of witnesses must not change.
GOLDEN_SEARCHES = [
    (["search", "-n", "3", "-s", "3", "--max-relations", "40", "--show-witnesses"],
     """lower bound (partial search): 9
witnesses up to symmetry: 1
relations examined: 40
NCTX 1 3
sizes 3 3 3
labels 1 1 2 3
labels 2 1 2 3
labels 3 1 2 3
mode crosses
1 1 2
1 1 3
1 2 1
1 2 3
1 3 1
1 3 2
"""),
    (["search", "-n", "4", "-s", "2", "--max-relations", "60", "--show-witnesses"],
     """lower bound (partial search): 11
witnesses up to symmetry: 1
relations examined: 60
NCTX 1 4
sizes 2 2 2 2
labels 1 1 2
labels 2 1 2
labels 3 1 2
labels 4 1 2
mode crosses
1 1 1 2
1 1 2 1
1 1 2 2
1 2 1 1
1 2 1 2
1 2 2 1
2 1 1 1
"""),
    (["search", "-n", "3", "-s", "2", "--no-symmetry", "--show-witnesses"],
     """exact maximum: 9
witnesses up to symmetry: 1
relations examined: 256
NCTX 1 3
sizes 2 2 2
labels 1 1 2
labels 2 1 2
labels 3 1 2
mode crosses
1 1 2
1 2 1
1 2 2
2 1 1
2 1 2
2 2 1
"""),
]


class TestBoundsAndSearch:
    def test_bounds_text(self, capsys):
        code, out, _ = run(capsys, ["bounds", "-n", "4", "-s", "3"])
        assert code == 0
        assert "112" in out

    def test_bounds_csv(self, capsys):
        code, out, _ = run(capsys, ["bounds", "-n", "3", "-s", "2", "--csv"])
        assert code == 0
        assert out.splitlines()[0].startswith("n,s,")

    def test_search(self, capsys):
        code, out, _ = run(capsys, ["search", "-n", "2", "-s", "2"])
        assert code == 0
        assert "exact maximum: 4" in out

    def test_search_over_cap_is_one_line(self, capsys):
        code, out, err = run(capsys, ["search", "-n", "3", "-s", "3"])
        assert code == 1 and out == ""
        assert err.startswith("error: search space of 134217728 relations exceeds the cap")
        assert err.count("\n") == 1
        assert "--max-relations" in err

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_search_budget_below_one(self, capsys, budget):
        code, out, err = run(capsys, ["search", "-n", "2", "-s", "2",
                                      "--max-relations", budget])
        assert code == 1 and out == ""
        assert err == f"error: --max-relations must be at least 1, got {budget}\n"

    def test_bounds_over_cap_points_at_search(self, capsys):
        code, out, err = run(capsys, ["bounds", "-n", "3", "-s", "3", "--search"])
        assert code == 1 and out == ""
        assert err.startswith("error: search space of 134217728 relations exceeds the cap")
        assert err.count("\n") == 1
        assert "use 'polyconcept search --max-relations N'" in err

    @pytest.mark.parametrize("argv,expected", GOLDEN_SEARCHES)
    def test_search_output_is_unchanged(self, capsys, argv, expected):
        code, out, _ = run(capsys, argv)
        assert code == 0 and out == expected

    @pytest.mark.parametrize("flags", [[], ["--no-symmetry"]])
    def test_search_oversized_group_is_one_line(self, capsys, flags):
        code, out, err = run(capsys, ["search", "-n", "2", "-s", "6",
                                      "--max-relations", "1"] + flags)
        assert code == 1 and out == ""
        assert err.startswith("error: symmetry group of order 1036800 ")
        assert err.count("\n") == 1

    def test_search_many_cells_is_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, ["search", "-n", "40", "-s", "2",
                                      "--max-relations", "1"])
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert err.startswith("error: symmetry group of order ")
        assert err.count("\n") == 1

    def test_bounds_searches_four_by_two(self, capsys):
        code, out, _ = run(capsys, ["bounds", "-n", "4", "-s", "2"])
        assert code == 0
        assert "best known lower:   17 (exhaustive-search)" in out
        assert "exact maximum:      17" in out

    def test_bounds_witness_out(self, capsys, tmp_path):
        target = tmp_path / "witness.nctx"
        code, out, _ = run(capsys, ["bounds", "-n", "4", "-s", "3",
                                    "--witness-out", str(target)])
        assert code == 0
        from polyconcept import count_concepts, parse_context

        witness = parse_context(target.read_text())
        assert count_concepts(witness) == 112
        code, out, _ = run(capsys, ["bounds", "-n", "2", "-s", "2", "--csv",
                                    "--witness-out", str(target)])
        assert str(target) in out

    def test_enum_csv_format(self, capsys, fig3l):
        from polyconcept import serialize_context

        code, out, _ = run(capsys, ["enum", "--format", "csv"],
                           stdin_text=serialize_context(fig3l))
        assert code == 0
        assert out.splitlines()[0] == "dim1,dim2,dim3"
        assert len(out.strip().splitlines()) == 8


class TestVerify:
    def test_verify_paper_passes(self, capsys):
        code, out, _ = run(capsys, ["verify-paper"])
        assert code == 0
        assert "12/12 checks passed" in out
        assert "FAIL" not in out


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "fixture", "not-a-fixture"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_domain_error_is_1(self, capsys):
        code, _, err = run(capsys, ["count"],
                           stdin_text="NCTX 1 2\nsizes 2 2\nmode crosses\n9 9\n")
        assert code == 1
        assert "error" in err

    def test_missing_file_is_1(self, capsys):
        code, _, err = run(capsys, ["count", "/nonexistent/path.nctx"])
        assert code == 1
