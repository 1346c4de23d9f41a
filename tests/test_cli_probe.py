"""The command line's contract, probed on generated NCTX texts.

Each example feeds `count` or `enum` a small context text on stdin: valid
or broken by line edits, with size-1 dimensions, in both modes and with
awkward labels.  Whatever comes in, the exit code is 0, 1 or 2, nothing
escapes as a traceback, and exit 1 prints one `error:` line on stderr.  On
exit 0 the answer agrees with the brute-force oracle.
"""

import contextlib
import csv
import io
import json
import sys
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from polyconcept import brute_force_concepts, parse_context
from polyconcept.cli import main

# Labels split on whitespace, so these are the characters a label may hold
# that the renderings or the comment rule treat specially.
LABELS = st.text(alphabet='ab1,()"\'{}[]#;\\αé-=:', min_size=1, max_size=4)

JUNK = [
    "", "# a comment", "1 1 # trailing", "1 2 3 4 5", "0 1", "-1 1", "99 99", "x y",
    "sizes 0 2", "sizes 100000000 100000000", "sizes 2", "NCTX 2 3", "NCTX 1 1",
    "NCTX 1 x", "labels 9 a", "labels 1", "labels x a b", "labels 1 a a", "mode both",
    "mode", "mode holes",
]

COMMANDS = [["count"], ["enum"], ["enum", "--format", "text"],
            ["enum", "--format", "json"], ["enum", "--format", "csv"]]


@st.composite
def nctx_texts(draw):
    arity = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, 3), min_size=arity, max_size=arity))
    lines = [f"NCTX 1 {arity}", "sizes " + " ".join(map(str, sizes))]
    for d, j in enumerate(sizes):
        if draw(st.booleans()):
            labels = draw(st.lists(LABELS, min_size=j, max_size=j, unique=True))
            lines.append(f"labels {d + 1} " + " ".join(labels))
    lines.append("mode " + draw(st.sampled_from(["crosses", "holes"])))
    cells = list(product(*(range(1, j + 1) for j in sizes)))
    lines += [" ".join(map(str, t)) for t in draw(st.lists(st.sampled_from(cells)))]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "insert"]))
        if edit == "drop":
            del lines[at]
        elif edit == "repeat":
            lines.insert(at, lines[at])
        else:
            lines.insert(at, draw(st.sampled_from(JUNK)))
        if not lines:
            break
    return "\n".join(lines) + "\n"


def run(argv, text):
    """(exit code, stdout, stderr) of one in-process call with text on stdin."""
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = old
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argv=st.sampled_from(COMMANDS), text=nctx_texts())
def test_count_and_enum_keep_the_exit_contract(argv, text):
    code, out, err = run(argv, text)
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 1:
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
    if code != 0:
        return
    expected = len(brute_force_concepts(parse_context(text)))
    fmt = argv[2] if len(argv) > 2 else "text"
    if argv[0] == "count":
        assert out == f"{expected}\n"
    elif fmt == "json":
        assert len(json.loads(out)) == expected
    elif fmt == "csv":
        assert len(list(csv.reader(io.StringIO(out)))) == expected + 1
    else:
        assert len(out.splitlines()) == expected
