"""Command-line interface.

Contexts travel between subcommands as files in the NCTX format, so the
commands compose through pipes:

    polyconcept gen contranominal -n 2 -s 4 | polyconcept count

Exit codes: 0 on success, 1 on a domain error, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import sys

from .bounds import bounds_report, exhaustive_max_concepts, render_csv, render_text
from .context import NContext, ResourceLimitError
from .enumeration import count_concepts, enumerate_concepts
from .generators import (
    FIXTURE_NAMES,
    b_class,
    contranominal,
    fixture,
    random_context,
    rook_context,
)
from .implications import (
    _classify as classify,  # the verdict with its support mask, under the name perfbench hooks
    _picked,
    canonical_context,
    holds,
    lattice_equivalent,
    parse_implication,
)
from .io import parse_context, serialize_concepts, serialize_context
from .transforms import Bipartition, direct_sum, flatten, slice_dim
from .verify import render_results, run_checks


def _read_context(path: str) -> NContext:
    if path == "-":
        return parse_context(sys.stdin.read())
    with open(path, encoding="utf-8") as fh:
        return parse_context(fh.read())


def _add_input(parser: argparse.ArgumentParser):
    parser.add_argument("context", nargs="?", default="-",
                        help="context file, '-' for stdin (default)")


def _dim_list(ctx: NContext, option: str, text: str) -> tuple[int, ...]:
    """0-based indices of the comma-separated 1-based dimensions in text."""
    dims = []
    for entry in filter(None, text.split(",")):
        try:
            dims.append(_dim_index(ctx, int(entry)))
        except ValueError:
            raise ValueError(
                f"{option} entry {entry!r} is not a dimension in 1..{ctx.arity}"
            ) from None
    return tuple(dims)


def _dim_index(ctx: NContext, dim: int) -> int:
    """0-based index of the 1-based dimension ``dim``, checked against the arity."""
    if not 1 <= dim <= ctx.arity:
        raise ValueError(f"dimension {dim} out of range 1..{ctx.arity}")
    return dim - 1


def _keep(ctx: NContext, dim: int, what: str, text: str) -> list[int]:
    """Indices of the comma-separated labels in text; what names their option."""
    labels = [lbl for lbl in text.split(",") if lbl]
    if not labels:
        raise ValueError(f"{what} names no labels")
    return [ctx.index_of(dim, lbl) for lbl in labels]


def _build_scope(ctx: NContext, scope: str, slices: list[str]) -> NContext:
    """Slice ``ctx`` by the ``--slice`` entries, then the ``slice:`` scope entries.

    Entries apply one after another, and each DIM counts the dimensions of
    the context left by the entries before it, not those of the input.
    """
    recipe = [("--slice", entry) for entry in slices]
    if scope != "flatten":
        kind, _, rest = scope.partition(":")
        if kind != "slice" or not rest:
            raise ValueError(
                f"unknown scope {scope!r}; use 'flatten' or 'slice:DIM=LABELS'"
            )
        recipe.extend(("--scope", part) for part in rest.split(";") if part)
    for option, entry in recipe:
        dim_text, _, labels_text = entry.partition("=")
        try:
            number = int(dim_text)
        except ValueError:
            raise ValueError(f"{option} entry {entry!r} needs an integer DIM") from None
        dim = _dim_index(ctx, number)
        ctx = slice_dim(ctx, dim, _keep(ctx, dim, f"{option} entry {entry!r}", labels_text))
    return ctx


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyconcept",
        description="n-dimensional cross tables, their concepts and implications",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a context")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    g = gen_sub.add_parser("contranominal", help="cubic scale missing its diagonal")
    g.add_argument("-n", "--arity", type=int, required=True)
    g.add_argument("-s", "--side", type=int, required=True)
    g = gen_sub.add_parser("bclass", help="extremal context realising every feature box")
    g.add_argument("-j", "--sizes", type=int, nargs="+", required=True)
    g = gen_sub.add_parser("rook", help="cubic context with rook-covering holes")
    g.add_argument("-n", "--arity", type=int, required=True)
    g.add_argument("-s", "--side", type=int, required=True)
    g.add_argument("-c", "--offset", type=int, default=0)
    g = gen_sub.add_parser("fixture", help="bundled reference table")
    g.add_argument("name", choices=FIXTURE_NAMES)
    g = gen_sub.add_parser("random", help="seeded random context")
    g.add_argument("--sizes", type=int, nargs="+", required=True)
    g.add_argument("--density", type=float, required=True)
    g.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("enum", help="enumerate all concepts")
    _add_input(p)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("count", help="count all concepts")
    _add_input(p)

    p = sub.add_parser("flatten", help="flatten along a dimension bipartition")
    _add_input(p)
    p.add_argument("--left", required=True, help="comma list of 1-based dimensions")
    p.add_argument("--right", default="", help="defaults to the remaining dimensions")

    p = sub.add_parser("slice", help="remove a dimension by universal quantification")
    _add_input(p)
    p.add_argument("--dim", type=int, required=True, help="1-based dimension")
    p.add_argument("--keep", default="", help="comma list of element labels, at least one")

    p = sub.add_parser("sum", help="direct sum of two contexts")
    p.add_argument("first")
    p.add_argument("second")

    p = sub.add_parser("impl-check", help="check an implication")
    _add_input(p)
    p.add_argument("--impl", required=True, help='e.g. "(1,a),(1,b) -> (1,c)"')
    p.add_argument("--scope", default="flatten",
                   help='"flatten" (default) or "slice:DIM=LABELS[;DIM=LABELS]", '
                        "applied after every --slice; each DIM counts the "
                        "dimensions left by the entries before it")
    p.add_argument("--slice", action="append", default=[], metavar="DIM=LABELS",
                   help="slice before flattening, e.g. --slice 3=a; applied "
                        "in order, before the --scope entries; each DIM counts "
                        "the dimensions left by the entries before it")

    p = sub.add_parser("classify", help="classify an implication as structural or contextual")
    _add_input(p)
    p.add_argument("--impl", required=True)

    p = sub.add_parser("minimize", help="canonical context of the same feature class")
    _add_input(p)

    p = sub.add_parser("equiv", help="do two contexts share their concept features?")
    p.add_argument("first")
    p.add_argument("second")

    p = sub.add_parser("bounds", help="bounds report for cubic shape (n, s)")
    p.add_argument("-n", "--arity", type=int, required=True)
    p.add_argument("-s", "--side", type=int, required=True)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--search", dest="search", action="store_true", default=None,
                   help="force the exhaustive search")
    p.add_argument("--no-search", dest="search", action="store_false")
    p.add_argument("--witness-out", default="",
                   help="write the best witness context to this file")

    p = sub.add_parser("search", help="exhaustive maximum over all cubic relations")
    p.add_argument("-n", "--arity", type=int, required=True)
    p.add_argument("-s", "--side", type=int, required=True)
    p.add_argument("--no-symmetry", action="store_true")
    p.add_argument("--max-relations", type=int, default=None)
    p.add_argument("--show-witnesses", action="store_true")

    sub.add_parser("verify-paper", help="run every bundled reference check")
    return parser


def _run(args) -> int:
    out = sys.stdout
    if args.command == "gen":
        if args.family == "contranominal":
            ctx = contranominal(args.arity, args.side)
        elif args.family == "bclass":
            ctx = b_class(args.sizes)
        elif args.family == "rook":
            ctx = rook_context(args.arity, args.side, args.offset)
        elif args.family == "fixture":
            ctx = fixture(args.name)
        else:
            ctx = random_context(args.sizes, args.density, args.seed)
        out.write(serialize_context(ctx))
        return 0
    if args.command == "enum":
        cs = enumerate_concepts(_read_context(args.context))
        out.write(serialize_concepts(cs, args.format))
        return 0
    if args.command == "count":
        out.write(f"{count_concepts(_read_context(args.context))}\n")
        return 0
    if args.command == "flatten":
        ctx = _read_context(args.context)
        left = _dim_list(ctx, "--left", args.left)
        right = _dim_list(ctx, "--right", args.right) if args.right else tuple(
            d for d in range(ctx.arity) if d not in left
        )
        if overlap := sorted(set(left) & set(right)):
            raise ValueError(f"bipartition sides overlap: {[d + 1 for d in overlap]}")
        out.write(serialize_context(flatten(ctx, Bipartition(left, right))))
        return 0
    if args.command == "slice":
        ctx = _read_context(args.context)
        dim = _dim_index(ctx, args.dim)
        keep = _keep(ctx, dim, "--keep", args.keep)
        out.write(serialize_context(slice_dim(ctx, dim, keep)))
        return 0
    if args.command == "sum":
        ctx = direct_sum(_read_context(args.first), _read_context(args.second))
        out.write(serialize_context(ctx))
        return 0
    if args.command == "impl-check":
        ctx = _read_context(args.context)
        scope = _build_scope(ctx, args.scope, args.slice)
        imp = parse_implication(args.impl)
        verdict = "holds" if holds(scope, imp) else "does not hold"
        out.write(f"{imp}: {verdict}\n")
        return 0
    if args.command == "classify":
        ctx = _read_context(args.context)
        imp = parse_implication(args.impl)
        tag, support = classify(ctx, imp)
        labels = ",".join(sorted(_picked(ctx.dims[0], support)))
        out.write(f"{imp}: {tag.value} (support: {labels or 'none'})\n")
        return 0
    if args.command == "minimize":
        out.write(serialize_context(canonical_context(_read_context(args.context))))
        return 0
    if args.command == "equiv":
        same = lattice_equivalent(_read_context(args.first), _read_context(args.second))
        out.write("equivalent\n" if same else "not equivalent\n")
        return 0
    if args.command == "bounds":
        try:
            report = bounds_report(args.arity, args.side, run_search=args.search)
        except ResourceLimitError as exc:
            raise ResourceLimitError(str(exc).replace(
                f"call exhaustive_max_concepts({args.arity}, {args.side}, max_relations=N)",
                "use 'polyconcept search --max-relations N'",
            )) from None
        if args.witness_out and report.witnesses:
            with open(args.witness_out, "w", encoding="utf-8") as fh:
                fh.write(serialize_context(report.witnesses[0]))
            report.witness_file = args.witness_out
        out.write(render_csv([report]) if args.csv else render_text(report))
        return 0
    if args.command == "search":
        try:
            result = exhaustive_max_concepts(
                args.arity, args.side,
                symmetry_reduction=not args.no_symmetry,
                max_relations=args.max_relations,
            )
        except (ValueError, ResourceLimitError) as exc:
            raise type(exc)(str(exc).replace("max_relations", "--max-relations")) from None
        kind = "exact maximum" if result.exact else "lower bound (partial search)"
        out.write(f"{kind}: {result.max_count}\n")
        out.write(f"witnesses up to symmetry: {len(result.witnesses)}\n")
        out.write(f"relations examined: {result.examined}\n")
        if args.show_witnesses:
            for w in result.witnesses:
                out.write(serialize_context(w))
        return 0
    if args.command == "verify-paper":
        results = run_checks()
        out.write(render_results(results))
        return 0 if all(r.ok for r in results) else 1
    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    # The parser dies here, before the command runs, so the collector frees
    # its reference cycles while they are young instead of keeping them for
    # a full collection.
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ValueError, OSError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
