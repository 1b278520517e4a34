"""Command-line interface; the only user-facing surface.

Exit status: 0 success, 1 property or check failure, an exhausted budget
or an expansion past its cap, 2 usage or parse error. Reports go to stdout, error messages to
stderr.
"""

import argparse
import functools
import os
import sys
from pathlib import Path

from .algebra import (
    center,
    derived_series,
    jacobian_ideal,
    lie_center,
    lower_central_series,
    product_space,
)
from .catalog import get_catalog
from .construction import build_from_construction, decompose
from .formats import (
    emit_algebra,
    emit_construction,
    parse_algebra_file,
    parse_assignments,
    parse_construction_file,
    parse_identities_file,
)
from .freealg import (
    DEFAULT_RELATION_BUDGET,
    RelationBudgetExceeded,
    build_free_quotient,
    evaluate_word,
)
from .identities import (
    BudgetExceeded,
    ExpansionExceeded,
    check_identity,
    classify,
    get_variety,
    parse_identity,
)
from .moufang import value_text, moufang_check, render_moufang, run_conjecture
from .reports import Report, classification_items


class _UsageError(Exception):
    pass


def _read_file(path):
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror or exc}") from None


def _usage(call, *args, where=None, **kwargs):
    """call(*args, **kwargs), with a ValueError raised as a usage error whose
    message starts with `where: ` when `where` is given."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc) if where is None else f"{where}: {exc}") from None


def _load_algebra(path):
    return _usage(parse_algebra_file, _read_file(path), where=path)


def _relation_budget():
    raw = os.environ.get("SKEWALG_RELATION_BUDGET")
    if raw is None:
        return DEFAULT_RELATION_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise _UsageError(f"invalid SKEWALG_RELATION_BUDGET: {raw!r}")
    return value


def _space_text(S):
    if S.dim == 0:
        return "dim 0"
    basis = ", ".join(str(e) for e in S.basis_elements())
    return f"dim {S.dim}, basis: {basis}"


def _emit(report: Report) -> int:
    sys.stdout.write(report.render())
    return 0


def _algebra_report(command, A) -> Report:
    """A report echoing `command`, opened by A's [algebra] name and dim."""
    rep = Report(command)
    rep.add_section("algebra")
    rep.add("name", A.name)
    rep.add("dim", A.dim)
    return rep


def cmd_classify(args) -> int:
    A = _load_algebra(args.file)
    cls = classify(A)
    rep = _algebra_report(f"classify {args.file}", A)
    rep.add_section("varieties")
    for variety, text in classification_items(cls):
        rep.add(variety, text)
    return _emit(rep)


def cmd_invariants(args) -> int:
    A = _load_algebra(args.file)
    rep = _algebra_report(f"invariants {args.file}", A)
    rep.add_section("spaces")
    rep.add("center", _space_text(center(A)))
    rep.add("product space", _space_text(product_space(A)))
    rep.add("lie center", _space_text(lie_center(A)))
    rep.add("jacobian ideal", _space_text(jacobian_ideal(A)))
    derived, lower = derived_series(A), lower_central_series(A)
    rep.add_section("series")
    rep.add("derived", ", ".join(str(s.dim) for s in derived))
    rep.add("lower central", ", ".join(str(s.dim) for s in lower))
    rep.add_section("flags")
    rep.add("solvable", "yes" if derived[-1].dim == 0 else "no")
    rep.add("nilpotent", "yes" if lower[-1].dim == 0 else "no")
    return _emit(rep)


def cmd_check(args) -> int:
    A = _load_algebra(args.file)
    if args.variety is not None:
        identities = _usage(get_variety, args.variety)
        echo = f"check {args.file} --variety {args.variety}"
    else:
        identities = (_usage(parse_identity, args.identity),)
        echo = f"check {args.file} --identity {args.identity}"
    rep = _algebra_report(echo, A)
    rep.add_section("check")
    failed = False
    for idf in identities:
        result = check_identity(A, idf)
        if result.holds:
            rep.add(idf.text, "holds")
        else:
            failed = True
            rep.add(idf.text, f"FAILS (witness {result.witness.describe()})")
    _emit(rep)
    return 1 if failed else 0


def cmd_moufang(args) -> int:
    A = _load_algebra(args.file)
    assigns = _usage(parse_assignments, args.elements, A.basis_names)
    if set(assigns) != {"x1", "x2", "x3"}:
        raise _UsageError("--elements must assign exactly x1, x2, x3")
    x1, x2, x3 = (A.element(assigns[k]) for k in ("x1", "x2", "x3"))
    report = moufang_check(A, x1, x2, x3)
    command = f"moufang {args.file} --elements {args.elements!r}"
    _emit(render_moufang(report, classify(A), command))
    if report.hypothesis_holds and report.conclusion_holds is False:
        return 1
    return 0


def cmd_construct(args) -> int:
    data = _usage(parse_construction_file, _read_file(args.file), where=args.file)
    try:
        B = build_from_construction(data)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(emit_algebra(B))
    return 0


def cmd_decompose(args) -> int:
    A = _load_algebra(args.file)
    try:
        data = decompose(A)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(emit_construction(data))
    return 0


def cmd_free(args) -> int:
    budget = _relation_budget()
    if args.variety is not None:
        identities = _usage(get_variety, args.variety)
        source = ("variety", args.variety)
    else:
        identities = _usage(
            parse_identities_file, _read_file(args.identities), where=args.identities
        )
        source = ("identities", "; ".join(i.text for i in identities))
    extra = tuple(args.extra_relation or ())
    F = _usage(
        build_free_quotient, identities, args.generators, args.max_degree,
        extra_relations=extra, budget=budget,
    )
    rep = Report(_free_echo(args))
    rep.add_section("free algebra")
    rep.add(*source)
    rep.add("generators", ", ".join(F.generators))
    rep.add("max degree", F.max_degree)
    if extra:
        rep.add("extra relations", "; ".join(extra))
    rep.add("dims", ", ".join(f"{d}: {n}" for d, n in enumerate(F.dims(), start=1)))
    if args.eval_word is not None:
        value = _usage(evaluate_word, F, args.eval_word)
        rep.add_section("eval")
        rep.add("word", args.eval_word)
        rep.add("degree", value.degree)
        rep.add("value", value_text(F, value))
    return _emit(rep)


def _free_echo(args) -> str:
    parts = ["free"]
    if args.variety is not None:
        parts += ["--variety", args.variety]
    else:
        parts += ["--identities", args.identities]
    parts += ["--generators", str(args.generators)]
    parts += ["--max-degree", str(args.max_degree)]
    for word in args.extra_relation or ():
        parts += ["--extra-relation", word]
    if args.eval_word is not None:
        parts += ["--eval", args.eval_word]
    return " ".join(parts)


def cmd_conjecture(args) -> int:
    rep = run_conjecture(
        variant_generators=args.variant_generators, budget=_relation_budget()
    )
    return _emit(rep)


def cmd_catalog(args) -> int:
    entry = _usage(get_catalog, args.name)
    sys.stdout.write(emit_algebra(entry.algebra, pairs=entry.display_pairs))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="skewalg",
        description="exact-arithmetic workbench for anticommutative algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="variety memberships of an algebra file")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("invariants", help="distinguished subspaces, series, flags")
    p.add_argument("file")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("check", help="test one identity or one variety")
    p.add_argument("file")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--identity", help='identity text, e.g. "J(x,y,x*z) = 0"')
    g.add_argument("--variety", help="builtin variety name")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("moufang", help="null-triple subalgebra check")
    p.add_argument("file")
    p.add_argument(
        "--elements", required=True, help='"x1 = ...; x2 = ...; x3 = ..."'
    )
    p.set_defaults(func=cmd_moufang)

    p = sub.add_parser("construct", help="build an algebra from a construction file")
    p.add_argument("file")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("decompose", help="recover construction data from an algebra")
    p.add_argument("file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("free", help="truncated free algebra of an identity system")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--variety", help="builtin variety name")
    g.add_argument("--identities", help="file with one identity per line")
    p.add_argument("--generators", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--eval", dest="eval_word", help="word to evaluate")
    p.add_argument(
        "--extra-relation", action="append", help="word to adjoin as a relation"
    )
    p.set_defaults(func=cmd_free)

    p = sub.add_parser("conjecture", help="run the degree-6 word computation")
    p.add_argument("--variant-generators", action="store_true")
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("catalog", help="emit a catalog algebra as a file")
    p.add_argument("name")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except (_UsageError, RelationBudgetExceeded, BudgetExceeded, ExpansionExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
