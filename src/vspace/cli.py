"""Command-line interface.

Every command reads its inputs from files, runs one library operation,
and reports on stdout as a single lowercase verdict keyword followed by
detail lines (one fact per line).  Exit codes: 0 when the property holds
or the command succeeds, 1 when a property is refuted, the verdict is
notconnected, or violations were found, 2 on parse, validation, or
budget errors (details on stderr) and on any unexpected exception (a
one-line ``internal error`` on stderr, no traceback).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

# A command imports the modules that only it uses, so a process loads
# no more than its command runs.
from . import files
from .errors import DEFAULT_MAX_COVERS, ParseError, VSpaceError
from .spaces import induced_space, make_space, validate_space


def _read(path: str) -> str:
    """The file's text as ``files`` parses it: decoded, line ends untouched."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 (byte {exc.start}: {exc.reason})") from None


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _load_space(path: str) -> files.SpaceDocument:
    return files.parse_space(_read(path))


def _endpoints(doc: files.SpaceDocument, args) -> tuple[int, int]:
    a = args.a if args.a is not None else doc.a
    b = args.b if args.b is not None else doc.b
    if a is None or b is None:
        raise VSpaceError("endpoints required: pass --a/--b or put 'a P'/'b P' lines in the file")
    return a, b


def _labels(doc: files.SpaceDocument) -> dict[int, str]:
    if not doc.labels:
        raise VSpaceError("the space file carries no labeling ('label P TOKEN' lines)")
    return doc.labels


def cmd_validate(args) -> int:
    doc = _load_space(args.space)
    violations = validate_space(doc.space)
    if not violations:
        print("valid")
        return 0
    print("invalid")
    for v in violations:
        where = v.point if v.point is not None else "-"
        print(f"violation {v.kind} {where}")
    return 1


def cmd_connected(args) -> int:
    from . import connectivity

    doc = _load_space(args.space)
    a, b = _endpoints(doc, args)
    verdict = connectivity.is_connected(
        doc.space, a, b, engine=args.engine, max_covers=args.max_covers
    )
    if verdict.connected:
        print("connected")
        return 0
    cover = files.serialize_cover(verdict.witness)
    if args.witness_out:
        _write(args.witness_out, cover)
    print("notconnected")
    print(cover.partition("\n")[2], end="")  # the file's choose lines
    return 1


def cmd_tolerance(args) -> int:
    from . import tolerance

    doc = _load_space(args.space)
    report = tolerance.tolerance_report(doc.space, _labels(doc))
    print("intolerant" if report.violations else "tolerant")
    for p in sorted(report.violations):
        print(f"violation {p}")
    for p in sorted(report.tolerant_indices):
        print(f"index {p} {report.tolerant_indices[p]}")
    return 1 if report.violations else 0


def cmd_tolerant_cover(args) -> int:
    from . import tolerance

    doc = _load_space(args.space)
    cover = files.serialize_cover(tolerance.tolerant_cover(doc.space, _labels(doc)))
    _write(args.out, cover)
    print("ok")
    print(cover.partition("\n")[2], end="")  # the file's choose lines
    return 0


def cmd_induced(args) -> int:
    doc = _load_space(args.space)
    labels = _labels(doc)
    space = induced_space(doc.space.points, labels)
    out = files.SpaceDocument(space, dict(labels), doc.a, doc.b)
    _write(args.out, files.serialize_space(out))
    print("ok")
    return 0


def cmd_verify_nontol(args) -> int:
    from . import tolerance

    doc = _load_space(args.space)
    a, b = _endpoints(doc, args)
    outcome = tolerance.check_nontol(
        doc.space, _labels(doc), a, b, engine=args.engine, max_covers=args.max_covers
    )
    print(outcome.status)
    if outcome.status == tolerance.HOLDS:
        for p in sorted(outcome.violations):
            print(f"violating {p}")
        return 0
    if outcome.status == tolerance.NOT_APPLICABLE:
        print(f"reason {outcome.reason}")
        return 0
    return 1


def cmd_verify_nonconn(args) -> int:
    from . import tolerance

    doc = _load_space(args.space)
    a, b = _endpoints(doc, args)
    outcome = tolerance.check_nonconn(doc.space.points, _labels(doc), a, b)
    print(outcome.status)
    return 0 if outcome.status == tolerance.HOLDS else 1


def cmd_code_build(args) -> int:
    from . import coding

    oracle = files.parse_oracle(_read(args.oracle))
    config = coding.CodedSpaceConfig(args.a, args.b, args.points, args.stages)
    coded = coding.build_coded_space(oracle, config)
    doc = files.SpaceDocument(coded.space, coded.pi, config.a, config.b)
    _write(args.out_space, files.serialize_space(doc))
    carrier = make_space({}, coded.space.mode, coded.space.num_points)
    _write(args.out_pi, files.serialize_space(files.SpaceDocument(carrier, coded.pi, config.a, config.b)))
    print("ok")
    return 0


def cmd_code_decode(args) -> int:
    from . import coding

    doc = _load_space(args.space)
    if doc.a is None or doc.b is None:
        raise VSpaceError("the space file must carry 'a P' and 'b P' lines")
    cover = files.parse_cover(_read(args.cover))
    decoded = coding.decode_from_cover(doc.space, cover, doc.a, doc.b)
    # After the decode, whose errors come first, and before any output.
    oracle = None if args.oracle is None else files.parse_oracle(_read(args.oracle))
    print("decoded")
    for x in sorted(decoded):
        if decoded[x]:
            print(f"in {x}")
    if oracle is None:
        return 0
    mismatches = coding.oracle_mismatches(decoded, oracle.entries)
    if not mismatches:
        print("agreement ok")
        return 0
    print("agreement mismatch")
    for x, got, expected in mismatches:
        print(f"mismatch {x} decoded={'in' if got else 'out'} oracle={'in' if expected else 'out'}")
    return 1


def cmd_code_roundtrip(args) -> int:
    from . import coding

    oracle = files.parse_oracle(_read(args.oracle))
    config = coding.CodedSpaceConfig(args.a, args.b, args.points, args.stages)
    report = coding.verify_roundtrip(oracle, config)
    print("ok" if report.passed else "refuted")
    print(f"assert labels-differ {'pass' if report.labels_differ else 'fail'}")
    print(f"assert tolerance {'pass' if report.tolerance_ok else 'fail'}")
    print(f"assert witness {'pass' if report.witness_ok else 'fail'}")
    print(f"assert agreement {'pass' if report.agreement_ok else 'fail'}")
    decoded = " ".join(str(x) for x in report.decoded_in)
    print(f"decoded:{' ' + decoded if decoded else ''}")
    return 0 if report.passed else 1


def _add_endpoint_args(sub, required: bool = False) -> None:
    sub.add_argument("--a", type=int, default=None, required=required)
    sub.add_argument("--b", type=int, default=None, required=required)


def _add_budget_args(sub) -> None:
    sub.add_argument("--engine", choices=("brute", "pruned"), default="brute")
    sub.add_argument(
        "--max-covers",
        type=int,
        default=DEFAULT_MAX_COVERS,
        help="search budget, covers for brute and search nodes for pruned "
        "(hard error when exceeded)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vspace",
        description="Finite vicinity spaces: connectedness, tolerance, and enumeration coding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="report all invariant violations of a space file")
    p.add_argument("space")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("connected", help="decide whether two points are connected under every cover")
    p.add_argument("space")
    _add_endpoint_args(p)
    _add_budget_args(p)
    p.add_argument("--witness-out", default=None)
    p.set_defaults(func=cmd_connected)

    p = sub.add_parser("tolerance", help="per-point constancy report of the labeling")
    p.add_argument("space")
    p.set_defaults(func=cmd_tolerance)

    p = sub.add_parser("tolerant-cover", help="write the cover of least constant vicinities")
    p.add_argument("space")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tolerant_cover)

    p = sub.add_parser("induced", help="write the space induced by the labeling")
    p.add_argument("space")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_induced)

    p = sub.add_parser("verify-nontol", help="connected + different labels force a tolerance failure")
    p.add_argument("space")
    _add_endpoint_args(p)
    _add_budget_args(p)
    p.set_defaults(func=cmd_verify_nontol)

    p = sub.add_parser("verify-nonconn", help="different labels are never connected in the induced space")
    p.add_argument("space")
    _add_endpoint_args(p)
    p.set_defaults(func=cmd_verify_nonconn)

    p = sub.add_parser("code-build", help="build the coded space and labeling from an oracle")
    p.add_argument("--oracle", required=True)
    _add_endpoint_args(p, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--out-space", required=True)
    p.add_argument("--out-pi", required=True)
    p.set_defaults(func=cmd_code_build)

    p = sub.add_parser("code-decode", help="decode enumerated-set membership from a witness cover")
    p.add_argument("--space", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--oracle", default=None)
    p.set_defaults(func=cmd_code_decode)

    p = sub.add_parser("code-roundtrip", help="build, witness, decode, and compare with the oracle")
    p.add_argument("--oracle", required=True)
    _add_endpoint_args(p, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--stages", type=int, required=True)
    p.set_defaults(func=cmd_code_roundtrip)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (VSpaceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
