"""Command-line front end: solve, verify, oracle."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .errors import (
    InternalError,
    MuTooLarge,
    ParseError,
    SeparationInfeasible,
)
from .model import (
    CLASSICAL,
    COLORED,
    Configuration,
    parse_certificate,
    parse_configuration,
    serialize_certificate,
)
from .pipeline import plus_minus_partition, run_corollary
from .verifier import oracle_enumerate, verify_certificate

EXIT_SUCCESS = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_SEPARATION = 3
EXIT_MU_TOO_LARGE = 4
EXIT_REJECTED = 5

MODES = ("classical", "plusminus", "colored", "corollary")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SeparationInfeasible as exc:
        print(f"separation infeasible: {exc}", file=sys.stderr)
        return EXIT_SEPARATION
    except MuTooLarge as exc:
        print(f"marked face too large: {exc}", file=sys.stderr)
        return EXIT_MU_TOO_LARGE
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"cannot read or write file: {exc}", file=sys.stderr)
        return EXIT_PARSE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvpm",
        description="Exact Tverberg-type partition solver and verifier.",
        epilog=(
            "exit codes: 0 success, 1 internal error, 2 parse error, "
            "3 separation infeasible, 4 marked face too large, "
            "5 certificate rejected"
        ),
    )
    sub = parser.add_subparsers(required=True)

    solve = sub.add_parser("solve", help="solve a configuration, emit a certificate")
    solve.add_argument("--input", required=True, help="configuration file")
    solve.add_argument("--mode", choices=MODES, default="plusminus")
    solve.add_argument("--output", help="certificate file (default: stdout)")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="re-check a certificate")
    verify.add_argument("--input", required=True, help="configuration file")
    verify.add_argument("--cert", required=True, help="certificate file")
    verify.set_defaults(func=cmd_verify)

    oracle = sub.add_parser(
        "oracle", help="list every valid partition by brute force"
    )
    oracle.add_argument("--input", required=True, help="configuration file")
    oracle.add_argument(
        "--expect-nonempty",
        action="store_true",
        help="fail unless at least one partition is valid",
    )
    oracle.set_defaults(func=cmd_oracle)
    return parser


def _read_text(path: str) -> str:
    """The file's text; bytes that are not UTF-8 are a parse error."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
            ) from None


def _load_configuration(path: str) -> Configuration:
    return parse_configuration(_read_text(path))


def cmd_solve(args) -> int:
    config = _load_configuration(args.input)
    if args.mode == "classical" and config.mu:
        raise ParseError(
            "classical mode requires an empty marked face; use plusminus to honor mu"
        )
    if args.mode == "colored" and config.mode != COLORED:
        raise ParseError("colored mode needs a configuration with color classes")
    if args.mode in ("classical", "plusminus"):
        config = replace(config, mode=CLASSICAL, coloring=None)
    if args.mode == "corollary":
        # The rainbow claim refers to the induced coloring, which the input
        # file does not carry, so the emitted certificate cannot assert it.
        cert = replace(run_corollary(config), rainbow=False)
    else:
        cert = plus_minus_partition(config)
    text = serialize_certificate(cert)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    members = set(config.mu)
    marked = [i for i in cert.coefficients if i in members]
    negative = sum(1 for i in marked if cert.coefficients[i] < 0)
    zero = sum(1 for i in marked if cert.coefficients[i] == 0)
    print(
        f"solved: {len(cert.blocks)} blocks, {len(marked)} marked vertices "
        f"({negative} strictly negative, {zero} zero)",
        file=sys.stderr,
    )
    return EXIT_SUCCESS


def cmd_verify(args) -> int:
    config = _load_configuration(args.input)
    cert = parse_certificate(_read_text(args.cert))
    result = verify_certificate(config, cert)
    if result.accepted:
        print("certificate accepted", file=sys.stderr)
        return EXIT_SUCCESS
    print(f"certificate rejected: {result.reason}", file=sys.stderr)
    return EXIT_REJECTED


def cmd_oracle(args) -> int:
    config = _load_configuration(args.input)
    listing = oracle_enumerate(config)
    for blocks in listing:
        sys.stdout.write(format_blocks(blocks) + "\n")
    if args.expect_nonempty and not listing:
        print("no valid partition exists", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_SUCCESS


def format_blocks(blocks) -> str:
    return " ".join("{" + ",".join(map(str, block)) + "}" for block in blocks)


if __name__ == "__main__":
    sys.exit(main())
