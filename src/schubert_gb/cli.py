"""Command-line interface.

Exit codes: 0 success, 1 verification mismatch, 2 usage, parse or file error,
3 enumeration guard exceeded, 4 missing fixture.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .decoding import BSC, DECODED, FixedWeight, gb_decode, simulate
from .estimators import _as_mask
from .fixtures import FixtureMissingError
from .formats import format_basis, format_matrix, format_points, parse_basis, parse_matrix
from .groebner import _field_leads, capability, coset_engine
from .linalg import LinearCode
from .schubert import (
    SchubertSpec,
    enumerate_schubert_points,
    generator_matrix,
    index_tuples,
    schubert_params,
)
from .validation import EnumerationLimitError, _bound_exceeded, enum_limit
from .verify import SECTIONS, run_checks
from .words import NUMBER_DIGITS, WORD_LIMIT, monomial_to_string, quoted, small_int, word_to_string

OK, MISMATCH, USAGE, GUARD, MISSING_FIXTURE = 0, 1, 2, 3, 4


def _spec_from_args(args) -> SchubertSpec:
    try:
        alpha = tuple(small_int(x) for x in args.alpha.split(","))
    except ValueError:
        raise ValueError(f"bad alpha {quoted(args.alpha)}: expected integers like 1,4") from None
    return SchubertSpec(l=args.l, m=args.m, q=args.q, alpha=alpha)


class _Parser(argparse.ArgumentParser):
    """Refuses an argument with one ``error:`` line, as every input refusal is."""

    def error(self, message: str):
        self.exit(USAGE, f"error: {message}\n")


def _int_arg(text: str) -> int:
    """An integer argument; argparse prints this refusal, not the whole text."""
    try:
        return small_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at most {NUMBER_DIGITS} digits, got {quoted(text)}"
        ) from None


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--l", type=_int_arg, required=True, help="subspace dimension")
    parser.add_argument("--m", type=_int_arg, required=True, help="ambient dimension")
    parser.add_argument("--q", type=_int_arg, required=True, help="prime field size")
    parser.add_argument(
        "--alpha", required=True, help="comma-separated strictly increasing tuple, e.g. 1,4"
    )


def cmd_params(args) -> int:
    p = schubert_params(_spec_from_args(args))
    t = (p.d - 1) // 2
    mds = "yes" if p.k + p.d == p.n + 1 else "no"
    print(f"n={p.n} k={p.k} d={p.d} t={t} mds={mds}")
    return OK


def cmd_build(args) -> int:
    spec = _spec_from_args(args)
    G = generator_matrix(spec)
    Path(args.output).write_text(format_matrix(G, spec.q))
    if args.emit_points:
        points = enumerate_schubert_points(spec)
        tuples = list(index_tuples(spec.l, spec.m))
        Path(args.emit_points).write_text(format_points(points, tuples))
    return OK


def _binary_code(path: str) -> LinearCode:
    """The code of a binary generator-matrix file.

    A code longer than a word is refused before ``from_generator`` builds
    its (n - k) x n parity check, which a header such as ``0 99999999 2``
    would size.  As in the coset engine, the guard on its 2^(n-k) cosets
    speaks first; the exponent is compared, so no 2^(n-k) is formed.
    """
    G, p = parse_matrix(Path(path).read_text())
    if p != 2:
        raise ValueError("binary only")
    k, n = G.shape
    if n > WORD_LIMIT:
        if n - k >= enum_limit().bit_length():
            raise _bound_exceeded("coset leader table", f"2^{n - k}", "cosets")
        raise ValueError(f"word length {n} exceeds limit {WORD_LIMIT}")
    return LinearCode.from_generator(G, p=2)


def cmd_gb(args) -> int:
    basis = coset_engine(_binary_code(args.matrix))
    t = capability(basis)  # refuses a basis without code binomials before anything is written
    if args.output:
        Path(args.output).write_text(format_basis(basis))
    fields = _field_leads(basis.n, basis.leads[:basis.n])
    print(f"elements={basis.leads.size + fields.size} t={t}")
    return OK


def cmd_decode(args) -> int:
    basis = parse_basis(Path(args.basis).read_text())
    word = _as_mask(args.word, basis.n)
    outcome = gb_decode(word, basis, mode=args.mode)
    if outcome.status == DECODED:
        print(
            f"status={outcome.status} "
            f"canonical={monomial_to_string(outcome.canonical)} "
            f"error={word_to_string(outcome.error, basis.n)} "
            f"codeword={monomial_to_string(outcome.codeword)} "
            f"codeword_bits={word_to_string(outcome.codeword, basis.n)} "
            f"nf_weight={outcome.nf_weight}"
        )
    else:
        print(
            f"status={outcome.status} "
            f"canonical={monomial_to_string(outcome.canonical)} "
            f"nf_weight={outcome.nf_weight}"
        )
    return OK


def _parse_model(text: str):
    kind, _, value = text.partition(":")
    try:
        if kind == "fixed_weight":
            return FixedWeight(small_int(value))
        if kind == "bsc":
            if not value.isascii():  # float() reads any Unicode digit
                raise ValueError
            return BSC(float(value))
    except ValueError:
        raise ValueError(f"bad model {quoted(text)}; use fixed_weight:<w> or bsc:<p>") from None
    raise ValueError(f"unknown model {quoted(text)}; use fixed_weight:<w> or bsc:<p>")


def cmd_simulate(args) -> int:
    code = _binary_code(args.matrix)
    basis = coset_engine(code)
    report = simulate(code, basis, _parse_model(args.model), args.trials, args.seed)
    print(report.record())
    return OK


def cmd_verify_paper(args) -> int:
    only = [args.only] if args.only else None
    results = run_checks(only=only, echo=print)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return MISMATCH if failed else OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sgb",
        description="Schubert codes, binomial-ideal Groebner bases, and decoding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="print code parameters for a variety spec")
    _add_spec_flags(p)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("build", help="construct a generator matrix")
    _add_spec_flags(p)
    p.add_argument("-o", "--output", required=True, help="matrix output file")
    p.add_argument("--emit-points", help="also write the point coordinates here")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("gb", help="compute the reduced Groebner basis of a code", description=(
        "Compute the reduced degrevlex Groebner basis of a binary code with the coset engine; "
        "'sgb verify-paper --only gb' checks it against a Buchberger run."))
    p.add_argument("--matrix", required=True, help="generator matrix file")
    p.add_argument("-o", "--output", help="basis output file")
    p.set_defaults(func=cmd_gb)

    p = sub.add_parser("decode", help="decode a received word against a basis file")
    p.add_argument("--basis", required=True, help="basis file from 'sgb gb'")
    p.add_argument("--word", required=True, help="binary string or monomial like x1*x2")
    p.add_argument("--mode", choices=("bounded", "complete"), default="bounded")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("simulate", help="run the seeded channel simulator")
    p.add_argument("--matrix", required=True, help="generator matrix file")
    p.add_argument("--model", required=True, help="fixed_weight:<w> or bsc:<p>")
    p.add_argument("--trials", type=_int_arg, default=1000)
    p.add_argument("--seed", type=_int_arg, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify-paper", help="replay all bundled reference fixtures")
    p.add_argument("--only", choices=SECTIONS, help="restrict to one check section")
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EnumerationLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return GUARD
    except FixtureMissingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MISSING_FIXTURE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
