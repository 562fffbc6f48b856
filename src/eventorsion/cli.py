"""Command-line front end: classify, oracle, sweep, sample, verify.

Exit codes: 0 success, 1 verification mismatches, 2 invalid input,
3 internal consistency failure, 4 factoring limit: a number the run must
factor (D, gcd(m, n) and n/2; with the oracle also q = m^2 - n^2*D) has a
prime factor at or above 3.3*10^24, beyond the proven Miller-Rabin range,
or a composite part with no prime factor below ~10^15 for Pollard rho to
find within its step budget.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from collections import Counter
from typing import TextIO

from . import family as _family
from . import oracle as _oracle
from .classifier import CASES, InconsistencyError, full_report
from .corpus import CorpusFormatError, CorpusRecord
from .curve import InvalidCurveError, normalize
from .intmath import FactoringLimitError
from .oracle import OracleError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_INCONSISTENT = 3
EXIT_LIMIT = 4


def _render_text(report, out: TextIO) -> None:
    c = report.curve
    print(f"curve {c}", file=out)
    print(f"class: {report.cls.label}", file=out)
    w = report.cls.witness
    print(f"witness: {w.tag}{w.params}" if w else "witness: none", file=out)
    print(
        f"generator: {report.generator}  order {report.generator_order}", file=out
    )
    if report.oracle_group is not None:
        g = report.oracle_group
        print(f"oracle: {g.structure} (order {g.order})", file=out)
        print(f"agree: {'yes' if report.agree else 'NO'}", file=out)


def _open_out(path: str | None) -> contextlib.AbstractContextManager[TextIO]:
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def cmd_classify(args: argparse.Namespace) -> int:
    c = normalize(args.m, args.n, args.D)
    report = full_report(c, with_oracle=args.oracle)
    with _open_out(args.out) as out:
        if args.format == "records":
            print(CorpusRecord.from_report(report).to_line(), file=out)
        else:
            _render_text(report, out)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    c = normalize(args.m, args.n, args.D)
    group = _oracle.torsion_group(c)
    with _open_out(args.out) as out:
        print(f"curve {c}", file=out)
        print(f"structure: {group.structure} (order {group.order})", file=out)
        print(f"reduction bound: {_oracle.reduction_bound(c)}", file=out)
        print(f"elements: {', '.join(str(p) for p in group.elements)}", file=out)
        print(f"generators: {', '.join(str(p) for p in group.generators)}", file=out)
    return EXIT_OK


def _emit_records(reports, args, check_predicted=None) -> int:
    counts: Counter[str] = Counter()
    disagreements = 0
    mismatches = 0
    with _open_out(args.out) as out:
        for report in reports:
            record = CorpusRecord.from_report(report)
            counts[record.cls] += 1
            if record.agree is False:
                disagreements += 1
            if check_predicted is not None and not check_predicted(report):
                mismatches += 1
            if args.format == "records":
                print(record.to_line(), file=out)
            else:
                gen = report.generator
                oracle_part = (
                    f" oracle={report.oracle_group.structure}"
                    f" agree={'yes' if report.agree else 'NO'}"
                    if report.oracle_group is not None
                    else ""
                )
                print(
                    f"m={record.m} n={record.n} D={record.D} class={record.cls}"
                    f" generator=({gen.x},{gen.y}){oracle_part}",
                    file=out,
                )
    parts = [f"curves={sum(counts.values())}"]
    parts += [f"{label}={counts[label]}" for label in sorted(counts)]
    parts.append(f"disagreements={disagreements}")
    if check_predicted is not None:
        parts.append(f"prediction_mismatches={mismatches}")
    print(" ".join(parts), file=sys.stderr)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if min(args.m_max, args.n_max, args.d_max) < 1:
        raise InvalidCurveError("sweep bounds must be positive")
    reports = (
        full_report(c, with_oracle=True)
        for c in _family.sweep_curves(args.m_max, args.n_max, args.d_max)
    )
    return _emit_records(reports, args)


def cmd_sample(args: argparse.Namespace) -> int:
    samples = _family.sample_case(args.case, args.bound)

    def reports():
        for s in samples:
            yield full_report(s.curve, with_oracle=args.oracle)

    case = CASES[args.case]

    def check(report) -> bool:
        # Exact cases predict the class order outright; containment cases
        # predict a divisor of it.
        if case.exact:
            return report.cls.order == case.order
        return report.cls.order % case.order == 0

    return _emit_records(reports(), args, check_predicted=check)


def cmd_verify(args: argparse.Namespace) -> int:
    mismatches = 0
    total = 0
    with open(args.path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            total += 1
            record = CorpusRecord.from_line(line)
            c = normalize(record.m, record.n, record.D)
            if (c.m, c.n, c.D) != (record.m, record.n, record.D):
                print(f"line {lineno}: curve not normalized", file=sys.stderr)
                mismatches += 1
                continue
            report = full_report(c, with_oracle=record.oracle_order is not None)
            fresh = CorpusRecord.from_report(report)
            if fresh != record:
                print(
                    f"line {lineno}: mismatch\n  stored {record.to_line()}\n"
                    f"  fresh  {fresh.to_line()}",
                    file=sys.stderr,
                )
                mismatches += 1
    print(f"verified={total} mismatches={mismatches}", file=sys.stderr)
    return EXIT_OK if mismatches == 0 else EXIT_MISMATCH


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eventorsion",
        description=(
            "Classify the rational torsion subgroup of y^2 = x(x+M)(x+N), "
            "M,N = m +- n*sqrt(D), by explicit Diophantine criteria, with an "
            "independent brute-force oracle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "records"), default="text")
        p.add_argument("--out", metavar="PATH", default=None)

    p = sub.add_parser("classify", help="classify a single curve (m n D)")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("D", type=int)
    p.add_argument("--oracle", action="store_true", help="cross-check with the oracle")
    add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("oracle", help="enumerate the torsion group (m n D)")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("D", type=int)
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser(
        "sweep",
        help="classify every normalized curve with |m|<=m_max, n<=n_max, |D|<=d_max",
    )
    p.add_argument("m_max", type=int)
    p.add_argument("n_max", type=int)
    p.add_argument("d_max", type=int)
    add_common(p)
    p.set_defaults(func=cmd_sweep, format="records")

    p = sub.add_parser("sample", help="emit curves from one case's parametrization")
    p.add_argument("case", choices=CASES)
    p.add_argument("bound", type=int)
    p.add_argument("--oracle", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_sample, format="records")

    p = sub.add_parser("verify", help="re-check an existing corpus file")
    p.add_argument("path")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FactoringLimitError as exc:
        print(f"factoring limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (InvalidCurveError, CorpusFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (InconsistencyError, OracleError) as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


def run() -> None:
    raise SystemExit(main())
