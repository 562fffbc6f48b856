"""Line-delimited corpus records for sweeps, samples, and verification.

One JSON object per line, fixed key order (m, n, D, class, witness,
generator_x, generator_y, oracle_order, agree), every integer serialized as
a decimal string so no consumer word size can truncate it.  A witness is
"TAG:p1,p2,...", TAG being a key of `classifier.CASES`, or null for Z2's
parameterless `Witness()`, which reads back as the object `classify`
returns.  Every field is a decimal, a "Z<k>" label or a witness token, so
the line needs no JSON escaping: one template writes it, as `json.dumps`
would with its default separators, and one anchored pattern reads it back.
Reading accepts only the canonical line that writing produces, plus
surrounding whitespace; any other line raises `CorpusFormatError` (exit 2
from `verify`).

A `CorpusRecord` is an immutable `NamedTuple` of the line's nine fields in
key order (`cls` holds the "class" label), so two records compare field by
field and `_replace` gives an edited copy.  `from_report` builds one
positionally from a `ClassificationReport`, itself a `NamedTuple`.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from .classifier import _Z2, CASES, ClassificationReport, Witness

# A canonical decimal: what str() writes for an int.  ASCII [0-9], not \d,
# because int() also reads non-ASCII digits.
_INT = r"(?:0|-?[1-9][0-9]*)"
_TOKEN = rf"({'|'.join(map(re.escape, CASES))}):({_INT}(?:,{_INT})*)"
_LINE = re.compile(
    rf'\{{"m": "({_INT})", "n": "({_INT})", "D": "({_INT})", "class": "(Z{_INT})", '
    rf'"witness": (?:null|"{_TOKEN}"), '
    rf'"generator_x": "({_INT})", "generator_y": "({_INT})", '
    rf'"oracle_order": (?:null|"({_INT})"), "agree": (null|true|false)\}}'
)
_AGREE = {"null": None, "true": True, "false": False}


class CorpusFormatError(ValueError):
    """A corpus line does not parse as a record."""


def _witness(tag: str, params: str) -> Witness:
    """The witness of a token matched by _TOKEN.  Raises TypeError on a wrong
    parameter count, ValueError on a parameter past the int-string limit."""
    return CASES[tag](*map(int, params.split(",")))


class CorpusRecord(NamedTuple):
    m: int
    n: int
    D: int
    cls: str
    witness: Witness
    generator_x: int
    generator_y: int
    oracle_order: Optional[int]
    agree: Optional[bool]

    @classmethod
    def from_report(cls, report: ClassificationReport) -> "CorpusRecord":
        c, gen, group = report.curve, report.generator, report.oracle_group
        return cls(
            c.m,
            c.n,
            c.D,
            report.cls.label,
            report.cls,
            gen.x,
            gen.y,
            None if group is None else group.order,
            report.agree,
        )

    def to_line(self) -> str:
        m, n, d, label, w, gx, gy, order, agree = self
        witness = "null" if w.tag is None else f'"{w.tag}:{",".join(map(str, w.params))}"'
        order = "null" if order is None else f'"{order}"'
        agree = "null" if agree is None else "true" if agree else "false"
        return (
            f'{{"m": "{m}", "n": "{n}", "D": "{d}", "class": "{label}", '
            f'"witness": {witness}, "generator_x": "{gx}", '
            f'"generator_y": "{gy}", "oracle_order": {order}, "agree": {agree}}}'
        )

    @classmethod
    def from_line(cls, line: str) -> "CorpusRecord":
        match = _LINE.fullmatch(line.strip())
        if match is None:
            raise CorpusFormatError(f"unexpected fields in {line!r}")
        m, n, d, label, tag, params, gx, gy, order, agree = match.groups()
        try:
            return cls(
                int(m),
                int(n),
                int(d),
                label,
                _Z2 if tag is None else _witness(tag, params),
                int(gx),
                int(gy),
                None if order is None else int(order),
                _AGREE[agree],
            )
        except (ValueError, TypeError) as exc:
            raise CorpusFormatError(f"bad record values in {line!r}") from exc
