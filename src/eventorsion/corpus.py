"""Line-delimited corpus records for sweeps, samples, and verification.

One JSON object per line, fixed key order (m, n, D, class, witness,
generator_x, generator_y, oracle_order, agree), every integer serialized as
a decimal string so no consumer word size can truncate it.  A witness is
"TAG:p1,p2,..." or null, TAG being a key of `classifier.CASES`.  Reading
checks the keys in this order, each integer a string in canonical decimal
form, class a string, agree true, false or null, and the witness token of a
known tag; `json.loads` keeps the last of repeated keys, at the first's place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .classifier import CASES, ClassificationReport, Witness

FIELD_ORDER = (
    "m",
    "n",
    "D",
    "class",
    "witness",
    "generator_x",
    "generator_y",
    "oracle_order",
    "agree",
)


class CorpusFormatError(ValueError):
    """A corpus line does not parse as a record."""


def witness_token(witness: Optional[Witness]) -> Optional[str]:
    if witness is None:
        return None
    return f"{witness.tag}:{','.join(str(p) for p in witness.params)}"


def witness_from_token(token: Optional[str]) -> Optional[Witness]:
    if token is None:
        return None
    try:
        tag, joined = token.split(":", 1)
        return CASES[tag](*map(_decimal, joined.split(",")))
    except (AttributeError, ValueError, KeyError, TypeError) as exc:
        raise CorpusFormatError(f"bad witness token {token!r}") from exc


def _decimal(text: object) -> int:
    """The integer written as `text` by to_line: its canonical decimal string."""
    if isinstance(text, str):
        value = int(text)
        if str(value) == text:
            return value
    raise ValueError(f"{text!r} is not a canonical decimal integer")


@dataclass(frozen=True)
class CorpusRecord:
    m: int
    n: int
    D: int
    cls: str
    witness: Optional[Witness]
    generator_x: int
    generator_y: int
    oracle_order: Optional[int]
    agree: Optional[bool]

    @classmethod
    def from_report(cls, report: ClassificationReport) -> "CorpusRecord":
        return cls(
            m=report.curve.m,
            n=report.curve.n,
            D=report.curve.D,
            cls=report.cls.label,
            witness=report.cls.witness,
            generator_x=report.generator.x,
            generator_y=report.generator.y,
            oracle_order=None if report.oracle_group is None else report.oracle_group.order,
            agree=report.agree,
        )

    def to_line(self) -> str:
        payload = {
            "m": str(self.m),
            "n": str(self.n),
            "D": str(self.D),
            "class": self.cls,
            "witness": witness_token(self.witness),
            "generator_x": str(self.generator_x),
            "generator_y": str(self.generator_y),
            "oracle_order": None if self.oracle_order is None else str(self.oracle_order),
            "agree": self.agree,
        }
        return json.dumps(payload)

    @classmethod
    def from_line(cls, line: str) -> "CorpusRecord":
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"not valid JSON: {line!r}") from exc
        if not isinstance(payload, dict) or tuple(payload) != FIELD_ORDER:
            raise CorpusFormatError(f"unexpected fields in {line!r}")
        label, agree = payload["class"], payload["agree"]
        if not isinstance(label, str) or not (agree is None or isinstance(agree, bool)):
            raise CorpusFormatError(f"bad class or agree in {line!r}")
        try:
            return cls(
                m=_decimal(payload["m"]),
                n=_decimal(payload["n"]),
                D=_decimal(payload["D"]),
                cls=label,
                witness=witness_from_token(payload["witness"]),
                generator_x=_decimal(payload["generator_x"]),
                generator_y=_decimal(payload["generator_y"]),
                oracle_order=(
                    None if payload["oracle_order"] is None else _decimal(payload["oracle_order"])
                ),
                agree=agree,
            )
        except ValueError as exc:
            raise CorpusFormatError(f"bad record values in {line!r}") from exc

