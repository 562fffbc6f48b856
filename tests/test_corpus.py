import json
from dataclasses import fields

import pytest
from conftest import int_digit_limit
from hypothesis import example, given
from hypothesis import strategies as st

from eventorsion.classifier import (
    CASES,
    Witness,
    WitnessII,
    WitnessIII,
    WitnessV,
    classify,
    full_report,
)
from eventorsion.corpus import CorpusFormatError, CorpusRecord
from eventorsion.curve import CurveMND

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


class TestWitnessTokens:
    RECORD = CorpusRecord(3, 2, 2, "Z4", Witness(), -1, 2, 4, True)

    def read(self, token):
        """The witness from_line reads from a record line carrying token."""
        payload = {**json.loads(self.RECORD.to_line()), "witness": token}
        return CorpusRecord.from_line(json.dumps(payload)).witness

    def token(self, witness):
        """The witness field to_line writes for witness."""
        return json.loads(self.RECORD._replace(witness=witness).to_line())["witness"]

    def test_none(self):
        assert self.token(Witness()) is None
        assert self.read(None) == Witness()

    def test_roundtrip(self):
        w = WitnessV(4, 4, 9, -3)
        assert self.read(self.token(w)) == w

    def test_token_shape(self):
        assert self.token(WitnessII(2, 1, 1)) == "II:2,1,1"

    def test_bad_tokens(self):
        with pytest.raises(CorpusFormatError):
            self.read("IX:1,2")
        with pytest.raises(CorpusFormatError):
            self.read("II:1")


class TestCorpusRecord:
    def record(self, triple=(3, 2, 2), oracle=True):
        return CorpusRecord.from_report(full_report(CurveMND(*triple), with_oracle=oracle))

    def test_key_order_fixed(self):
        line = self.record().to_line()
        assert tuple(json.loads(line).keys()) == FIELD_ORDER

    def test_integers_serialized_as_strings(self):
        payload = json.loads(self.record().to_line())
        assert payload["m"] == "3" and payload["generator_x"] == "-1"
        assert payload["oracle_order"] == "4"
        assert payload["agree"] is True

    def test_roundtrip(self):
        for triple in [(3, 2, 2), (5, 2, 3), (23, 8, 7), (95, 32, 10), (-366, 30, -15)]:
            for oracle in (False, True):
                rec = self.record(triple, oracle)
                assert CorpusRecord.from_line(rec.to_line()) == rec

    def test_z2_record_reads_back_the_classifiers_witness(self):
        # Odd n, and even n with reduction bound g = 2.
        for c in (CurveMND(5, 3, 2), CurveMND(5, 2, 3)):
            line = CorpusRecord.from_report(full_report(c)).to_line()
            assert '"witness": null' in line
            assert CorpusRecord.from_line(line).witness is classify(c)

    def test_huge_integers_survive(self):
        rec = CorpusRecord(
            m=10**40, n=1, D=2, cls="Z2", witness=Witness(),
            generator_x=-(10**41), generator_y=0, oracle_order=None, agree=None,
        )
        assert CorpusRecord.from_line(rec.to_line()) == rec

    def test_rejects_reordered_keys(self):
        good = json.loads(self.record().to_line())
        swapped = dict(reversed(list(good.items())))
        with pytest.raises(CorpusFormatError, match="unexpected fields"):
            CorpusRecord.from_line(json.dumps(swapped))

    def test_rejects_garbage(self):
        with pytest.raises(CorpusFormatError):
            CorpusRecord.from_line("not json")
        with pytest.raises(CorpusFormatError):
            CorpusRecord.from_line('{"m": "1"}')
        # Each value must be exactly what to_line writes.
        good = json.loads(self.record().to_line())
        for field, bad in [
            ("m", 3.9), ("m", 3), ("m", "+3"), ("m", "03"), ("n", "2.0"), ("D", True),
            ("oracle_order", 4.2), ("oracle_order", "4_0"),
            ("agree", 1), ("agree", "true"),
            ("generator_x", " -1 "), ("generator_y", "-0"),
            ("class", 4), ("class", None),
            ("witness", "I: 1,+1"), ("witness", "I:1,+1"), ("witness", "I:1,1.0"),
            ("witness", 5), ("witness", "X:1,1"),
        ]:
            with pytest.raises(CorpusFormatError):
                CorpusRecord.from_line(json.dumps({**good, field: bad}))

    def test_rejects_repeated_key(self):
        line = self.record().to_line()
        with pytest.raises(CorpusFormatError, match="unexpected fields"):
            CorpusRecord.from_line(line[:-1] + ', "m": "5"}')

    def test_rejects_lines_json_reads_but_to_line_never_writes(self):
        line = self.record().to_line()
        assert '"m": "3"' in line and '"witness": "I:1,1"' in line
        for bad in [
            json.dumps(json.loads(line), separators=(",", ":")),
            line.replace('"m": "3"', '"m": "\\u0033"'),
            line.replace('"m": "3"', '"m": "\u0663"'),
            line.replace('"m": "3"', '"m": "3\u0663"'),
            line[:-1] + ', "x": "1"}',
            line.replace('"I:1,1"', '"I:01,1"'),
        ]:
            assert json.loads(bad) is not None
            with pytest.raises(CorpusFormatError, match="unexpected fields"):
                CorpusRecord.from_line(bad)

    def test_rejects_past_the_default_digit_limit(self):
        line = self.record().to_line().replace('"m": "3"', f'"m": "1{"0" * 4400}"')
        with int_digit_limit(4300), pytest.raises(CorpusFormatError):
            CorpusRecord.from_line(line)

    def test_accepts_surrounding_whitespace(self):
        rec = self.record()
        assert CorpusRecord.from_line(f" \t{rec.to_line()}\r\n") == rec

    def test_from_report_fills_each_field_from_its_namesake(self):
        report = full_report(CurveMND(95, 32, 10), True)
        rec = CorpusRecord.from_report(report)
        assert rec == (95, 32, 10, "Z10", WitnessV(4, 4, 9, 3), -15, 240, 10, True)
        c, gen = report.curve, report.generator
        assert (rec.m, rec.n, rec.D) == (c.m, c.n, c.D)
        assert (rec.cls, rec.witness) == (report.cls.label, report.cls)
        assert (rec.generator_x, rec.generator_y) == (gen.x, gen.y)
        assert (rec.oracle_order, rec.agree) == (report.oracle_group.order, report.agree)

    def test_fields_are_read_only(self):
        rec = self.record()
        with pytest.raises(AttributeError):
            rec.m = 5


def json_line(record):
    """The reference for to_line: json.dumps of the record's payload dict,
    the witness written as TAG:p1,p2,... over its fields in order."""
    w = record.witness
    token = None
    if w.tag is not None:
        token = f"{w.tag}:" + ",".join(str(getattr(w, f.name)) for f in fields(w))
    return json.dumps(
        {
            "m": str(record.m),
            "n": str(record.n),
            "D": str(record.D),
            "class": record.cls,
            "witness": token,
            "generator_x": str(record.generator_x),
            "generator_y": str(record.generator_y),
            "oracle_order": None if record.oracle_order is None else str(record.oracle_order),
            "agree": record.agree,
        }
    )


HUGE = 10**4400 + 1  # past Python's default 4300-digit limit
INTS = st.integers() | st.just(HUGE) | st.just(-HUGE)
WITNESSES = st.just(Witness()) | st.one_of(
    *(st.builds(case, *[INTS] * len(fields(case))) for case in CASES.values())
)
RECORDS = st.builds(
    CorpusRecord,
    INTS,
    INTS,
    INTS,
    st.integers().map("Z{}".format),
    WITNESSES,
    INTS,
    INTS,
    st.none() | INTS,
    st.sampled_from([None, True, False]),
)


def assert_json_dumps_and_round_trips(record):
    with int_digit_limit(0):
        line = record.to_line()
        assert line == json_line(record)
        assert CorpusRecord.from_line(line) == record


@given(RECORDS)
@example(CorpusRecord(95, 32, 10, "Z10", WitnessV(4, 4, -9, -3), 81, 1296, 10, True))
def test_to_line_is_json_dumps_and_round_trips(record):
    assert_json_dumps_and_round_trips(record)


def test_huge_record_is_json_dumps_and_round_trips():
    # Not a hypothesis example: hypothesis would repr the record outside
    # int_digit_limit(0), and repr of an int past 4300 digits raises.
    assert_json_dumps_and_round_trips(
        CorpusRecord(HUGE, 2, -HUGE, "Z6", WitnessIII(-1, 2, -3), 0, -1, None, False)
    )
