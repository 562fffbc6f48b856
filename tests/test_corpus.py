import json

import pytest

from eventorsion.classifier import WitnessII, WitnessV, full_report
from eventorsion.corpus import (
    FIELD_ORDER,
    CorpusFormatError,
    CorpusRecord,
    witness_from_token,
    witness_token,
)
from eventorsion.curve import CurveMND


class TestWitnessTokens:
    def test_none(self):
        assert witness_token(None) is None
        assert witness_from_token(None) is None

    def test_roundtrip(self):
        w = WitnessV(4, 4, 9, -3)
        assert witness_from_token(witness_token(w)) == w

    def test_token_shape(self):
        assert witness_token(WitnessII(2, 1, 1)) == "II:2,1,1"

    def test_bad_tokens(self):
        with pytest.raises(CorpusFormatError):
            witness_from_token("IX:1,2")
        with pytest.raises(CorpusFormatError):
            witness_from_token("II:1")


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

    def test_huge_integers_survive(self):
        rec = CorpusRecord(
            m=10**40, n=1, D=2, cls="Z2", witness=None,
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
