"""What every public result record shows to a caller, pinned for one
instance each: its repr, equality and hash, immutability and JSON.  These
hold whatever builds the records, dataclass or otherwise."""

import pytest

from rotewords import (CaseTag, DecodeResult, DecompositionCertificate,
                       Exponent, FactorClass, LevelRecord, Morphism,
                       PropernessReport, RepetitionWitness, SearchOutcome,
                       TableRow, Violation, Word, XyxyxOccurrence)


def build(n=4):
    """One instance of each record; ``n`` feeds one field of each, so that
    two calls with the same n give equal records and with different n
    unequal ones."""
    w = Word(bytes([0, 1, 1, 0, 1])[:n], 2)
    occ = XyxyxOccurrence(start=n, x_length=1, y_length=2)
    violation = Violation(kind="xyxyx", position=n, detail=occ)
    report = PropernessReport(checked_length=10, trim=n - 2,
                              violation=violation)
    decoded = DecodeResult(preimage=Word(bytes([0, 2, 1]), 3),
                           dropped_prefix=1, truncated_suffix=n - 2)
    level = LevelRecord(morphism="g", decode=decoded, tail_trim=n - 3,
                        proper=report, antiproper=None)
    cls = FactorClass(tag=CaseTag.FREV if n == 4 else CaseTag.F)
    return {
        "Word": w,
        "Exponent": Exponent(length=n + 1, period=2),
        "RepetitionWitness": RepetitionWitness(start=3, length=n + 1,
                                               period=2),
        "Morphism": Morphism(source_alphabet=2, target_alphabet=2,
                             images=(Word(bytes([0, 1]), 2),
                                     Word(bytes(n - 3), 2))),
        "XyxyxOccurrence": occ,
        "Violation": violation,
        "PropernessReport": report,
        "SearchOutcome": SearchOutcome(max_length=n, witness=w,
                                       reached_target=True,
                                       nodes_explored=9),
        "TableRow": TableRow(forbidden=("0110",), expected=14, computed=14,
                             witness=w, nodes=281, match=True),
        "FactorClass": cls,
        "DecodeResult": decoded,
        "LevelRecord": level,
        "DecompositionCertificate": DecompositionCertificate(
            factor_class=cls, levels=(level,)),
    }


OCC = "XyxyxOccurrence(start=4, x_length=1, y_length=2)"
VIOLATION = f"Violation(kind='xyxyx', position=4, detail={OCC})"
REPORT = f"PropernessReport(checked_length=10, trim=2, violation={VIOLATION})"
DECODED = ("DecodeResult(preimage=Word('021', k=3), dropped_prefix=1, "
           "truncated_suffix=2)")
LEVEL = (f"LevelRecord(morphism='g', decode={DECODED}, tail_trim=1, "
         f"proper={REPORT}, antiproper=None)")
CLASS = "FactorClass(tag=<CaseTag.FREV: 'Frev'>, compatible=(), offenders=())"

REPRS = {
    "Word": "Word('0110', k=2)",
    "Exponent": "Exponent(5/2)",
    "RepetitionWitness": "RepetitionWitness(start=3, length=5, period=2)",
    "Morphism": "Morphism(2->2: 01,0)",
    "XyxyxOccurrence": OCC,
    "Violation": VIOLATION,
    "PropernessReport": REPORT,
    "SearchOutcome": ("SearchOutcome(max_length=4, witness=Word('0110', k=2), "
                      "reached_target=True, nodes_explored=9)"),
    "TableRow": ("TableRow(forbidden=('0110',), expected=14, computed=14, "
                 "witness=Word('0110', k=2), nodes=281, match=True)"),
    "FactorClass": CLASS,
    "DecodeResult": DECODED,
    "LevelRecord": LEVEL,
    "DecompositionCertificate": (f"DecompositionCertificate(factor_class="
                                 f"{CLASS}, levels=({LEVEL},))"),
}

OCC_JSON = {"start": 4, "x_length": 1, "y_length": 2}
VIOLATION_JSON = {"kind": "xyxyx", "position": 4, "detail": OCC_JSON}
REPORT_JSON = {"checked_length": 10, "trim": 2, "violation": VIOLATION_JSON}
DECODED_JSON = {"preimage": "021", "dropped_prefix": 1, "truncated_suffix": 2}
LEVEL_JSON = {"morphism": "g", "decode": DECODED_JSON, "tail_trim": 1,
              "proper": REPORT_JSON, "antiproper": None}

JSONS = {
    "RepetitionWitness": {"start": 3, "length": 5, "period": 2},
    "XyxyxOccurrence": OCC_JSON,
    "Violation": VIOLATION_JSON,
    "PropernessReport": REPORT_JSON,
    "SearchOutcome": {"max_length": 4, "witness": "0110",
                      "reached_target": True, "nodes_explored": 9},
    "TableRow": {"forbidden": ["0110"], "expected": 14, "computed": 14,
                 "witness": "0110", "nodes": 281, "match": True},
    "FactorClass": "Frev",
    "DecodeResult": DECODED_JSON,
    "LevelRecord": LEVEL_JSON,
    "DecompositionCertificate": {"class": "Frev", "levels": [LEVEL_JSON],
                                 "depth_achieved": 0},
}

FIELDS = {
    "Word": ("letters", "alphabet_size"),
    "Exponent": ("length", "period"),
    "RepetitionWitness": ("start", "length", "period"),
    "Morphism": ("source_alphabet", "target_alphabet", "images"),
    "XyxyxOccurrence": ("start", "x_length", "y_length"),
    "Violation": ("kind", "position", "detail"),
    "PropernessReport": ("checked_length", "trim", "violation"),
    "SearchOutcome": ("max_length", "witness", "reached_target",
                      "nodes_explored"),
    "TableRow": ("forbidden", "expected", "computed", "witness", "nodes",
                 "match"),
    "FactorClass": ("tag", "compatible", "offenders"),
    "DecodeResult": ("preimage", "dropped_prefix", "truncated_suffix"),
    "LevelRecord": ("morphism", "decode", "tail_trim", "proper",
                    "antiproper"),
    "DecompositionCertificate": ("factor_class", "levels"),
}

NAMES = list(REPRS)


def test_every_record_is_covered():
    assert list(build()) == NAMES == list(FIELDS)
    assert set(JSONS) == set(NAMES) - {"Word", "Exponent", "Morphism"}


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    assert repr(build()[name]) == REPRS[name]


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash(name):
    a, b, other = build()[name], build()[name], build(5)[name]
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other and not a == other
    # a record is not the tuple of its values
    assert a != tuple(getattr(a, f) for f in FIELDS[name])


@pytest.mark.parametrize("name", NAMES)
def test_immutable(name):
    record = build()[name]
    field = FIELDS[name][0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert getattr(record, field) is before


@pytest.mark.parametrize("name", sorted(JSONS))
def test_to_json(name):
    assert build()[name].to_json() == JSONS[name]
