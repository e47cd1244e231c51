"""Value semantics shared by every frozen record of the package.

Each record takes its fields in declaration order, positionally or by
keyword, compares and hashes as its field tuple against its own class only,
prints as Name(field=value, ...) and refuses assignment. None of this may
cost a CLI run the dataclasses module or what it loads.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from cantorval.classify import Certificate, Check, DepthRow, ResidualEntry
from cantorval.construction import RatioSequence
from cantorval.gapforest import FamilyLevel, GapFamily
from cantorval.intervals import ClosedInterval, IntervalUnion, OpenInterval
from cantorval.render import DepthStack, StackRow
from cantorval.series import DoublingPattern, MultigeometricForm, MultigeometricSeries

SRC = Path(__file__).resolve().parents[1] / "src"
EX1 = RatioSequence((), (F(7, 15), F(5, 21)))
UNION = IntervalUnion((-1,), (1,), 1)
ROW = StackRow(0, UNION, ())

# every record class: its fields by keyword, then the same with one field changed
RECORDS = {
    ClosedInterval: ({"lo": F(1, 3), "hi": F(1, 2)}, {"hi": F(2, 3)}),
    OpenInterval: ({"lo": F(1, 3), "hi": F(1, 2)}, {"lo": F(1, 4)}),
    RatioSequence: ({"prefix": (F(2, 5),), "period": (F(7, 15), F(5, 21))}, {"prefix": ()}),
    ResidualEntry: ({"index": 1, "case": ">=,<", "value": F(0)}, {"value": F(1, 9)}),
    DepthRow: (
        {"depth": 2, "measure": F(8, 5), "gap_count": 3, "largest_gap": F(1, 7), "stable": False},
        {"stable": True},
    ),
    Certificate: (
        {
            "sequence": EX1,
            "verdict": "Cantorval",
            "rule": "cover-equation-system",
            "measure": F(8, 5),
            "base": 0,
            "residuals": (ResidualEntry(1, ">=,<", F(0)),),
            "stable_depth": None,
            "union": UNION,
            "report": (DepthRow(1, F(2), 0, F(0), False),),
        },
        {"measure": F(7, 5)},
    ),
    Check: ({"name": "measure-matches", "passed": True, "detail": "ok"}, {"passed": False}),
    GapFamily: ({"root": (0,), "base": 0, "denom": 105, "levels": ()}, {"denom": 21}),
    StackRow: ({"depth": 1, "union": UNION, "family_gaps": ((-1, 1),)}, {"depth": 2}),
    DepthStack: ({"gap_denom": 1, "rows": (ROW,)}, {"rows": ()}),
    MultigeometricSeries: (
        {"prefix": (F(2),), "block": (F(1), F(1, 2)), "ratio": F(1, 9)},
        {"ratio": F(1, 10)},
    ),
    DoublingPattern: ({"prefix_bits": (0,), "period_bits": (0, 1, 1)}, {"period_bits": (0, 1)}),
    MultigeometricForm: ({"epsilons": (1, 2), "ratio": F(1, 9), "measure": F(8, 5)}, {"epsilons": (2, 1)}),
}
# (class, fields left out, the same record with every field given)
DEFAULTS = [
    (RatioSequence, {"period": (F(1, 4),)}, RatioSequence((), (F(1, 4),))),
    (Certificate, {"sequence": EX1, "verdict": "Unknown", "rule": "r"},
     Certificate(EX1, "Unknown", "r", None, None, None, None, None, None)),
    (Check, {"name": "n", "passed": True}, Check("n", True, "")),
    (MultigeometricSeries, {"block": (F(1),)}, MultigeometricSeries((), (F(1),), F(1, 3))),
    (DoublingPattern, {}, DoublingPattern((), (0, 1))),
]
CLASSES = sorted(RECORDS, key=lambda cls: cls.__name__)


def build(cls, **changes):
    fields, _ = RECORDS[cls]
    return cls(**{**fields, **changes})


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestRecord:
    def test_positional_and_keyword_construction_agree(self, cls):
        fields, _ = RECORDS[cls]
        record = cls(*fields.values())
        assert record == build(cls)
        assert [getattr(record, name) for name in fields] == list(fields.values())

    def test_equal_records_hash_alike(self, cls):
        a, b = build(cls), build(cls)
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_a_changed_field_breaks_equality(self, cls):
        _, change = RECORDS[cls]
        assert build(cls) != build(cls, **change)

    def test_other_classes_never_compare_equal(self, cls):
        record = build(cls)
        values = tuple(RECORDS[cls][0].values())
        assert record != values
        assert all(record != build(other) for other in CLASSES if other is not cls)

    def test_assignment_raises(self, cls):
        record = build(cls)
        name, value = next(iter(RECORDS[cls][0].items()))
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert record == build(cls)

    def test_repr_names_every_field_in_order(self, cls):
        fields, _ = RECORDS[cls]
        record = build(cls)
        shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
        assert repr(record) == f"{cls.__name__}({shown})"

    def test_copies_and_pickles_keep_the_fields(self, cls):
        record = build(cls)
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert twin == record and type(twin) is cls


@pytest.mark.parametrize("cls, given, full", DEFAULTS, ids=[cls.__name__ for cls, _, _ in DEFAULTS])
def test_defaults_fill_missing_fields(cls, given, full):
    assert cls(**given) == full


def test_closed_interval_repr():
    assert repr(ClosedInterval(F(1, 3), F(1, 2))) == "ClosedInterval(lo=Fraction(1, 3), hi=Fraction(1, 2))"


def test_depth_cache_is_not_a_field():
    warm = RatioSequence((), (F(7, 15), F(5, 21)))
    warm.depth_table(12)
    assert warm == EX1 and hash(warm) == hash(EX1)
    assert repr(warm) == "RatioSequence(prefix=(), period=(Fraction(7, 15), Fraction(5, 21)))"
    with pytest.raises(TypeError):
        RatioSequence((), (F(1, 4),), None)


def test_field_count_is_checked():
    with pytest.raises(TypeError):
        ClosedInterval(F(0))
    with pytest.raises(TypeError):
        Check("n", True, "", "extra")
    with pytest.raises(TypeError):
        Check("n", True, colour="red")
    with pytest.raises(TypeError):
        Check("n", passed=True, colour="red")
    with pytest.raises(TypeError):
        Check("n", True, name="m")
    with pytest.raises(TypeError):
        Certificate(EX1, "Unknown")


def test_interval_classes_do_not_order_against_each_other():
    with pytest.raises(TypeError):
        ClosedInterval(F(0), F(1)) < OpenInterval(F(0), F(2))  # noqa: B015


def test_hash_of_a_family_with_gaps_is_refused():
    family = build(GapFamily, levels=((1, FamilyLevel(["0"], [0], [1], [2])),))
    assert family == build(GapFamily, levels=((1, FamilyLevel(["0"], [0], [1], [2])),))
    assert family != build(GapFamily, levels=((1, FamilyLevel(["0"], [0], [1], [3])),))
    with pytest.raises(TypeError):
        hash(family)


def test_loading_the_cli_imports_no_code_generators():
    # dataclasses would load these to generate each record's methods; the star
    # import runs every submodule, which would otherwise run on first use only
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    probe = (
        "import sys, types, cantorval.cli; from cantorval import *; "
        "print([n for n, m in sys.modules.items() if n.startswith('cantorval') and type(m) is not types.ModuleType], "
        f"[m for m in {heavy!r} if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[] []"
