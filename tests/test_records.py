"""The ten result and request records: construction, defaults, validation,
read-only fields, equality, hash and repr; and the start-up import guard."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from graphvariety import (
    DEFAULT_WORK_CAP,
    RATIONALS,
    BfsLayering,
    CountReport,
    CountRequest,
    EdgeEquation,
    EdgeVerdict,
    Graph,
    PrimeField,
    ProjectiveVerdict,
    SamplerConfig,
    SingularityCertificate,
    SplittingReport,
    VertexWeighting,
    standard_space,
)

ROOT = Path(__file__).resolve().parents[1]
EDGE = Graph(2, [(0, 1)])
SPACE_F3 = standard_space("symplectic", 2, PrimeField(3))

# each record with field values in field order, and whether they hash
RECORDS = [
    (BfsLayering, {"root": 0, "layers": ((0,), (1,)), "level": (0, 1)}, True),
    (SingularityCertificate, {"edges": ((0, 1),), "values": (Fraction(1, 2),)}, True),
    (EdgeEquation, {"edge": (0, 1), "terms": ((0, 1, 1), (1, 0, -1))}, True),
    (ProjectiveVerdict, {"verdict": "smooth", "hypothesis_met": False}, True),
    (VertexWeighting, {"colors": ("a", "b"), "weights": {0: [1, 0], 1: [0, 1]}}, False),
    (EdgeVerdict, {"edge": (0, 1), "argmax": ("a",), "strict": True}, True),
    (SplittingReport, {"per_edge": (), "classes": {"a": [(0, 1)]},
                       "matching_flags": {"a": True}, "valid": True, "color_count": 1}, False),
    (CountRequest, {"graph": EDGE, "space": SPACE_F3, "cap": 5}, False),
    (CountReport, {"count": 17, "q": 3, "expected_dimension": 3,
                   "ratio": Fraction(17, 27)}, True),
    (SamplerConfig, {"seed": 1, "bound": 2, "max_retries": 3}, True),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, values, hashable", RECORDS, ids=IDS)
class TestRecord:
    def test_positional_and_keyword_construction_agree(self, cls, values, hashable):
        by_keyword = cls(**values)
        assert cls(*values.values()) == by_keyword
        assert [getattr(by_keyword, name) for name in values] == list(values.values())

    def test_fields_are_read_only(self, cls, values, hashable):
        record = cls(**values)
        for name in values:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.undeclared = 1

    def test_equal_fields_give_equal_records(self, cls, values, hashable):
        a, b = cls(**values), cls(**dict(values))
        assert a == b and not a != b
        if hashable:
            assert hash(a) == hash(b)
        else:
            with pytest.raises(TypeError):
                hash(a)

    def test_repr_names_every_field(self, cls, values, hashable):
        shown = ", ".join(f"{name}={value!r}" for name, value in values.items())
        assert repr(cls(**values)) == f"{cls.__name__}({shown})"


def test_defaults():
    assert CountRequest(EDGE, SPACE_F3).cap == DEFAULT_WORK_CAP
    assert SamplerConfig() == SamplerConfig(seed=0, bound=10, max_retries=64)
    assert SamplerConfig(5).seed == 5


@pytest.mark.parametrize("build, message", [
    (lambda: CountRequest(EDGE, standard_space("symplectic", 2, RATIONALS)),
     "point counting needs a prime field"),
    (lambda: CountRequest(EDGE, SPACE_F3, cap=0), "work cap must be at least 1"),
    (lambda: CountRequest(EDGE, SPACE_F3, 0), "work cap must be at least 1"),
    (lambda: SamplerConfig(bound=0), "bound must be at least 1"),
    (lambda: SamplerConfig(max_retries=0), "max_retries must be at least 1"),
    (lambda: SamplerConfig(0, 10, 0), "max_retries must be at least 1"),
], ids=["count-over-Q", "cap-0-keyword", "cap-0-positional", "bound-0",
        "max-retries-0-keyword", "max-retries-0-positional"])
def test_validation(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_cli_start_up_imports():
    """`tests/startup_imports.py` on a bare interpreter (-S: no `site`)."""
    proc = subprocess.run(
        [sys.executable, "-S", str(ROOT / "tests" / "startup_imports.py"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
