"""The public records' contract: construction, immutability, equality and repr."""

from array import array
from typing import NamedTuple

import numpy as np
import pytest

from flexmove import (AmplitudeTable, BeamSpec, Biquad, FilterDesign, MotionSpec,
                      OscillatorTrace, ResidualReport, SetpointTable, SweepResult, SweepRow,
                      TimeSeries)


class Case(NamedTuple):
    cls: type
    fields: tuple          # constructor fields in positional order; repr shows exactly these
    args: tuple            # one value per field, all distinct, so a swapped order shows
    defaults: dict         # fields that may be left out, with their defaults
    other: tuple | None    # args of a record unequal to args; None: equal only to itself


SPEC = MotionSpec(0.41, 5.78, 2.0, 0.09)
ROW = SweepRow(2.0, 2.17, 0.0, 0.05, True)
T, X, V = array("d", [0.0, 0.5]), array("d", [0.0, 1e-3]), array("d", [0.0, -2e-3])
SAMPLES, TIMES = np.array([0.25, 1.0, 2.0]), np.array([0.5, 1.5, 2.5])

CASES = [
    Case(BeamSpec, ("l", "b", "h", "E", "m_tip"), (0.305, 0.013, 0.5e-3, 2.1e11, 0.09), {},
         (0.305, 0.013, 0.5e-3, 2.1e11, 0.02)),
    Case(MotionSpec, ("L", "k", "n", "m", "exploratory"), (0.41, 5.78, 2.0, 0.09, True),
         {"exploratory": False}, (0.41, 5.78, 2.5, 0.09, True)),
    Case(SetpointTable, ("t", "s", "v", "a"), (T, X, V, array("d", [0.0, 4.0])), {}, None),
    Case(OscillatorTrace, ("t", "x", "v", "a"), (T, X, V, array("d", [0.0, 4.0])), {}, None),
    Case(ResidualReport, ("spec", "x_end", "v_end"), (SPEC, 1e-9, -2e-9), {},
         (SPEC, 1e-9, -3e-9)),
    Case(TimeSeries, ("t", "values", "label"), (TIMES, SAMPLES, "a_tip"), {"label": "value"},
         None),
    Case(Biquad, ("b0", "b1", "b2", "a1", "a2"), (0.1, 0.2, 0.15, -0.5, 0.25), {},
         (0.1, 0.2, 0.15, -0.5, 0.3)),
    Case(FilterDesign, ("order", "cutoff_hz", "rate_hz"), (4, 20.0, 1500.0), {},
         (4, 25.0, 1500.0)),
    Case(SweepRow, ("n", "t1", "residual", "energy", "quiescent"), (2.5, 2.17, 1e-3, 0.05, False),
         {}, (2.5, 2.17, 1e-3, 0.06, False)),
    Case(SweepResult, ("rows",), ((ROW,),), {}, ((ROW, ROW),)),
    Case(AmplitudeTable, ("masses", "frequencies", "matched_n", "unmatched_n", "matched",
                          "unmatched"),
         ((0.02, 0.09), (12.3, 5.78), 2.0, 2.5, (0.0, 1e-18), (0.01, 0.02)), {},
         ((0.02, 0.09), (12.3, 5.78), 3.0, 2.5, (0.0, 1e-18), (0.01, 0.02))),
]


@pytest.mark.parametrize("case", CASES, ids=[case.cls.__name__ for case in CASES])
def test_record_contract(case):
    cls, fields = case.cls, case.fields
    record = cls(*case.args)
    for name, value in zip(fields, case.args):
        stored = getattr(record, name)
        assert stored is value or stored == value, name
    keywords = dict(zip(fields, case.args))
    by_keyword = cls(**keywords)
    assert all(getattr(by_keyword, name) is getattr(record, name)
               or getattr(by_keyword, name) == getattr(record, name) for name in fields)
    defaulted = cls(**{name: value for name, value in keywords.items()
                       if name not in case.defaults})
    assert {name: getattr(defaulted, name) for name in case.defaults} == case.defaults

    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)

    twin = cls(*case.args)
    if case.other is None:  # arrays inside: equal only to itself
        assert record == record and not record != record
        assert record != twin and not record == twin
        assert hash(record) == hash(record)
    else:
        assert record == twin and not record != twin
        assert hash(record) == hash(twin)
        assert record != cls(*case.other)

    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{cls.__name__}({shown})"
