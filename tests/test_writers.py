"""The CSV writers against the per-value writers they replaced.

_reference_fmt, _reference_trajectory_csv and _reference_field_csv are the
writers as they were, one f-string per value; the row templates must give
the same bytes for every float.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdyn.dynamics import TrajectoryRecord
from fairdyn.scenario import (
    FIELD_COLUMNS,
    TRAJECTORY_COLUMNS,
    _FIELD_ROW,
    _TRAJECTORY_ROW,
    _fmt,
    write_field_csv,
    write_trajectory_csv,
)


def _reference_fmt(x):
    return f"{float(x):.17g}"


def _reference_trajectory_csv(record) -> str:
    lines = [TRAJECTORY_COLUMNS]
    for i in range(len(record.times)):
        lines.append(
            ",".join(
                [
                    _reference_fmt(record.times[i]),
                    _reference_fmt(record.pi_a[i]),
                    _reference_fmt(record.pi_b[i]),
                    _reference_fmt(record.pi_a[i] - record.pi_b[i]),
                    _reference_fmt(record.tau1_a[i]),
                    _reference_fmt(record.tau0_a[i]),
                    _reference_fmt(record.tau1_b[i]),
                    _reference_fmt(record.tau0_b[i]),
                    _reference_fmt(record.beta_a[i]),
                    _reference_fmt(record.beta_b[i]),
                    _reference_fmt(record.step_utility[i]),
                    _reference_fmt(record.running_utility[i]),
                    record.case_tags[i],
                    record.flags[i],
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _reference_field_csv(rows) -> str:
    lines = [FIELD_COLUMNS]
    for row in rows:
        lines.append(",".join(_reference_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, 0.1, 1e16, 1e17, 123456789012345678.0]
_FLOATS = st.floats() | st.sampled_from(_SPECIAL) | st.floats(-1e-307, 1e-307)  # subnormals
_VALUES = _FLOATS | _FLOATS.map(np.float64)


@settings(max_examples=300, deadline=None)
@given(value=_VALUES, row=st.lists(_VALUES, min_size=6, max_size=6))
def test_row_templates_format_like_fmt(value, row):
    assert _fmt(value) == _reference_fmt(value)
    assert _FIELD_ROW % ((value,) * 6) == ",".join([_reference_fmt(value)] * 6)
    assert _FIELD_ROW % tuple(row) == ",".join(map(_reference_fmt, row))
    expected = ",".join([*map(_reference_fmt, row * 2), "AA1", "merge"])
    assert _TRAJECTORY_ROW % (*row, *row, "AA1", "merge") == expected


_TAGS = st.sampled_from(["UN", "AA1", "AA2"])
_FLAGS = st.sampled_from(["", "merge", "case_switch|advantage_swap", "stationary_stop"])


@st.composite
def _records(draw):
    n = draw(st.integers(1, 12))
    columns = [np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n)), dtype=float) for _ in range(11)]
    return TrajectoryRecord(
        "AA", "CT", *columns,
        cumulative_utility=0.0,
        case_tags=draw(st.lists(_TAGS, min_size=n, max_size=n)),
        flags=draw(st.lists(_FLAGS, min_size=n, max_size=n)),
        events=[], clamp_count=0, g_a=0.5,
    )


@settings(max_examples=100, deadline=None)
@given(record=_records())
def test_trajectory_csv_matches_per_value_writer(record, tmp_path_factory):
    path = tmp_path_factory.mktemp("trajectory") / "t.csv"
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf in the delta column
        write_trajectory_csv(record, path)
        expected = _reference_trajectory_csv(record)
    assert path.read_text() == expected


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(*[_VALUES] * 6), max_size=20))
def test_field_csv_matches_per_value_writer(rows, tmp_path_factory):
    path = tmp_path_factory.mktemp("field") / "f.csv"
    write_field_csv(rows, path)
    assert path.read_text() == _reference_field_csv(rows)
