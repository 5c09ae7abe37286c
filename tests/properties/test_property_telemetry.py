"""Property test of the telemetry bus's plain-Python p95.

``telemetry.p95`` replaces ``np.percentile(waits, 95)`` in every control
tick's snapshot, so it must return the same bits: over 1-500 finite
non-negative floats, with duplicates, zeros, subnormals and all-equal
windows, its result's ``float.hex`` equals numpy's.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.serving.autoscale.telemetry import p95

finite = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
waits = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)

windows = st.one_of(
    st.lists(finite, min_size=1, max_size=500),
    st.lists(waits, min_size=1, max_size=500),
    # Heavy duplication, zeros included: neighbours often tie.
    st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.5]), min_size=1, max_size=500),
    # All-equal windows.
    st.builds(lambda v, n: [v] * n, finite, st.integers(min_value=1, max_value=500)),
)


@settings(max_examples=500, deadline=None)
@given(windows)
def test_p95_is_numpy_percentile_bit_for_bit(values):
    assert p95(values).hex() == float(np.percentile(values, 95)).hex()


@given(windows)
def test_p95_ignores_input_order(values):
    assert p95(values).hex() == p95(list(reversed(values))).hex()
