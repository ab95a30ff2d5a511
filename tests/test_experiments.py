"""The running maximum behind every sampled row, and the input it names.

`experiments._Worst` keeps, per row key, the largest value from 0.0 and the
label of the input that first set it, exactly as `max(best, x)` kept the value
before it.  The seed-7 labels of the stein and condexp-sum rows are pinned: at
catalog defaults both rows read an identity configuration.
"""

import functools
import math

from hypothesis import given, strategies as st

from dyadiclab.experiments import _Worst, run_experiment


def test_the_first_of_equal_maxima_keeps_its_label():
    worst = _Worst()
    for x, label in ((0.5, "a"), (0.75, "b"), (0.75, "c"), (0.25, "d")):
        worst.add("row", x, label)
    check = worst.check("row/id", "row", 1.0)
    assert (check.check_id, check.measured, check.worst_at, check.passed) == (
        "row/id", 0.75, "b", True)


def test_a_key_never_seen_reads_zero_with_no_label():
    worst = _Worst()
    worst.add("seen", 0.5, 3)
    worst.add("zero", 0.0, 7)  # no input above the start: no label either
    for key in ("never", "zero"):
        check = worst.check(key, key, 1.0)
        assert (check.measured, check.worst_at) == (0.0, None)


def test_nan_is_skipped_as_max_skips_it():
    worst = _Worst()
    for label, x in enumerate((math.nan, 0.5, math.nan, 0.25)):
        worst.add("row", x, label)
    assert functools.reduce(max, (math.nan, 0.5, math.nan, 0.25), 0.0) == 0.5
    check = worst.check("row", "row", 1.0)
    assert (check.measured, check.worst_at) == (0.5, 1)


@given(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0 + 2**-52, -1.0, math.nan,
                                 math.inf])
                | st.floats(allow_nan=True), max_size=12))
def test_value_and_label_are_those_of_the_max_fold(xs):
    """The old runners' `best = max(best, x)` from 0.0, bit for bit; the label is
    the index where that fold last took a new object."""
    worst, best, label = _Worst(), 0.0, None
    for k, x in enumerate(xs):
        worst.add("row", x, k)
        new = max(best, x)
        best, label = new, (k if new is not best else label)
    check = worst.check("row", "row", math.inf)
    assert repr(check.measured) == repr(float(best)) and check.worst_at == label


def test_stein_rows_name_their_first_identity_configuration():
    """At seed 7 configs 10, 38 and 91 condition on the finest level alone, where
    every conditional expectation is the identity; the first of them is named."""
    checks = run_experiment("stein", 7)
    assert {c.check_id: (c.measured, c.worst_at) for c in checks} == {
        "stein/p=1.5/normalized": (0.5, 10), "stein/p=2.0/normalized": (1.0, 10),
        "stein/p=3.0/normalized": (0.5, 10)}


def test_condexp_sum_rows_name_configuration_35():
    checks = run_experiment("condexp-sum", 7)
    assert {c.check_id: (c.measured, c.worst_at) for c in checks} == {
        f"condexp-sum/p={p}": (1.0000000000000002, 35) for p in (1.5, 2.0, 3.0)}
