"""The array renderer against the stdlib, byte for byte: '%.17g' % v for CSV
and json.dumps(v) for JSON."""

import io
import json

import numpy as np
from hypothesis import example, given, strategies as st

from tccss import floatfmt


def _render(rows, shortest, distinct=0) -> str:
    fh = io.BytesIO()
    floatfmt.write_rows(fh, rows, shortest=shortest, distinct=distinct)
    return fh.getvalue().decode()


def _stdlib(rows, shortest) -> str:
    if shortest:
        return json.dumps(rows.tolist(), separators=(",", ":"))[1:-1]
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return "".join(line % tuple(row) for row in rows.tolist())


def _values(text: str) -> list[str]:
    return text.replace("[", "").replace("]", "").replace("\n", ",").split(",")


def _assert_same(rows, shortest, distinct=0):
    got, expect = _render(rows, shortest, distinct), _stdlib(rows, shortest)
    if got != expect:  # name the first value that differs
        for v, a, b in zip(rows.ravel().tolist(), _values(got), _values(expect)):
            assert a == b, (v, shortest)
        raise AssertionError(f"the separators differ (shortest={shortest})")


def _assert_matches(values, cols=1):
    rows = np.asarray(values, dtype=np.float64).reshape(-1, cols)
    _assert_same(rows, False)
    _assert_same(rows, True)


def _edge_values() -> np.ndarray:
    values = [0.0, 5e-324, np.finfo(float).max, np.finfo(float).tiny, np.inf, np.nan]
    for e in range(-1074, 1024):
        values.append(2.0 ** e)
    for e in range(-323, 309):
        values.append(float(f"1e{e}"))
    values = np.array(values)
    finite = values[np.isfinite(values)]
    with np.errstate(over="ignore"):  # the largest double steps up to inf
        values = np.concatenate([values, np.nextafter(finite, 0.0), np.nextafter(finite, np.inf)])
    halves = np.arange(0.0, 1e5 + 0.5, 0.5)
    short = [float(f"{m}e{e}") for m in range(1, 1000, 7) for e in range(-30, 31)]
    values = np.concatenate([values, halves, short])
    return np.concatenate([values, -values])


@given(st.lists(st.floats(), min_size=1, max_size=40))
@example([0.0, -0.0, 5e-324, -5e-324, float("nan"), float("inf"), float("-inf")])
@example([9.9999999999999996e-281, 1e-280, 1e23, 9007199254740993.0, 0.1, 100.0, 1e16, 1e15])
def test_any_float_matches_stdlib(values):
    _assert_matches(values)


@given(st.lists(st.floats(), min_size=6, max_size=6), st.integers(1, 20), st.integers(0, 3))
def test_row_layout_matches_stdlib(row, repeats, distinct):
    # repeated rows exercise the distinct-value columns
    rows = np.array([row] * repeats)
    for shortest in (False, True):
        _assert_same(rows, shortest, distinct)


def test_edge_families_match_stdlib():
    _assert_matches(_edge_values())


def test_chunk_boundaries():
    rows = np.random.default_rng(3).normal(size=(floatfmt.CHUNK_VALUES // 7 * 3 + 5, 7))
    rows[::5, 0] = 1.0
    for shortest in (False, True):
        _assert_same(rows, shortest, distinct=2)


def test_empty_table_writes_nothing():
    assert _render(np.empty((0, 11)), False) == _render(np.empty((0, 11)), True) == ""


def test_random_bit_patterns_match_stdlib():
    # 10^6 patterns, one half in each format: the stdlib reference of the
    # extreme exponents dominates the time
    bits = np.random.default_rng(20240611).integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64)
    for shortest, half in zip((False, True), bits.view(np.float64).reshape(2, -1, 8)):
        _assert_same(half, shortest)
