"""``repro.workloads.base.allclose``: ``np.allclose``'s answer, without its
whole-array temporaries.

The workloads verify multi-megabyte outputs; ``np.allclose`` builds
several temporaries of the full size to do it.  The helper compares
same-shape arrays a slice at a time and hands anything else to
``np.allclose``, so its answer must be the same in every case below, and
comparing two 16 MiB arrays must stay under 4 MiB traced.
"""

import tracemalloc

import numpy as np
import pytest

from repro.workloads.base import _SLICE, allclose

N = 3 * _SLICE + 5


def agree(a, b, **tol):
    want = np.allclose(a, b, **tol)
    got = allclose(a, b, **tol)
    assert type(got) is type(want)
    assert got == want
    return got


def one_off(index, delta=1.0, n=N):
    a = np.linspace(0.0, 1.0, n)
    b = a.copy()
    b[index] += delta
    return a, b


@pytest.mark.parametrize("index", [0, -1, _SLICE - 1, _SLICE, 2 * _SLICE,
                                   N // 2])
def test_single_difference(index):
    assert agree(*one_off(index)) is False
    assert agree(*one_off(index, delta=1e-12)) is True


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite(value):
    a, b = one_off(_SLICE)
    b[_SLICE] = value
    assert agree(a, b) is False
    a[_SLICE] = value
    agree(a, b)


def test_rtol_against_atol():
    a = np.full(N, 1000.0)
    b = a.copy()
    b[_SLICE + 1] += 0.5          # within rtol 1e-3 of 1000, not atol 1e-2
    assert agree(a, b, rtol=1e-3, atol=1e-2) is True
    assert agree(a, b, rtol=1e-5, atol=1e-2) is False
    c = np.zeros(N)
    d = c.copy()
    d[-2] = 5e-3                  # within atol, no rtol help at zero
    assert agree(c, d, rtol=1e-3, atol=1e-2) is True
    assert agree(d, c, rtol=1.0, atol=1e-3) is False  # rtol scales b only
    assert agree(c, d, rtol=1.0, atol=1e-3) is True


def test_mixed_dtypes_and_2d():
    a = np.arange(N, dtype=np.int32).reshape(-1, 1)
    b = a.astype(np.float32)
    assert agree(a, b) is True
    b[-1, 0] += 10
    assert agree(a, b) is False
    w = np.ones((4096, 128), dtype=np.float32)
    v = w.copy()
    v[2047:2049, 127] = 2.0       # rows on both sides of a slice boundary
    assert agree(w, v) is False


@pytest.mark.parametrize("a,b", [
    (np.ones(4), np.ones((3, 4))),          # broadcast
    (np.ones(3), 1.0),
    ([1.0, 2.0], [1.0, 2.0 + 1e-9]),
], ids=["broadcast", "scalar", "lists"])
def test_other_inputs_fall_through(a, b):
    assert allclose(a, b) == np.allclose(a, b)


def test_mismatched_shapes_raise_as_numpy_does():
    with pytest.raises(ValueError):
        np.allclose(np.ones(4), np.ones(5))
    with pytest.raises(ValueError):
        allclose(np.ones(4), np.ones(5))


def test_zero_d_and_empty():
    agree(np.array(1.0), np.array(1.0 + 1e-9))
    agree(np.array(1.0), np.array(2.0))
    agree(np.array(np.nan), np.array(np.nan))
    agree(np.empty(0), np.empty(0))
    agree(np.empty((0, 3)), np.empty((0, 3)))
    agree(np.empty((3, 0)), np.empty((3, 0)))


def test_compares_in_slices():
    a = np.ones(4 << 20, dtype=np.float32)          # 16 MiB
    b = a.copy()
    b[-1] = 2.0
    tracemalloc.start()
    try:
        assert allclose(a, b) is False
        assert allclose(a, a) is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
