"""Shared tier-1 fixtures, and the allocator settings the suite runs under."""

import ctypes
import json
import os

import pytest

#: glibc ``mallopt`` parameters, set to what the observatory gives its
#: children through ``MALLOC_*_`` (benchmarks/observatory/run.py): never
#: trim, grow the heap 256 MiB at a time, mmap only blocks of 32 MiB and
#: up.  The figure-5 checks allocate and drop tens of megabytes per row;
#: with the defaults every one is an mmap/munmap pair and its page faults.
_MALLOPT = ((-1, (1 << 31) - 1),   # M_TRIM_THRESHOLD (an int: 2 GiB - 1)
            (-2, 256 << 20),       # M_TOP_PAD
            (-3, 32 << 20))        # M_MMAP_THRESHOLD


def _tune_malloc() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return  # not glibc: nothing to tune
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    for param, value in _MALLOPT:
        mallopt(param, value)


_tune_malloc()


@pytest.fixture(scope="session")
def figure5_matches_stored():
    """``check(rows)``: every native and virtualized runtime of a
    ``run_figure5()`` equals ``benchmarks/BENCH_figure5.json`` bit for
    bit.  The stored file is read once per session."""
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "benchmarks", "BENCH_figure5.json")
    with open(path, encoding="utf-8") as handle:
        stored = json.load(handle)
    want = {
        row["name"]: (row["native_runtime"], row["virtualized_runtime"])
        for row in stored["rows"]
    }

    def check(rows):
        got = {
            row.name: (row.native.runtime, row.virtualized.runtime)
            for row in rows
        }
        assert got == want

    return check
