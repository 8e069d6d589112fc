"""Machine-speed calibration for a shared box.

The box the observatory runs on is shared: its speed drifts by ten to
twenty percent over tens of seconds — all chunks of a run together,
which no statistic over the chunks can remove.  Every timed unit is
therefore bracketed by two calibrations, a fixed amount of work whose
time says how fast the machine is *now*, and the unit's times are
divided by how much slower than :data:`REFERENCE` they ran.  Reported
timings are seconds on the reference box when idle.
"""

from __future__ import annotations

import random
import struct
from time import perf_counter
from typing import Dict, Tuple

import numpy as np

#: what the two parts of a calibration take on the reference box when
#: nothing else runs: (interpreter seconds, memory seconds)
REFERENCE = (0.0250, 0.0034)

_HEADER = struct.Struct("<IHq")


class _Message:
    __slots__ = ("seq", "vm", "function", "scalars", "handles")

    def __init__(self, seq: int, vm: str, function: str,
                 scalars: Dict[str, int], handles: Dict[str, int]) -> None:
        self.seq = seq
        self.vm = vm
        self.function = function
        self.scalars = scalars
        self.handles = handles


class Calibrator:
    """Times a fixed unit of interpreter work and of memory work.

    The interpreter part allocates small objects, packs and unpacks
    them and walks a table larger than the caches, because that is
    what forwarding a call is made of; a tight arithmetic loop stays
    in L1 and tracked the chatty workload three times worse.  The
    memory part copies, multiplies and sorts arrays, which is what
    bulk transfers and the device simulation are made of.  The two
    are reported apart because a busy neighbour does not slow them
    alike; :func:`mix` weighs them for a given kind of work.
    """

    TABLE_ROWS = 50_000
    MESSAGES = 20_000

    def __init__(self) -> None:
        rng = random.Random(0)
        self._table = {i: [i, str(i), float(i)]
                       for i in range(self.TABLE_ROWS)}
        self._keys = [rng.randrange(self.TABLE_ROWS)
                      for _ in range(self.MESSAGES)]
        self._block = np.ones(4 * 1024 * 1024, dtype=np.uint8)
        self._matrix = np.ones((256, 256), dtype=np.float32)

    def __call__(self) -> Tuple[float, float]:
        """(interpreter seconds, memory seconds) right now."""
        table = self._table
        pack, unpack = _HEADER.pack, _HEADER.unpack
        checksum = 0
        start = perf_counter()
        for seq, key in enumerate(self._keys):
            message = _Message(
                seq, "vm0", "clSetKernelArg",
                {"arg_index": seq & 3, "arg_value": table[key][0]},
                {"kernel": 7})
            wire = b"".join((
                pack(message.seq, len(message.function),
                     message.scalars["arg_value"]),
                message.function.encode(), message.vm.encode()))
            _seq, length, value = unpack(wire[:14])
            checksum += value + len(wire[14:14 + length].decode())
        interpreter = perf_counter()
        for _ in range(8):
            self._block.copy()
        bytes(memoryview(self._block))
        (self._matrix @ self._matrix).sum()
        np.sort(self._matrix, axis=None)
        return interpreter - start, perf_counter() - interpreter

    @staticmethod
    def slowdown(before: Tuple[float, float],
                 after: Tuple[float, float]) -> Tuple[float, float]:
        """How much slower than the reference each kind of work ran
        between two calibrations: (interpreter, memory)."""
        interpreter, memory = (
            (before[part] + after[part]) / 2 / REFERENCE[part]
            for part in (0, 1))
        return interpreter, memory


def mix(slowdown: Tuple[float, float], memory_share: float) -> float:
    """One factor for work that is ``memory_share`` array work and
    interpreter work for the rest."""
    interpreter, memory = slowdown
    return (1.0 - memory_share) * interpreter + memory_share * memory
