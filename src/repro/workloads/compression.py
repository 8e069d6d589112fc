"""Compression offload workload for the QuickAssist extension target.

A log-shipping pipeline: compress a corpus of text-like blocks through
the DC API, then decompress and verify the round trip.  Call pattern:
few session calls, then bulk data requests — another coarse-grained API
where forwarding overhead should be small.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.qat import api as qat_api
from repro.remoting.buffers import OutBox
from repro.workloads.base import WorkloadResult

_WORDS = (
    b"accelerator ", b"hypervisor ", b"virtualization ", b"interposition ",
    b"transport ", b"forwarding ", b"command ", b"buffer ", b"kernel ",
    b"the ", b"a ", b"of ", b"and ", b"\n",
)


def make_corpus(blocks: int, block_bytes: int, seed: int) -> list:
    """Deterministic compressible text blocks."""
    rng = np.random.default_rng(seed)
    corpus = []
    for _ in range(blocks):
        indices = rng.integers(0, len(_WORDS), size=block_bytes // 6)
        block = b"".join(_WORDS[i] for i in indices)[:block_bytes]
        corpus.append(block.ljust(block_bytes, b"."))
    return corpus


class CompressionWorkload:
    """Compress + decompress a corpus, verifying the round trip.

    Not ``Deterministic``: the round trip is its own check (there is no
    ``reference()``) and the harness has no native QAT runner to memoise."""

    name = "compression"

    def __init__(self, blocks: int = 16, block_kib: int = 64,
                 level: int = 6, seed: int = 42) -> None:
        self.blocks = blocks
        self.block_bytes = block_kib * 1024
        self.level = level
        self.seed = seed

    def run(self, qa: Any) -> WorkloadResult:
        corpus = make_corpus(self.blocks, self.block_bytes, self.seed)

        count = OutBox()
        if qa.cpaDcGetNumInstances(count) != qat_api.CPA_STATUS_SUCCESS:
            return WorkloadResult(self.name, {}, False, "no instances")
        instance = OutBox()
        if qa.cpaDcStartInstance(0, instance) != qat_api.CPA_STATUS_SUCCESS:
            return WorkloadResult(self.name, {}, False, "start failed")
        comp = OutBox()
        decomp = OutBox()
        assert qa.cpaDcInitSession(
            instance.value, comp, self.level, qat_api.CPA_DC_DIR_COMPRESS
        ) == qat_api.CPA_STATUS_SUCCESS
        assert qa.cpaDcInitSession(
            instance.value, decomp, self.level,
            qat_api.CPA_DC_DIR_DECOMPRESS
        ) == qat_api.CPA_STATUS_SUCCESS

        compressed_total = 0
        ok = True
        for block in corpus:
            dst = bytearray(self.block_bytes + 1024)
            produced = OutBox()
            code = qa.cpaDcCompressData(
                comp.value, block, len(block), dst, len(dst), produced
            )
            if code != qat_api.CPA_STATUS_SUCCESS:
                ok = False
                break
            compressed = bytes(dst[: produced.value])
            compressed_total += len(compressed)

            back = bytearray(self.block_bytes)
            restored = OutBox()
            code = qa.cpaDcDecompressData(
                decomp.value, compressed, len(compressed), back, len(back),
                restored,
            )
            if code != qat_api.CPA_STATUS_SUCCESS or \
                    bytes(back[: restored.value]) != block:
                ok = False
                break

        stats_in = OutBox()
        stats_out = OutBox()
        stats_reqs = OutBox()
        qa.cpaDcGetStats(instance.value, stats_in, stats_out, stats_reqs)

        qa.cpaDcRemoveSession(comp.value)
        qa.cpaDcRemoveSession(decomp.value)
        qa.cpaDcStopInstance(instance.value)

        ratio = compressed_total / (self.blocks * self.block_bytes)
        ok = ok and ratio < 0.7 and stats_reqs.value == 2 * self.blocks
        return WorkloadResult(
            self.name, {}, bool(ok),
            detail=f"{self.blocks} blocks, ratio {ratio:.2f}",
        )
