"""Inception v3 (scaled) on the simulated Neural Compute Stick.

The paper runs Inception Net v3 ported to the Movidius NCS and measures
~1% AvA overhead.  This workload builds an Inception-v3-*shaped*
network (stem convolutions + stacked inception blocks + classifier) at
a scale the FP16 numpy executor handles in milliseconds, serializes it
to the NCSDK graph format, and performs a batch of real inferences via
``mvncLoadTensor``/``mvncGetResult``.

Call pattern: a handful of API calls moving kilobyte-scale tensors
around multi-millisecond inferences — which is exactly why forwarding
overhead is negligible on this device.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.mvnc import api as mvnc_api
from repro.mvnc.graph import (
    CONV,
    CONCAT_BLOCK,
    DENSE,
    FLATTEN,
    POOL_AVG,
    POOL_MAX,
    RELU,
    SOFTMAX,
    GraphDefinition,
    GraphExecutor,
    Layer,
)
from repro.remoting.buffers import OutBox
from repro.workloads.base import Deterministic, WorkloadResult, allclose


def build_inception_graph(seed: int = 42, input_hw: int = 32,
                          classes: int = 10) -> GraphDefinition:
    """An Inception-v3-shaped network scaled for the simulator."""
    rng = np.random.default_rng(seed)

    def weights(*shape):
        fan_in = int(np.prod(shape[:-1])) or 1
        return (rng.normal(0, 1.0 / np.sqrt(fan_in), shape)
                .astype(np.float16))

    layers = [
        # stem: conv/stride-2 → relu → pool
        Layer(CONV, {"stride": 1},
              {"w": weights(3, 3, 3, 16), "b": np.zeros(16, np.float16)}),
        Layer(RELU),
        Layer(POOL_MAX, {"size": 2, "stride": 2}),
        # inception stack
        Layer(CONCAT_BLOCK, {"branches": ["b1x1", "b3x3", "b5x5"]}, {
            "b1x1_w": weights(1, 1, 16, 8),
            "b3x3_w": weights(3, 3, 16, 16),
            "b5x5_w": weights(5, 5, 16, 8),
        }),
        Layer(CONCAT_BLOCK, {"branches": ["b1x1", "b3x3"]}, {
            "b1x1_w": weights(1, 1, 32, 16),
            "b3x3_w": weights(3, 3, 32, 32),
        }),
        Layer(POOL_MAX, {"size": 2, "stride": 2}),
        Layer(CONCAT_BLOCK, {"branches": ["b1x1", "b3x3"]}, {
            "b1x1_w": weights(1, 1, 48, 24),
            "b3x3_w": weights(3, 3, 48, 40),
        }),
        # head: global average pool → dense → softmax
        Layer(POOL_AVG, {"size": 7, "stride": 7}),
        Layer(FLATTEN),
        Layer(DENSE, {}, {"w": weights(64, classes),
                          "b": np.zeros(classes, np.float16)}),
        Layer(SOFTMAX),
    ]
    return GraphDefinition(
        name="inception-v3-scaled",
        input_shape=(input_hw, input_hw, 3),
        layers=layers,
    )


class InceptionWorkload(Deterministic):
    """Batch inference through the MVNC API (native or forwarded)."""

    name = "inception"

    def __init__(self, scale: float = 1.0, seed: int = 42,
                 batch: int = 6) -> None:
        self.seed = seed
        self.batch = batch
        self.input_hw = 32
        self.classes = 10
        self.graph_def = build_inception_graph(seed, self.input_hw,
                                               self.classes)

    @property
    def memo_key(self) -> Any:
        """``graph_def`` is a function of the rest, and not hashable."""
        return (type(self), self.seed, self.batch, self.input_hw,
                self.classes)

    def _images(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed + 1)
        return rng.random(
            (self.batch, self.input_hw, self.input_hw, 3)
        ).astype(np.float16)

    def reference(self) -> Dict[str, np.ndarray]:
        executor = GraphExecutor(self.graph_def)
        outputs = np.stack([
            executor.run(image).output for image in self._images()
        ])
        return {"probs": outputs}

    def run(self, mv: Any) -> WorkloadResult:
        """``mv`` is the MVNC API surface (module or guest library)."""
        images = self._images()
        blob = self.graph_def.serialize()

        device = OutBox()
        code = mv.mvncOpenDevice(None, device)
        if code != mvnc_api.MVNC_OK:
            return WorkloadResult(self.name, {}, False,
                                  detail=f"open failed: {code}")
        graph = OutBox()
        code = mv.mvncAllocateGraph(device.value, graph, blob, len(blob))
        if code != mvnc_api.MVNC_OK:
            return WorkloadResult(self.name, {}, False,
                                  detail=f"allocate failed: {code}")

        out_size = OutBox()
        mv.mvncGetGraphOption(graph.value,
                              mvnc_api.MVNC_GRAPH_OPTION_OUTPUT_SIZE,
                              out_size, OutBox())
        capacity = int(out_size.value)

        outputs = []
        for index, image in enumerate(images):
            code = mv.mvncLoadTensor(graph.value, image, image.nbytes, index)
            if code != mvnc_api.MVNC_OK:
                return WorkloadResult(self.name, {}, False,
                                      detail=f"load failed: {code}")
            result = np.zeros(capacity // 2, dtype=np.float16)
            length = OutBox()
            cookie = OutBox()
            code = mv.mvncGetResult(graph.value, result, capacity, length,
                                    cookie)
            if code != mvnc_api.MVNC_OK or cookie.value != index:
                return WorkloadResult(self.name, {}, False,
                                      detail=f"result failed: {code}")
            outputs.append(result.copy())

        mv.mvncDeallocateGraph(graph.value)
        mv.mvncCloseDevice(device.value)

        got = np.stack(outputs)
        ok = allclose(got, self.reference()["probs"], atol=2e-2)
        return WorkloadResult(self.name, {"probs": got}, bool(ok),
                              detail=f"{self.batch} inferences")
