"""MLP inference on the simulated TPU through the dynamic API.

A TensorFlow-1.x-style program: build a two-layer MLP graph once,
compile, then run a stream of batches.  Coarse-grained steps (one
``tpuRun`` per batch moving whole tensors) make this another workload
class where AvA's forwarding is nearly free — the paper's premise for
extending AvA to TPUs.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.remoting.buffers import OutBox
from repro.tpu import api as tpu_api
from repro.tpu.graphs import OP_ADD, OP_MATMUL, OP_RELU, OP_SOFTMAX
from repro.workloads.base import Deterministic, WorkloadResult, allclose


class TPUMLPWorkload(Deterministic):
    """Batched MLP inference: x→dense(128)→relu→dense(classes)→softmax."""

    name = "tpu_mlp"

    def __init__(self, batch: int = 64, features: int = 64,
                 hidden: int = 128, classes: int = 10, steps: int = 8,
                 seed: int = 42) -> None:
        self.batch = batch
        self.features = features
        self.hidden = hidden
        self.classes = classes
        self.steps = steps
        self.seed = seed

    def _weights(self):
        rng = np.random.default_rng(self.seed)
        w1 = rng.normal(0, 0.1, (self.features, self.hidden)).astype(
            np.float32)
        b1 = np.zeros((1, self.hidden), dtype=np.float32)
        w2 = rng.normal(0, 0.1, (self.hidden, self.classes)).astype(
            np.float32)
        b2 = np.zeros((1, self.classes), dtype=np.float32)
        return w1, b1, w2, b2

    def _batches(self):
        rng = np.random.default_rng(self.seed + 1)
        return [
            rng.normal(0, 1, (self.batch, self.features)).astype(np.float32)
            for _ in range(self.steps)
        ]

    def reference(self) -> Dict[str, np.ndarray]:
        w1, b1, w2, b2 = self._weights()
        outputs = []
        for x in self._batches():
            hidden = np.maximum(x @ w1 + b1, 0)
            logits = hidden @ w2 + b2
            shifted = logits - logits.max(axis=1, keepdims=True)
            exp = np.exp(shifted)
            outputs.append((exp / exp.sum(axis=1, keepdims=True)).astype(
                np.float32))
        return {"probs": np.stack(outputs)}

    def run(self, tp: Any) -> WorkloadResult:
        """``tp`` is the TPU API surface (module or guest library)."""
        w1, b1, w2, b2 = self._weights()

        device = OutBox()
        if tp.tpuOpenDevice(device) != tpu_api.TPU_OK:
            return WorkloadResult(self.name, {}, False, "open failed")
        graph = OutBox()
        if tp.tpuCreateGraph(device.value, graph) != tpu_api.TPU_OK:
            return WorkloadResult(self.name, {}, False, "graph failed")
        g = graph.value

        def node(code, box=None):
            box = OutBox()
            assert code == tpu_api.TPU_OK
            return box

        x = OutBox()
        assert tp.tpuPlaceholder(g, self.batch, self.features, x) == \
            tpu_api.TPU_OK
        constants = {}
        for key, array in (("w1", w1), ("b1", b1), ("w2", w2), ("b2", b2)):
            box = OutBox()
            code = tp.tpuConstant(g, array, array.nbytes, array.shape[0],
                                  array.shape[1], box)
            if code != tpu_api.TPU_OK:
                return WorkloadResult(self.name, {}, False,
                                      f"constant {key}: {code}")
            constants[key] = box.value

        def binary(op, a, b):
            box = OutBox()
            assert tp.tpuBinaryOp(g, op, a, b, box) == tpu_api.TPU_OK
            return box.value

        def unary(op, a):
            box = OutBox()
            assert tp.tpuUnaryOp(g, op, a, box) == tpu_api.TPU_OK
            return box.value

        hidden = unary(OP_RELU, binary(OP_ADD,
                                       binary(OP_MATMUL, x.value,
                                              constants["w1"]),
                                       constants["b1"]))
        logits = binary(OP_ADD, binary(OP_MATMUL, hidden, constants["w2"]),
                        constants["b2"])
        probs = unary(OP_SOFTMAX, logits)

        flops = OutBox()
        assert tp.tpuCompile(g, flops) == tpu_api.TPU_OK

        outputs = []
        capacity = self.batch * self.classes * 4
        for batch in self._batches():
            out = np.zeros((self.batch, self.classes), dtype=np.float32)
            produced = OutBox()
            code = tp.tpuRun(g, x.value, batch, batch.nbytes, probs, out,
                             capacity, produced)
            if code != tpu_api.TPU_OK or produced.value != capacity:
                return WorkloadResult(self.name, {}, False,
                                      f"run failed: {code}")
            outputs.append(out.copy())

        tp.tpuDestroyGraph(g)
        tp.tpuCloseDevice(device.value)

        got = np.stack(outputs)
        ok = allclose(got, self.reference()["probs"], atol=1e-4)
        return WorkloadResult(self.name, {"probs": got}, bool(ok),
                              detail=f"{self.steps} steps, "
                                     f"{int(flops.value):,} flops/step")
