"""Compute-once natives and references (``harness/runner.py``,
``workloads/base.py``).

The rule under test: a native baseline and a numpy reference are
functions of (workload class, what the instance holds, device spec), so
each is computed once per process — and nothing else changes.  The memo
is process-wide, so every test here either uses a class of its own or
holds whether or not an earlier test already filled the entry.
"""

from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.harness.runner import run_figure5, run_native
from repro.harness.xfer import IterativeUploadWorkload
from repro.mvnc import api as mvnc_api
from repro.mvnc.device import SimulatedNCS
from repro.opencl import api as cl_api
from repro.opencl.device import DeviceSpec, SimulatedGPU
from repro.opencl.runtime import Session
from repro.telemetry import Tracer
from repro.telemetry import tracer as _tele
from repro.workloads import (
    OPENCL_WORKLOADS,
    BFSWorkload,
    GaussianWorkload,
    InceptionWorkload,
    KMeansWorkload,
)
from repro.workloads.tpu_mlp import TPUMLPWorkload

SCALE = 0.25


def native(workload, fresh=False):
    """The harness's native run; ``fresh`` forces the real thing by
    bringing a device, which is one of the two bypass conditions."""
    if isinstance(workload, InceptionWorkload):
        return run_native(workload, "mvnc",
                          device=SimulatedNCS() if fresh else None)
    return run_native(workload, device=SimulatedGPU() if fresh else None)


class NativeCallCounter:
    """Wraps every entry point of both native API modules and counts the
    calls an *application* makes: ``run_native`` names its clocks
    ``native-…``, the API server's per-VM sessions do not."""

    def __init__(self, monkeypatch):
        self.app_calls = 0
        self.server_calls = 0
        for module, prefix, session in (
                (cl_api, "cl", Session.current),
                (mvnc_api, "mvnc", mvnc_api.NCSSession.current)):
            for name in dir(module):
                inner = getattr(module, name)
                if name.startswith(prefix) and callable(inner):
                    monkeypatch.setattr(
                        module, name, self.counting(inner, session))

    def counting(self, inner, session):
        def wrapper(*args, **kwargs):
            if session().clock.name.startswith("native-"):
                self.app_calls += 1
            else:
                self.server_calls += 1
            return inner(*args, **kwargs)
        return wrapper


class TestHitEqualsFreshRun:
    @pytest.mark.parametrize("workload_cls",
                             OPENCL_WORKLOADS + [InceptionWorkload],
                             ids=lambda cls: cls.name)
    def test_every_figure5_row(self, workload_cls):
        native(workload_cls(scale=SCALE))  # the entry exists from here on
        hit = native(workload_cls(scale=SCALE))
        fresh = native(workload_cls(scale=SCALE), fresh=True)
        assert hit.verified and hit.runtime > 0
        assert asdict(hit) == asdict(fresh)

    def test_returned_accounts_are_the_callers_own(self):
        first = native(GaussianWorkload(scale=SCALE))
        want = dict(first.accounts)
        first.accounts.clear()
        first.accounts["api_call"] = -1.0
        assert native(GaussianWorkload(scale=SCALE)).accounts == want

    def test_failed_verification_is_memoised_as_failed(self):
        class FailsOnce(GaussianWorkload):
            runs = 0

            def run(self, cl):
                FailsOnce.runs += 1
                return replace(super().run(cl),
                               verified=FailsOnce.runs > 1,
                               detail=f"run {FailsOnce.runs}")

        first = native(FailsOnce(scale=SCALE))
        again = native(FailsOnce(scale=SCALE))
        assert not first.verified
        assert asdict(again) == asdict(first)
        assert FailsOnce.runs == 1
        # the real thing, asked for by bringing a device, does run again
        assert native(FailsOnce(scale=SCALE), fresh=True).verified


class TestSecondFigure5Pass:
    def test_no_native_call_and_the_same_rows(self, monkeypatch):
        first = run_figure5(scale=SCALE)
        counter = NativeCallCounter(monkeypatch)
        second = run_figure5(scale=SCALE)
        assert counter.app_calls == 0
        # the virtualized halves ran for real, through the API server,
        # and were verified against the reference again
        forwarded = sum(row.virtualized.calls_sync
                        + row.virtualized.calls_async for row in second)
        assert counter.server_calls >= forwarded > 1000
        assert all(row.verified for row in second)
        assert len(second) == 12
        assert [asdict(row) for row in second] == \
            [asdict(row) for row in first]

    def test_counter_sees_a_real_native_run(self, monkeypatch):
        counter = NativeCallCounter(monkeypatch)
        native(GaussianWorkload(scale=SCALE), fresh=True)
        native(InceptionWorkload(batch=1), fresh=True)
        assert counter.app_calls > 100
        assert counter.server_calls == 0


class TestKeySeparation:
    def test_scale_seed_and_batch(self):
        runs = [
            native(KMeansWorkload(scale=SCALE)),
            native(KMeansWorkload(scale=SCALE / 2)),
            native(InceptionWorkload(batch=1)),
            native(InceptionWorkload(batch=2)),
        ]
        assert len({run.runtime for run in runs}) == 4
        for workload, run in zip(
                (KMeansWorkload(scale=SCALE),
                 KMeansWorkload(scale=SCALE / 2),
                 InceptionWorkload(batch=1), InceptionWorkload(batch=2)),
                runs):
            assert asdict(native(workload, fresh=True)) == asdict(run)
        # a seed changes the data, not necessarily the virtual runtime
        one = BFSWorkload(scale=SCALE, seed=1)
        two = BFSWorkload(scale=SCALE, seed=2)
        assert one.memo_key != two.memo_key
        assert not np.array_equal(one.reference()["cost"],
                                  two.reference()["cost"])
        assert native(one).verified and native(two).verified
        assert InceptionWorkload(seed=1).memo_key != \
            InceptionWorkload(seed=2).memo_key

    def test_subclass_with_the_same_name(self):
        class Shifted(GaussianWorkload):
            """Same ``name``, different system of equations."""

            def _inputs(self):
                a, b = super()._inputs()
                return a, b + np.float32(1.0)

        assert Shifted.name == GaussianWorkload.name
        base, shifted = GaussianWorkload(scale=SCALE), Shifted(scale=SCALE)
        assert native(base).verified
        assert native(shifted).verified  # against its own reference
        assert not np.array_equal(base.reference()["x"],
                                  shifted.reference()["x"])

    def test_constructor_argument_of_a_subclass(self):
        short = IterativeUploadWorkload(scale=SCALE, iterations=2)
        long = IterativeUploadWorkload(scale=SCALE, iterations=5)
        assert native(short).verified and native(long).verified
        assert native(short).runtime < native(long).runtime
        assert not np.array_equal(short.reference()["state"],
                                  long.reference()["state"])

    def test_device_spec(self, monkeypatch):
        default = native(KMeansWorkload(scale=SCALE))
        small = DeviceSpec.small_gpu()
        monkeypatch.setattr(Session, "device", lambda: SimulatedGPU(small))
        slower = native(KMeansWorkload(scale=SCALE))
        assert slower.verified and slower.runtime > default.runtime
        assert asdict(native(KMeansWorkload(scale=SCALE))) == asdict(slower)
        monkeypatch.undo()
        assert asdict(native(KMeansWorkload(scale=SCALE))) == asdict(default)

    def test_unhashable_state_is_not_memoised(self):
        class Listy(GaussianWorkload):
            computed = 0

            def __init__(self, scale):
                super().__init__(scale)
                self.history = []

            def reference(self):
                Listy.computed += 1
                return GaussianWorkload(self.scale).reference()

        workload = Listy(SCALE)
        assert native(workload).verified and native(workload).verified
        assert Listy.computed == 2


class TestBypass:
    def test_callers_device_is_driven_even_on_a_memoised_key(self):
        memoised = native(KMeansWorkload(scale=SCALE))
        gpu = SimulatedGPU()
        run = run_native(KMeansWorkload(scale=SCALE), device=gpu)
        assert gpu.timeline > 0 and gpu.busy_time > 0
        assert asdict(run) == asdict(memoised)
        ncs = SimulatedNCS()
        run_native(InceptionWorkload(batch=1), "mvnc")
        run_native(InceptionWorkload(batch=1), "mvnc", device=ncs)
        assert ncs.timeline > 0

    def test_enabled_tracer_gets_the_native_spans(self):
        memoised = native(KMeansWorkload(scale=SCALE))
        tracer = Tracer()
        with _tele.use(tracer):
            traced = native(KMeansWorkload(scale=SCALE))
        assert any(span.layer == "device" for span in tracer.spans)
        assert asdict(traced) == asdict(memoised)
        # ...and the no-op tracer, which is an object and so truthy, does
        # not count as one
        assert _tele.active() and not _tele.active().enabled


class TestReferences:
    @pytest.mark.parametrize("make", [
        lambda: GaussianWorkload(scale=SCALE),
        lambda: InceptionWorkload(batch=2),
        lambda: TPUMLPWorkload(steps=2),
    ], ids=["opencl", "inception", "tpu_mlp"])
    def test_computed_once_per_process_and_read_only(self, make):
        reference = make().reference()
        assert make().reference() is reference
        for array in reference.values():
            with pytest.raises(ValueError):
                array[...] = 0
        with pytest.raises(TypeError):
            reference["extra"] = np.zeros(1)

    def test_second_instance_still_verifies_after_a_write_attempt(self):
        reference = GaussianWorkload(scale=SCALE).reference()
        with pytest.raises(ValueError):
            reference["x"] += 1.0
        assert native(GaussianWorkload(scale=SCALE), fresh=True).verified

    def test_inception_batch_is_part_of_the_key(self):
        assert InceptionWorkload(batch=1).reference()["probs"].shape[0] == 1
        assert InceptionWorkload(batch=3).reference()["probs"].shape[0] == 3
