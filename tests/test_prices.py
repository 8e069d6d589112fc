"""Every virtual-time price no workload varies is a constant of the
class that charges it.

Figure 5 is each workload's call pattern multiplied by per-crossing
prices, so a price is read off its class, never off an instance's
configuration.  For each price this holds it to its value, holds that
it is not a constructor parameter, and holds that no policy carries it.
The settings deleted outright (always zero, unused, or a copy of
what the channel's router already holds) are held gone.  The settings
a workload does sweep (``InProcTransport``'s three prices,
``CachePolicy.digest_byte_cost``, ``PageSwapManager.page_bytes``) are
not listed.
"""

import dataclasses
import inspect

import pytest

from repro.faults.migration import MigrationChannel
from repro.guest.batching import BatchPolicy
from repro.guest.library import GuestRuntime
from repro.migration.live import LiveMigration, MigrationPolicy
from repro.remoting.xfercache import CachePolicy
from repro.server.api_server import ApiServerWorker
from repro.server.swap import ObjectSwapManager, PageSwapManager
from repro.telemetry.histogram import LogHistogram
from repro.telemetry.metrics import LatencyHistogram
from repro.transport import (
    InProcTransport,
    Leg,
    NetworkTransport,
    RingTransport,
    Transport,
)
from repro.transport.ring import SideBandLeg

#: (class that charges it, name, value, the policy that used to carry it)
CONSTANTS = [
    (GuestRuntime, "marshal_call_cost", 0.6e-6, None),
    (GuestRuntime, "marshal_byte_cost", 0.002e-9, None),
    (GuestRuntime, "queue_cost", 0.05e-6, BatchPolicy),
    (ApiServerWorker, "dispatch_cost", 0.5e-6, None),
    (ApiServerWorker, "batch_dispatch_cost", 0.2e-6, None),
    (MigrationChannel, "channel_bps", 12e9, MigrationPolicy),
    (MigrationChannel, "frame_latency", 10e-6, MigrationPolicy),
    (MigrationChannel, "frame_timeout", 200e-6, MigrationPolicy),
    (LiveMigration, "ref_bytes", 34, MigrationPolicy),
    (RingTransport, "slot_bytes", 4096, None),
    (RingTransport, "slots", 256, None),
    (RingTransport, "doorbell_latency", 1.2e-6, None),
    (RingTransport, "copy_byte_cost", 0.012e-9, None),
    (RingTransport, "send",
     SideBandLeg(0.0, 0.012e-9, 1.2e-6, 64 * 4096, 256 * 4096), None),
    (RingTransport, "enqueue", Leg(0.2e-6, 0.012e-9), None),
    (RingTransport, "reply", Leg(1.2e-6, 0.012e-9), None),
    (NetworkTransport, "latency", 25e-6, None),
    (NetworkTransport, "bandwidth", 5e9, None),
    (NetworkTransport, "mtu", 9000, None),
    (NetworkTransport, "per_packet_cost", 0.6e-6, None),
    (NetworkTransport, "send", Leg(25e-6, 1 / 5e9, 0.6e-6, 9000), None),
    (NetworkTransport, "enqueue", Leg(0.0, 1 / 5e9, 0.6e-6, 9000), None),
    (NetworkTransport, "reply", Leg(25e-6, 1 / 5e9, 0.6e-6, 9000), None),
    (PageSwapManager, "fault_cost", 3.0e-6, None),
    (LogHistogram, "buckets_per_decade", 90, None),
    (LogHistogram, "min_value", 1e-9, None),
    (LatencyHistogram, "exact_limit", 512, None),
]

#: (class whose constructor carried it, name): settings deleted outright
DELETED = [
    (CachePolicy, "probe_cost"),
    (MigrationPolicy, "digest_byte_cost"),
    (ApiServerWorker, "clock"),
    (Transport, "codec"),
    (InProcTransport, "codec"),
    (RingTransport, "codec"),
    (NetworkTransport, "codec"),
    (ObjectSwapManager, "capacity_bytes"),
    (PageSwapManager, "capacity_bytes"),
]


def parameters(cls):
    return inspect.signature(cls.__init__).parameters


def field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize(
    "cls, name, value, policy", CONSTANTS,
    ids=[f"{cls.__name__}.{name}" for cls, name, _v, _p in CONSTANTS])
def test_price_is_a_class_constant(cls, name, value, policy):
    assert name in vars(cls), f"{name} is not defined on {cls.__name__}"
    assert type(vars(cls)[name]) is type(value)
    assert vars(cls)[name] == value
    assert name not in parameters(cls)
    if policy is not None:
        assert name not in field_names(policy)
        assert name not in parameters(policy)


@pytest.mark.parametrize(
    "cls, name", DELETED,
    ids=[f"{cls.__name__}.{name}" for cls, name in DELETED])
def test_setting_is_gone(cls, name):
    assert name not in parameters(cls)
    if dataclasses.is_dataclass(cls):
        assert name not in field_names(cls)
        assert not hasattr(cls, name)

