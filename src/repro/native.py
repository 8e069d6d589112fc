"""The native session every simulated vendor library resolves through.

Each API's native module finds its state (devices, clock, objects)
through a session on a stack: the top of the stack is what the API
functions operate on.  The native path opens the application's session;
an API server worker pushes its one persistent session around each
dispatched command -- that is how one vendor library serves many
isolated guests.  :class:`NativeSession` is that plumbing, written once;
each API's session class subclasses it with its own constants and any
extra fields.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Any, ClassVar, Iterator, List, Optional, Sequence

from repro.remoting.buffers import OutBox
from repro.vclock import VirtualClock


@dataclass
class NativeSession:
    """One caller's binding of an API to a device set and a clock.

    ``clock`` is the caller's virtual clock (the application thread on
    the native path, the API-server worker on the forwarded path); None
    opens a fresh one named ``clock_name``.
    """

    #: this API's session stack; every subclass writes its own
    stack: ClassVar[List["NativeSession"]]
    #: the simulated device class a session opens by default
    device: ClassVar[Any]
    #: name of a default session clock
    clock_name: ClassVar[str]
    #: fixed virtual cost of crossing into the native library
    call_overhead: ClassVar[float]

    devices: List[Any]
    clock: Optional[VirtualClock] = None

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError(
                f"a {type(self).__name__} needs at least one device")
        if self.clock is None:
            self.clock = VirtualClock(self.clock_name)

    @classmethod
    @contextlib.contextmanager
    def opened(cls, devices: Optional[Sequence[Any]] = None,
               clock: Optional[VirtualClock] = None,
               **fields: Any) -> Iterator[Any]:
        """Open a session on top of the stack for the ``with`` block;
        with no devices it opens one default :attr:`device`."""
        sess = cls(devices=list(devices) if devices else [cls.device()],
                   clock=clock, **fields)
        cls.stack.append(sess)
        try:
            yield sess
        finally:
            cls.stack.pop()

    @classmethod
    def current(cls) -> Any:
        """The session on top of the stack."""
        if not cls.stack:
            raise _none_open(cls)
        return cls.stack[-1]

    @classmethod
    def enter(cls) -> Any:
        """The current session, charged the cost of one native call."""
        if not cls.stack:
            raise _none_open(cls)
        sess = cls.stack[-1]
        sess.clock.advance(cls.call_overhead, "api_call")
        return sess


def _none_open(cls: type) -> RuntimeError:
    return RuntimeError(f"no {cls.__name__} open; wrap calls in "
                        f"`with {cls.__name__}.opened(...)`")


def set_box(box: Optional[OutBox], value: Any) -> None:
    """Store ``value`` in an out-parameter box the caller passed."""
    if box is not None:
        box[0] = value
