"""Async command coalescing policy.

AvA's §4.2 async forwarding stops the guest *waiting* on a reply, but in
the per-call configuration every async command still pays a full
transport delivery: its own wire frame, its own fixed submission
overhead, its own router trip.  Coalescing amortizes that cost the way
Arax batches accelerator tasks: async commands queue guest-side and
cross the channel as one :class:`~repro.remoting.codec.CommandBatch`
frame, flushed

* when a **synchronization point** is reached (any sync call — program
  order and deferred-error semantics are preserved exactly),
* when the queue hits a **threshold** (:attr:`BatchPolicy.max_commands`
  commands or :attr:`BatchPolicy.max_bytes` payload bytes),
* or when an async call **needs its reply leg** (it carries output
  buffers/boxes or a guest callback that must land eagerly).

Its decisions live here, in one typed dataclass, threaded through
:class:`repro.stack.VirtualStack` and ``GuestRuntime.__init__``.  With
no policy (``None``) the runtime takes the original per-call path and
virtual-time results are bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BatchPolicy:
    """Guest-side async coalescing knobs.

    ``max_commands`` — flush once this many commands are queued.
    ``max_bytes``    — flush once the queued bulk payload reaches this.

    Staging a command is priced by the runtime that stages it
    (``GuestRuntime.queue_cost``).
    """

    max_commands: int = 32
    max_bytes: int = 256 * 1024

    def __post_init__(self) -> None:
        if self.max_commands < 1:
            raise ValueError(
                f"max_commands must be >= 1, got {self.max_commands}"
            )
        if self.max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {self.max_bytes}")
