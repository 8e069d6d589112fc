"""Migration replay: re-execute one recorded call on a destination worker.

Replaying the recorded calls (paper §4.3) reinitializes the device and
reallocates objects *under their original guest ids*.
:func:`replay_entry` is the only function that re-executes a record;
:class:`~repro.migration.live.LiveMigration` drives it, and owns buffer
shipping, freezing and abort.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - avoids a server↔migration cycle
    from repro.server.api_server import ApiServerWorker


class MigrationError(Exception):
    """Replay failed — the target worker is not a faithful reconstruction."""


@dataclass
class MigrationReport:
    """What one migration cost.

    ``downtime`` is the frozen cutover window and ``total_time`` covers
    the whole migration.  A stop-the-world migration (zero pre-copy
    rounds) replays the whole log and ships every buffer inside that
    window.
    """

    replayed_calls: int = 0
    restored_buffers: int = 0
    snapshot_bytes: int = 0
    #: virtual seconds of guest-visible downtime (the frozen window)
    downtime: float = 0.0
    source_vm: str = ""
    #: "stop-the-world" (``max_rounds == 0``) or "live"
    mode: str = "stop-the-world"
    api: str = ""
    #: destination pool member, when the migration targeted a pool
    target_device: str = ""
    # -- pre-copy accounting (zero for stop-the-world) ----------------
    #: pre-copy rounds run before the cutover
    rounds: int = 0
    #: payload bytes shipped during pre-copy (source kept serving)
    precopy_bytes: int = 0
    #: buffer frames shipped during pre-copy
    precopy_frames: int = 0
    #: bytes that crossed as transfer-store refs instead of payloads
    elided_bytes: int = 0
    #: payload bytes shipped inside the frozen window (the final delta)
    delta_bytes: int = 0
    #: dirty buffers shipped inside the frozen window
    delta_buffers: int = 0
    #: migration frames retransmitted after injected channel faults
    retransmits: int = 0
    #: begin → cutover-complete, on the destination clock
    total_time: float = 0.0
    aborted: bool = False
    reason: str = ""


def _is_buffer_object(obj: Any) -> bool:
    return hasattr(obj, "data") and hasattr(obj, "size") and hasattr(obj, "device")


def replay_entry(target: "ApiServerWorker", entry: Any) -> None:
    """Re-execute one recorded call on ``target`` with forced ids, then
    the destroys it carries (a multi-handle creation some of whose
    handles died), so that only the survivors stay bound."""
    # Forced ids must be copied: bind() pops from lists in place.
    target.handle_override = copy.deepcopy(entry.created)
    try:
        for command in (entry.command, *entry.releases):
            reply = target.execute(copy.deepcopy(command),
                                   release_time=target.clock.now)
            if reply.error is not None:
                raise MigrationError(
                    f"replaying {command.function} failed: {reply.error}"
                )
    finally:
        target.handle_override = None
    for gid in entry.released:
        target.handles.free(gid)
