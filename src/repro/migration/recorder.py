"""Recording annotated API calls for migration replay.

Which calls get recorded is driven entirely by the spec's ``record``
annotations (global config, object create/destroy/modify) — the paper's
point is that this needs *no* device knowledge, only API annotations.

Object tracking keeps the log minimal, in the style of Nooks: when an
object is destroyed, its creation record and any modification records
that referenced it are dropped, and the destroy itself is never logged —
replaying the log therefore recreates exactly the live objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Set

from repro.remoting.buffers import own_payloads
from repro.remoting.codec import Command, Reply
from repro.spec.model import RecordKind


def _handle_ids(mapping: Dict[str, Any]) -> Set[int]:
    ids: Set[int] = set()
    for value in mapping.values():
        if isinstance(value, int):
            ids.add(value)
        elif isinstance(value, list):
            ids.update(v for v in value if isinstance(v, int))
    return ids


@dataclass
class RecordedCall:
    """One logged call with the handles it created and referenced."""

    command: Command
    kind: RecordKind
    #: param name → guest id(s) the reply allocated (for forced replay)
    created: Dict[str, Any] = field(default_factory=dict)
    referenced: Set[int] = field(default_factory=set)

    def created_ids(self) -> Set[int]:
        return _handle_ids(self.created)


class CallRecorder:
    """Per-worker migration log with object tracking."""

    def __init__(self) -> None:
        self.log: List[RecordedCall] = []
        #: destroys observed (metrics: how much the tracking saved)
        self.pruned_calls = 0
        #: notified as ``listener(command, dead_ids)`` whenever a destroy
        #: prunes the log.  Live migration subscribes here: a destination
        #: that already replayed the pruned creates must replay the
        #: destroy too, or it leaks the dead objects' device memory.
        self.destroy_listeners: List[
            Callable[[Command, Set[int]], None]] = []

    def __len__(self) -> int:
        return len(self.log)

    def record(self, command: Command, reply: Reply, kind: RecordKind) -> None:
        if kind is RecordKind.DESTROY:
            self._apply_destroy(command)
            return
        created = dict(reply.new_handles)
        if "__ret__" in created or created or kind in (
            RecordKind.CONFIG, RecordKind.CREATE, RecordKind.MODIFY
        ):
            # the log outlives the call: borrowed payloads are copied
            # before being retained (repro.remoting.buffers)
            own_payloads(command.in_buffers)
            self.log.append(
                RecordedCall(
                    command=command,
                    kind=kind,
                    created=created,
                    referenced=_handle_ids(command.handles),
                )
            )

    def _apply_destroy(self, command: Command) -> None:
        """Drop records made obsolete by destroying these handles.

        A destroy call's handle arguments name the object(s) going away.
        Creation records for those ids are removed, as are modification
        records that referenced them (replaying either would touch a
        dead object).
        """
        dead = _handle_ids(command.handles)
        if not dead:
            return
        if self.destroy_listeners:
            # a listener may keep the command past the call
            own_payloads(command.in_buffers)
            for listener in self.destroy_listeners:
                listener(command, set(dead))
        kept: List[RecordedCall] = []
        for entry in self.log:
            if entry.created_ids() & dead:
                self.pruned_calls += 1
                continue
            if entry.kind is RecordKind.MODIFY and entry.referenced & dead:
                self.pruned_calls += 1
                continue
            kept.append(entry)
        self.log = kept

    def live_created_ids(self) -> Set[int]:
        ids: Set[int] = set()
        for entry in self.log:
            ids |= entry.created_ids()
        return ids
