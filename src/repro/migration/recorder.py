"""Recording annotated API calls for migration replay.

Which calls get recorded is driven entirely by the spec's ``record``
annotations (global config, object create/destroy/modify) — the paper's
point is that this needs *no* device knowledge, only API annotations.

The log keeps only the calls that determine *current* state, by two
rules (``docs/migration.md``, "What the log keeps"):

* **Object tracking**, in the style of Nooks: when an object is
  destroyed, its creation record and any modification records that
  referenced it are dropped, and the destroy itself is never logged —
  replaying the log therefore recreates exactly the live objects.
* **Supersede**: a later successful call to the same function whose
  spec-declared ``supersedes(...)`` parameters all carry equal values
  makes the earlier record dead, unless that earlier record created
  handles.  Same key means same kernel-argument slot, or exactly the
  same byte range of the same buffer, so replay cannot tell the
  difference.

Every record carries a serial that only grows (a record that replaces
another takes a new one); the log is ordered by it and indexed by
supersede key and by handle id, so both rules cost the records they
touch, never a scan of the log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Set, Tuple

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


@dataclass(eq=False)
class RecordedCall:
    """One logged call with the handles it created and referenced."""

    command: Command
    kind: RecordKind
    #: param name → guest id(s) the reply allocated (for forced replay)
    created: Dict[str, Any] = field(default_factory=dict)
    referenced: Set[int] = field(default_factory=set)
    #: position in the recorder's history; later records have larger ones
    serial: int = 0
    #: supersede key this record is indexed under (None: it accumulates)
    key: Optional[Hashable] = None

    def created_ids(self) -> Set[int]:
        return _handle_ids(self.created)

    def touched_ids(self) -> Set[int]:
        """Every handle id this record is indexed under."""
        if not self.created:
            return self.referenced
        return self.created_ids() | self.referenced


class CallRecorder:
    """One VM's migration log of one API's calls, with object tracking
    and supersede (``VMState.logs``; the router records into it).

    ``supersedes`` is the generated routing module's ``SUPERSEDES``
    table: function → (key parameter names, success return value or
    None when the return type declares none).
    """

    def __init__(
        self,
        supersedes: Optional[Dict[str, Tuple[Tuple[str, ...], Any]]] = None,
    ) -> None:
        self.supersedes = supersedes or {}
        #: serial → record; dicts keep insertion order, which is serial
        #: order, which is replay order
        self._records: Dict[int, RecordedCall] = {}
        self._next_serial = 1
        #: supersede key → the live record holding it
        self._by_key: Dict[Hashable, RecordedCall] = {}
        #: handle id → the records that created or referenced it
        self._by_handle: Dict[int, Set[RecordedCall]] = {}
        #: destroys observed (metrics: how much the tracking saved)
        self.pruned_calls = 0
        #: notified as ``listener(command, dead_ids)`` whenever a destroy
        #: prunes the log.  Live migration subscribes here: a destination
        #: that already replayed the pruned creates must replay the
        #: destroy too, or it leaks the dead objects' device memory.
        self.destroy_listeners: List[
            Callable[[Command, Set[int]], None]] = []

    def __len__(self) -> int:
        return len(self._records)

    @property
    def log(self) -> Tuple[RecordedCall, ...]:
        """The live records in replay order (a snapshot)."""
        return tuple(self._records.values())

    def since(self, serial: int) -> List[RecordedCall]:
        """Live records newer than ``serial``, in replay order."""
        newer: List[RecordedCall] = []
        for entry in reversed(self._records.values()):
            if entry.serial <= serial:
                break
            newer.append(entry)
        newer.reverse()
        return newer

    def record(self, command: Command, reply: Reply, kind: RecordKind) -> None:
        if kind is RecordKind.DESTROY:
            self._apply_destroy(command)
            return
        created = dict(reply.new_handles)
        key = earlier = None
        keyed = self.supersedes.get(command.function)
        if keyed is not None:
            names, success = keyed
            if success is not None and reply.return_value != success:
                # the call failed: it changed nothing, so it supersedes
                # nothing and there is nothing to replay
                if not created:
                    return
            else:
                handles, scalars = command.handles, command.scalars
                try:
                    key = (command.function, *[
                        handles[name] if name in handles else scalars[name]
                        for name in names
                    ])
                    earlier = self._by_key.get(key)
                except (KeyError, TypeError):
                    # a parameter that is absent or whose value cannot
                    # be hashed names no entry: the record accumulates
                    key = None
                if earlier is not None and earlier.created:
                    earlier = None  # it made handles: it stays
        # the log outlives the call: borrowed payloads are copied
        # before being retained (repro.remoting.buffers)
        own_payloads(command.in_buffers)
        serial = self._next_serial
        self._next_serial += 1
        if earlier is not None:
            if not created and earlier.command.handles == command.handles:
                # same key, same handles: both indexes already describe
                # the new record; it only moves to the end of the log
                del self._records[earlier.serial]
                earlier.command, earlier.serial = command, serial
                self._records[serial] = earlier
                return
            self._drop(earlier)
        entry = RecordedCall(
            command=command,
            kind=kind,
            created=created,
            referenced=_handle_ids(command.handles),
            serial=serial,
            key=key,
        )
        self._records[serial] = entry
        if key is not None:
            self._by_key[key] = entry
        by_handle = self._by_handle
        for gid in entry.touched_ids():
            entries = by_handle.get(gid)
            if entries is None:
                by_handle[gid] = {entry}
            else:
                entries.add(entry)

    def _drop(self, entry: RecordedCall) -> None:
        """Remove one record from the log and from both indexes."""
        del self._records[entry.serial]
        if self._by_key.get(entry.key) is entry:
            del self._by_key[entry.key]
        for gid in entry.touched_ids():
            entries = self._by_handle[gid]
            entries.discard(entry)
            if not entries:
                del self._by_handle[gid]

    def _apply_destroy(self, command: Command) -> None:
        """Drop records made obsolete by destroying these handles.

        A destroy call's handle arguments name the object(s) going away.
        Creation records for those ids are removed, as are modification
        records that referenced them (replaying either would touch a
        dead object).  Only the records indexed under the dead ids are
        visited.
        """
        dead = _handle_ids(command.handles)
        if not dead:
            return
        if self.destroy_listeners:
            # a listener may keep the command past the call
            own_payloads(command.in_buffers)
            for listener in self.destroy_listeners:
                listener(command, set(dead))
        for gid in dead:
            for entry in tuple(self._by_handle.get(gid, ())):
                if entry.serial not in self._records:
                    continue  # dropped under another dead id of this call
                if entry.created_ids() & dead or (
                        entry.kind is RecordKind.MODIFY
                        and entry.referenced & dead):
                    self._drop(entry)
                    self.pruned_calls += 1

    def live_created_ids(self) -> Set[int]:
        ids: Set[int] = set()
        for entry in self._records.values():
            ids |= entry.created_ids()
        return ids
