"""Recording annotated API calls for migration replay.

Which calls get recorded is driven entirely by the spec's ``record``
annotations (global config, object create/retain/destroy/modify) — the
paper's point is that this needs *no* device knowledge, only API
annotations.  The log is the one place that decides which guest objects
are alive; the router frees what it reports dead.

The log keeps only the calls that determine *current* state
(``docs/migration.md``, "What the log keeps"):

* **Success**: a call that returned anything but its declared success
  value changed nothing — unless it created handles — so it is not kept.
* **Object tracking**, in the style of Nooks, with references: a
  destroy drops the newest retain record of each handle it names; a
  handle with none dies, and its creation record and any modification
  records that referenced it are dropped.  A creation record that made
  several handles stays while any of them lives: the destroy is kept
  on it and replayed right after it.  No other destroy is logged —
  replaying the log therefore recreates exactly the live objects, with
  their reference counts.
* **Supersede**: a later successful call to the same function whose
  spec-declared ``supersedes(...)`` parameters all carry equal values
  makes the earlier record dead, unless that earlier record created
  handles.  Same key means same kernel-argument slot, or exactly the
  same byte range of the same buffer, so replay cannot tell the
  difference.

Every record carries a serial that only grows (a record that replaces
another takes a new one); the log is ordered by it and indexed by
supersede key and by handle id, so the rules cost the records they
touch, never a scan of the log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

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
    #: destroys of some of the handles it created while others lived,
    #: replayed right after it, and the created ids they killed
    releases: List[Command] = field(default_factory=list)
    released: Set[int] = field(default_factory=set)

    def created_ids(self) -> Set[int]:
        return _handle_ids(self.created)

    def touched_ids(self) -> Set[int]:
        """Every handle id this record is indexed under."""
        if not self.created:
            return self.referenced
        return self.created_ids() | self.referenced


UNCHANGED: Tuple[FrozenSet[int], int] = (frozenset(), 0)  # released nothing


class CallRecorder:
    """One VM's migration log of one API's calls (``VMState.logs``;
    the router records into it).

    ``supersedes`` maps a function to the parameters keying its record
    (each :class:`~repro.hypervisor.router.RoutingInfo`'s).
    """

    def __init__(self, supersedes: Optional[Dict[str, Tuple]] = None) -> None:
        self.supersedes = supersedes or {}
        #: serial → record; dicts keep insertion order, which is serial
        #: order, which is replay order
        self._records: Dict[int, RecordedCall] = {}
        self._next_serial = 1
        #: supersede key → the live record holding it
        self._by_key: Dict[Hashable, RecordedCall] = {}
        #: handle id → the records that created or referenced it
        self._by_handle: Dict[int, Set[RecordedCall]] = {}
        #: records destroys dropped (metrics: how much the tracking saved)
        self.pruned_calls = 0

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

    def record(self, command: Command, reply: Reply, kind: RecordKind,
               success: Any = None) -> Tuple[FrozenSet[int], int]:
        """Log one call a worker answered without an error; ``success``
        is its declared success value (None: the type declares none).
        Returns ``(dead, consumed)``: the ids that died, and the newest
        serial among the records a destroy used up (the retains it
        cancelled, the creations of what died; 0: none)."""
        failed = success is not None and reply.return_value != success
        if kind is RecordKind.DESTROY:
            return UNCHANGED if failed else self._release(command)
        if failed and not reply.new_handles:
            return UNCHANGED
        created = dict(reply.new_handles)
        key = earlier = None
        names = None if failed else self.supersedes.get(command.function)
        if names is not None:
            handles, scalars = command.handles, command.scalars
            try:
                key = (command.function, *[
                    handles[name] if name in handles else scalars[name]
                    for name in names
                ])
                earlier = self._by_key.get(key)
            except (KeyError, TypeError):
                # a parameter that is absent or whose value cannot be
                # hashed names no entry: the record accumulates
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
                return UNCHANGED
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
        return UNCHANGED

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

    def _release(self, command: Command) -> Tuple[FrozenSet[int], int]:
        """Drop one reference to each handle a destroy names: its newest
        retain record, or, with none, the handle and every record that
        created it or modified it (replaying either would touch a dead
        object), bar a creation with a live sibling, which keeps the
        destroy.  Only the records indexed under those ids are visited.
        """
        dead: Set[int] = set()
        consumed = 0
        for gid in _handle_ids(command.handles):
            retains = [entry.serial for entry in self._by_handle.get(gid, ())
                       if entry.kind is RecordKind.RETAIN]
            if not retains:
                dead.add(gid)
                continue
            retain = self._records[max(retains)]
            self._drop(retain)
            self.pruned_calls += 1
            consumed = max(consumed, retain.serial)
        for entry in {entry for gid in dead
                      for entry in self._by_handle.get(gid, ())}:
            created = entry.created_ids()
            if created & dead:
                consumed = max(consumed, entry.serial)
                entry.released |= created & dead
                if entry.released != created:  # a sibling lives on
                    own_payloads(command.in_buffers)
                    entry.releases.append(command)
                    continue
            elif not (entry.kind is RecordKind.MODIFY
                      and entry.referenced & dead):
                continue
            self._drop(entry)
            self.pruned_calls += 1
        return frozenset(dead), consumed

    def live_created_ids(self) -> Set[int]:
        ids: Set[int] = set()
        for entry in self._records.values():
            ids |= entry.created_ids() - entry.released
        return ids
