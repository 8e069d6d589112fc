"""VM migration by API record/replay (paper §4.3).

AvA migrates accelerator state without device-specific drivers: calls
annotated ``record(...)`` in the spec are logged during normal execution
(:mod:`repro.migration.recorder`, with Nooks-style object tracking so
destroyed objects drop out of the log); migration replays the log on a
fresh API server with forced handle ids
(:func:`~repro.migration.replayer.replay_entry`) and ships device-buffer
contents to it.

:mod:`repro.migration.live` is the one engine.  Its pre-copy rounds
replay the log and ship dirty buffers while the source keeps serving,
so downtime shrinks to a short frozen cutover window; with
``MigrationPolicy(max_rounds=0)`` there are no rounds and it is the
classic stop-the-world migration.
"""

from repro.migration.live import (
    LiveMigration,
    MigrationAborted,
    MigrationPolicy,
)
from repro.migration.recorder import CallRecorder, RecordedCall
from repro.migration.replayer import (
    MigrationError,
    MigrationReport,
    replay_entry,
)

__all__ = [
    "CallRecorder",
    "LiveMigration",
    "MigrationAborted",
    "MigrationError",
    "MigrationPolicy",
    "MigrationReport",
    "RecordedCall",
    "replay_entry",
]
