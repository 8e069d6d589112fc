"""API-agnostic remoting runtime: wire codec, buffers, handle tables.

These are the pieces of AvA that do *not* depend on which accelerator API
is being virtualized.  CAvA-generated guest and server modules call into
them; the hypervisor transport moves the encoded messages they produce.

Marshaling goes through a :class:`WireCodec` instance; the runtime's
one codec is :class:`SpecializedCodec`, which walks the per-function
tables generated from the spec (zero-copy, one pass per frame, and a
:class:`CodecError` for any frame outside the layout).
"""

from repro.remoting.buffers import (
    BYTES_LIKE,
    BufferContractError,
    OutBox,
    WireBuffer,
    as_byte_view,
    byte_size_of,
)
from repro.remoting.codec import (
    CodecError,
    Command,
    CommandBatch,
    NeedBytes,
    Reply,
    ReplyBatch,
)
from repro.remoting.handles import HandleError, HandleTable
from repro.remoting.speccodec import (
    CommandTable,
    ReplyTable,
    SpecializedCodec,
)
from repro.remoting.wire import (
    WireCodec,
    WireFrame,
    frame_bytes,
)
from repro.remoting.xfercache import (
    CachePolicy,
    CachedRef,
    TransferCache,
    digest_payload,
)

__all__ = [
    "BYTES_LIKE",
    "BufferContractError",
    "CachePolicy",
    "CachedRef",
    "CodecError",
    "Command",
    "CommandBatch",
    "CommandTable",
    "HandleError",
    "HandleTable",
    "NeedBytes",
    "OutBox",
    "Reply",
    "ReplyBatch",
    "ReplyTable",
    "SpecializedCodec",
    "TransferCache",
    "WireBuffer",
    "WireCodec",
    "WireFrame",
    "as_byte_view",
    "byte_size_of",
    "digest_payload",
    "frame_bytes",
]
