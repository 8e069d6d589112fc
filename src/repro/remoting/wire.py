"""The codec boundary of the remoting stack.

Everything that turns a :class:`~repro.remoting.codec.Command` /
:class:`~repro.remoting.codec.Reply` (or their batch forms, or a
:class:`~repro.remoting.codec.NeedBytes`) into wire bytes and back goes
through a :class:`WireCodec` instance.  The runtime has one:
``SpecializedCodec`` (:mod:`repro.remoting.speccodec`), which drives
per-function marshaling tables emitted at codegen time and splices
large payloads into frames as ``memoryview`` segments instead of
copies.  The router, every transport and the hypervisor take the codec
they are given; ``repro.stack.resolve_codec`` builds the default.  The
self-describing reference encoding the walker is held to lives with
the tests (``tests/wire_oracle.py``), as a :class:`WireCodec` too.

Frames produced by a zero-copy encoder are :class:`WireFrame` objects:
a sequence of byte-like segments suitable for a vectored
(``sendmsg``-style) transport send, convertible to contiguous bytes
when a consumer needs them.  All decoders accept bytes, bytearray,
memoryview, or WireFrame.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Union

#: anything a codec accepts as an incoming frame
FrameLike = Union[bytes, bytearray, memoryview, "WireFrame"]


class WireFrame:
    """One encoded message as a vector of byte-like segments.

    Segments alternate: an inline run (the frame header and every
    inline-encoded field up to the next payload), then a payload
    spliced in by reference, and so on, ending on an inline run.  A
    specialized decoder walks exactly that shape without joining it
    and hands each payload segment on as the ``B`` value it is; any
    other shape is refused.  Transports that price on size use
    :func:`len` (total bytes, no materialization); a consumer that
    needs contiguous bytes (fault injection) calls :meth:`join` (or
    ``bytes(frame)``), which concatenates once and caches the result.
    """

    __slots__ = ("segments", "_joined")

    def __init__(self, segments: Sequence[Any]) -> None:
        self.segments: List[Any] = list(segments)
        self._joined: Optional[bytes] = None

    def __len__(self) -> int:
        if self._joined is not None:
            return len(self._joined)
        total = 0
        for segment in self.segments:
            total += (segment.nbytes if isinstance(segment, memoryview)
                      else len(segment))
        return total

    def join(self) -> bytes:
        """Contiguous frame bytes (concatenated once, then cached)."""
        if self._joined is None:
            if len(self.segments) == 1:
                self._joined = bytes(self.segments[0])
            else:
                self._joined = b"".join(
                    bytes(s) if isinstance(s, memoryview)
                    and not s.c_contiguous else s
                    for s in self.segments
                )
        return self._joined

    def __bytes__(self) -> bytes:
        return self.join()

    def __repr__(self) -> str:
        return (f"WireFrame({len(self.segments)} segments, "
                f"{len(self)} B)")


def frame_bytes(frame: FrameLike) -> bytes:
    """Normalize any frame-like object to contiguous ``bytes``."""
    if isinstance(frame, bytes):
        return frame
    if isinstance(frame, WireFrame):
        return frame.join()
    return bytes(frame)


class WireCodec:
    """Base class / protocol for message codecs.

    Capability flags:

    * ``zero_copy`` — payloads are *borrowed until the call returns;
      whoever keeps, copies*: encoded frames (commands and replies)
      may be :class:`WireFrame` vectors whose payload segments alias
      the caller's memory or the server stub's staging buffer, and
      decoded in-buffers / out-payloads may be those same segments or
      ``memoryview`` slices of the incoming frame.  The owners — the
      guest's coalescing queue, the migration recorder, the transfer
      store, native objects that keep their input — materialize with
      :func:`repro.remoting.buffers.own_bytes`; nobody else copies.
    * ``batch_aware`` — :meth:`encode_command` accepts
      :class:`~repro.remoting.codec.CommandBatch` frames natively on
      a specialized path (every codec *handles* batches; this flag
      marks single-allocation batch assembly).

    ``encode_reply``/``decode_reply``/``decode_message`` take a
    ``reply_to`` hint — the Command or CommandBatch this frame answers
    — which picks the per-function reply layout.  **A reply that
    carries outputs needs its reply_to**; a reply batch needs its
    command batch.  Only frames without outputs work without one: a
    refusal (an error reply with empty sections, also under a
    CommandBatch hint, which is how a whole rejected batch is
    answered) and a NeedBytes.
    """

    name = "abstract"
    zero_copy = False
    batch_aware = False

    # -- the four core operations ------------------------------------------

    def encode_command(self, command: Any) -> FrameLike:
        """Encode a Command or CommandBatch into a wire frame."""
        raise NotImplementedError

    def decode_command(self, data: FrameLike) -> Any:
        """Decode a guest→host frame (Command or CommandBatch)."""
        raise NotImplementedError

    def encode_reply(self, reply: Any, reply_to: Any = None) -> FrameLike:
        """Encode a Reply / ReplyBatch / NeedBytes into a wire frame."""
        raise NotImplementedError

    def decode_reply(self, data: FrameLike, reply_to: Any = None) -> Any:
        """Decode a host→guest frame (Reply, ReplyBatch, NeedBytes)."""
        raise NotImplementedError

    def decode_message(self, data: FrameLike, reply_to: Any = None) -> Any:
        """Decode any frame; routes on the magic byte pair."""
        raise NotImplementedError

    def __repr__(self) -> str:
        flags = []
        if self.zero_copy:
            flags.append("zero_copy")
        if self.batch_aware:
            flags.append("batch_aware")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return f"<{type(self).__name__} {self.name}{suffix}>"
