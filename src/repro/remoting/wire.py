"""The pluggable codec boundary of the remoting stack.

Everything that turns a :class:`~repro.remoting.codec.Command` /
:class:`~repro.remoting.codec.Reply` (or their batch forms) into wire
bytes and back goes through a :class:`WireCodec` instance.  Two
implementations ship:

* :class:`InterpretedCodec` — the original tagged-value codec from
  :mod:`repro.remoting.codec`, interpreting the layout field-by-field
  at runtime.  Always available, spec-agnostic.
* ``SpecializedCodec`` (:mod:`repro.remoting.speccodec`) — drives
  per-function marshaling tables emitted at codegen time, skipping
  per-field tag dispatch and splicing large payloads into frames as
  ``memoryview`` segments instead of copies.

The two are **frame-for-frame interoperable**: for any message the
specialized path encodes, the emitted bytes are identical to the
interpreted encoder's, and both decoders accept either's output.  The
specialized codec guarantees this by construction — whenever a message
strays from the generated layout (trace context attached, cached refs,
exotic scalar types), it silently falls back to the interpreted path.

Frames produced by a zero-copy encoder are :class:`WireFrame` objects:
a sequence of byte-like segments suitable for a vectored
(``sendmsg``-style) transport send, convertible to contiguous bytes
when a consumer needs them.  All decoders accept bytes, bytearray,
memoryview, or WireFrame.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Union

from repro.remoting import codec as _codec

#: anything a codec accepts as an incoming frame
FrameLike = Union[bytes, bytearray, memoryview, "WireFrame"]


class WireFrame:
    """One encoded message as a vector of byte-like segments.

    Segments alternate: an inline run (the frame header and every
    inline-encoded field up to the next payload), then a payload
    spliced in by reference, and so on, ending on an inline run.  A
    specialized decoder walks exactly that shape without joining it
    and hands each payload segment on as the ``B`` value it is; any
    other shape is decoded from the joined bytes.  Transports that
    price on size use :func:`len` (total bytes, no materialization);
    a consumer that needs contiguous bytes (fault injection, the
    interpreted codec) calls :meth:`join` (or ``bytes(frame)``), which
    concatenates once and caches the result.
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

    ``decode_reply``/``decode_message`` take an optional ``reply_to``
    hint — the Command or CommandBatch this frame answers — which
    specialized decoders use to pick the per-function reply layout.
    Codecs must decode correctly without the hint (falling back to the
    interpreted path), so hint-less callers stay correct.
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

    # -- generic entry points (direction-agnostic callers) ------------------

    def encode_message(self, message: Any, reply_to: Any = None) -> FrameLike:
        if isinstance(message, (_codec.Command, _codec.CommandBatch)):
            return self.encode_command(message)
        return self.encode_reply(message, reply_to=reply_to)

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


class InterpretedCodec(WireCodec):
    """The original runtime-interpreted tagged-value codec.

    Spec-agnostic and copy-based: every buffer crosses as fresh
    ``bytes``.  This is the reference implementation every other codec
    must match byte-for-byte on the wire.
    """

    name = "interpreted"
    zero_copy = False
    batch_aware = False

    def encode_command(self, command: Any) -> bytes:
        return _codec.encode_message(command)

    def decode_command(self, data: FrameLike) -> Any:
        return _codec.decode_message(frame_bytes(data))

    def encode_reply(self, reply: Any, reply_to: Any = None) -> bytes:
        return _codec.encode_message(reply)

    def decode_reply(self, data: FrameLike, reply_to: Any = None) -> Any:
        return _codec.decode_message(frame_bytes(data))

    def decode_message(self, data: FrameLike, reply_to: Any = None) -> Any:
        return _codec.decode_message(frame_bytes(data))
