"""Buffer helpers shared by guest stubs and the API server.

The generated code works with three buffer shapes:

* **numpy arrays** — the common case for compute data,
* **bytes / bytearray / memoryview** — raw payloads,
* **OutBox** — a single-slot container for out-parameters whose value is
  an opaque handle or scalar written back by the call (the Python stand-in
  for C's ``cl_event *event``).

:class:`WireBuffer` is the buffer-donation contract for the zero-copy
data path, and its rule is the data path's only one: **a payload is
borrowed until the call returns; whoever keeps it, copies it.**  The
guest stub hands the caller's memory on as a read-only view
(:func:`borrow_bytes`), the codec splices and decodes it by reference,
the native call memcpys it into device memory, and on the way back the
reply carries the server stub's staging buffer by reference into the
caller's out-buffer.  The only places a payload outlives its call —
the guest's coalescing queue (staged commands and originals kept for a
``NeedBytes`` resend), the migration recorder's log and destroy
listeners, the transfer store, native objects that keep their input
(``read_bytes``) — take their copy through :func:`own_bytes`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

#: the byte-like shapes the wire layer accepts without conversion —
#: anything the C-level buffer protocol exposes as contiguous bytes.
#: Shared by codec/xfercache/transport code instead of each module
#: growing its own isinstance ladder.
BYTES_LIKE: Tuple[type, ...] = (bytes, bytearray, memoryview)


class BufferContractError(ValueError):
    """A buffer violated the remoting layer's donation contract.

    Raised instead of a bare ``ValueError``/``TypeError`` when a caller
    hands the wire layer memory it cannot use zero-copy — a
    non-contiguous ndarray, a read-only target, a released
    :class:`WireBuffer`.  Subclasses ``ValueError`` so existing
    ``except ValueError`` handlers (guest stubs, tests) keep working.
    """


class OutBox(list):
    """A one-slot mutable cell for scalar/handle out-parameters.

    Guest code allocates ``box = OutBox()`` and passes it where the C API
    takes ``T *out``; after the call, ``box.value`` holds the result.
    """

    def __init__(self, value: Any = None) -> None:
        super().__init__([value])

    @property
    def value(self) -> Any:
        return self[0]

    @value.setter
    def value(self, new_value: Any) -> None:
        self[0] = new_value


class WireBuffer:
    """One payload donated to the wire layer, with explicit ownership.

    The donation contract:

    * Between construction and the completion of the send (the return of
      ``Transport.deliver`` / ``deliver_batch`` — both entry points of
      one exchange, so the window is the same for a command and for a
      batch, with or without fault injection), the memory belongs to
      the remoting layer — the donor MUST NOT mutate it.  The encoder
      may splice a view of it directly into the outgoing frame.
    * After the send returns, ownership reverts to the donor; call
      :meth:`release` to make any lingering use fail loudly instead of
      silently reading stale bytes.
    * The wire layer never mutates donated memory and never holds a
      reference past the send, so ``release()`` is a debugging aid, not
      a requirement.

    ``view()`` returns a read-only flat byte view — the only shape the
    encoder consumes — raising :class:`BufferContractError` for memory
    that cannot be viewed without a copy.
    """

    __slots__ = ("_view", "_obj")

    def __init__(self, obj: Any) -> None:
        if isinstance(obj, WireBuffer):
            self._obj = obj._obj
            self._view = obj._view
            return
        if isinstance(obj, np.ndarray):
            if not obj.flags.c_contiguous:
                raise BufferContractError(
                    f"cannot donate a non-contiguous ndarray zero-copy "
                    f"(shape {obj.shape}, strides {obj.strides}); pass "
                    f"np.ascontiguousarray(...) or bytes instead"
                )
            view = memoryview(obj).cast("B")
        elif isinstance(obj, BYTES_LIKE):
            view = memoryview(obj)
            if view.ndim != 1 or view.itemsize != 1:
                view = view.cast("B")
        else:
            raise BufferContractError(
                f"not a donatable buffer: {type(obj).__name__}"
            )
        self._obj = obj
        self._view = view.toreadonly() if not view.readonly else view

    @property
    def nbytes(self) -> int:
        if self._view is None:
            raise BufferContractError("WireBuffer used after release()")
        return self._view.nbytes

    def __len__(self) -> int:
        return self.nbytes

    def view(self) -> memoryview:
        """The read-only byte view the encoder splices into frames."""
        if self._view is None:
            raise BufferContractError("WireBuffer used after release()")
        return self._view

    def release(self) -> None:
        """Return ownership to the donor; further use raises."""
        if self._view is not None:
            self._view.release()
            self._view = None
            self._obj = None

    def __bytes__(self) -> bytes:
        return bytes(self.view())

    def __repr__(self) -> str:
        if self._view is None:
            return "WireBuffer(<released>)"
        return f"WireBuffer({self.nbytes} B)"


def byte_size_of(obj: Any) -> int:
    """The payload size of a buffer-like object in bytes."""
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, WireBuffer):
        return obj.nbytes
    if isinstance(obj, BYTES_LIKE):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, OutBox):
        return 8
    raise TypeError(f"not a buffer-like object: {type(obj).__name__}")


def as_byte_view(obj: Any) -> memoryview:
    """A writable byte view over a buffer-like object.

    Used by the guest runtime to copy reply payloads into the caller's
    out-buffers in place, matching the C API's semantics.
    """
    if isinstance(obj, np.ndarray):
        if not obj.flags.writeable:
            raise BufferContractError("out-buffer array is read-only")
        if not obj.flags.c_contiguous:
            # reshape(-1) on a strided array would silently copy, so the
            # write-back would land in a temporary and vanish
            raise BufferContractError(
                f"out-buffer array is not C-contiguous "
                f"(shape {obj.shape}, strides {obj.strides}); writing "
                f"through a view would copy — pass a contiguous array"
            )
        return memoryview(obj.reshape(-1).view(np.uint8))
    if isinstance(obj, bytearray):
        return memoryview(obj)
    if isinstance(obj, memoryview):
        if obj.readonly:
            raise BufferContractError("out-buffer memoryview is read-only")
        return obj.cast("B")
    raise TypeError(
        f"cannot write into {type(obj).__name__}; out-buffers must be "
        "numpy arrays, bytearrays, or writable memoryviews"
    )


def borrow_bytes(obj: Any, limit: Optional[int] = None) -> Any:
    """An input buffer's bytes (truncated to ``limit``), *borrowed*.

    Contiguous ndarray / bytearray / memoryview memory comes back as a
    read-only flat view of the caller's own storage — no copy — valid
    until the call it was handed to returns; ``bytes`` pass through and
    strided arrays and strings cost their one copy.  For consumers
    that are done with the payload when they return (a memcpy into
    device memory, a digest, a codec splice); whoever keeps it past
    that calls :func:`own_bytes`.
    """
    if limit is not None and limit < 0:
        raise ValueError("buffer size expression evaluated negative")
    if obj is None:
        return b""
    if isinstance(obj, WireBuffer):
        obj = obj.view()
    if isinstance(obj, np.ndarray) and not (
            obj.flags.c_contiguous and obj.size):
        obj = obj.tobytes()  # strided (or empty): the one copy
    elif isinstance(obj, str):
        obj = obj.encode("utf-8")
    if isinstance(obj, bytes):
        return obj if limit is None or limit >= len(obj) else obj[:limit]
    if not isinstance(obj, (np.ndarray, bytearray, memoryview)):
        raise TypeError(f"not a buffer-like object: {type(obj).__name__}")
    view = WireBuffer(obj).view()
    return view if limit is None else view[:limit]


def own_bytes(chunk: Any) -> bytes:
    """``chunk`` as immutable bytes its holder may keep: the one place
    a borrowed payload is copied (``bytes`` are kept as they are)."""
    return chunk if type(chunk) is bytes else bytes(chunk)


def own_payloads(payloads: Dict[str, Any]) -> None:
    """Materialize, in place, every borrowed payload of a name → bytes
    mapping its holder is about to keep past the call."""
    for name, chunk in payloads.items():
        payloads[name] = own_bytes(chunk)


def read_bytes(obj: Any, limit: Optional[int] = None) -> bytes:
    """Serialize an input buffer to owned bytes (truncated to ``limit``)."""
    return own_bytes(borrow_bytes(obj, limit))


def write_back(target: Any, payload: bytes) -> None:
    """Copy ``payload`` into ``target`` in place (C out-buffer semantics).

    The payload may be shorter than the target (partial reads are legal);
    longer payloads indicate a marshaling bug and raise.
    """
    view = as_byte_view(target)
    if len(payload) > len(view):
        raise ValueError(
            f"reply payload ({len(payload)} B) exceeds the caller's "
            f"out-buffer ({len(view)} B)"
        )
    view[: len(payload)] = payload
