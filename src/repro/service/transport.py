"""Zero-copy page transport for process executors.

Process mode used to pickle every page's HTML into each submitted
chunk: the parent serialises megabytes of markup, the pool pipes them
through a pickle stream, and the worker deserialises them again.  This
module moves the page *bytes* out of band instead: the parent stages a
chunk's HTML into one :mod:`multiprocessing.shared_memory` segment and
pickles only ``(seq, index, url, offset, length)`` tuples; the worker
maps the segment and slices pages straight out of it.

Lifecycle — the part that must never leak:

* The parent owns every segment.  :meth:`SharedMemoryPageTransport.stage`
  creates one per chunk and tracks it under a lease;
  :meth:`~SharedMemoryPageTransport.release` (called by the runtime
  when the chunk's future completes — success, contained error or
  worker death alike) closes and unlinks it.
* :meth:`~SharedMemoryPageTransport.close_all` is the error-path
  sweep: the runtime calls it in its ``finally`` so cancellation or a
  crashed pool cannot strand segments in ``/dev/shm``.
* Workers attach without registering with the ``resource_tracker``
  (:func:`attach_segment`) — the parent is the single owner, so the
  tracker must not try to "clean up" a segment the parent will unlink.

Fallback: the transport probes once and degrades to inline pickling
when shared memory is unavailable (platform without ``/dev/shm``,
permissions, exhausted segment space) — and stays degraded if segment
creation starts failing mid-run.  Either way the worker sees the same
pages, so extraction output is byte-identical across both paths.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.service.metrics import default_registry
from repro.sites.page import WebPage

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = [
    "SEGMENT_PREFIX",
    "StagedChunk",
    "SharedMemoryPageTransport",
    "attach_segment",
    "load_shm_chunk",
]

#: Segment name prefix: lets the CI leak check (and operators) spot
#: stray ``/dev/shm`` entries that belong to this service.
SEGMENT_PREFIX = "repro_shm"

#: Worker-side chunk entry: (seq, index, url, offset, length).
ShmEntry = Tuple[int, int, str, int, int]


@dataclass(frozen=True)
class StagedChunk:
    """One chunk ready to submit: a payload plus an optional lease.

    ``segment`` is the shared-memory segment name the payload refers
    to (the lease the runtime must :meth:`release
    <SharedMemoryPageTransport.release>` when the chunk's future
    completes), or ``None`` when the chunk fell back to inline
    pickling and there is nothing to clean up.
    """

    payload: object
    segment: Optional[str] = None


def attach_segment(name: str):
    """Attach to a parent-owned segment without tracker registration.

    Python 3.13+ exposes ``track=False``.  On older versions the
    attach re-registers the name with the (shared, parent-spawned)
    ``resource_tracker`` — a set-idempotent no-op, balanced exactly
    once by the parent's ``unlink()``; explicitly unregistering here
    would make that unlink's unregister a double-remove the tracker
    logs as a ``KeyError``, so the registration is left alone.
    """
    if _shared_memory is None:  # pragma: no cover - import-gated
        raise RuntimeError("multiprocessing.shared_memory unavailable")
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - pre-3.13 signature
        return _shared_memory.SharedMemory(name=name)


def load_shm_chunk(
    name: str, entries: Sequence[ShmEntry]
) -> list[Tuple[int, int, WebPage]]:
    """Worker side: slice a staged chunk's pages out of its segment.

    The segment is closed (not unlinked — the parent owns it) before
    returning; page HTML is copied out, so the returned pages outlive
    the mapping.
    """
    segment = attach_segment(name)
    buf = segment.buf
    try:
        return [
            (
                seq,
                index,
                WebPage(
                    url=url,
                    html=bytes(buf[offset:offset + length]).decode("utf-8"),
                ),
            )
            for seq, index, url, offset, length in entries
        ]
    finally:
        del buf
        segment.close()


class SharedMemoryPageTransport:
    """Parent-side segment staging with leased cleanup.

    Args:
        metrics: registry for the transport counters and the active
            segment gauge (default: the process-wide registry).
    """

    def __init__(self, metrics=None) -> None:
        self._available: Optional[bool] = None
        #: name -> segment, one lease per staged chunk.  Guarded by
        #: ``_lock``: release() runs from executor callback threads
        #: while close_all() runs from the draining thread, and both
        #: must agree on who unlinks each segment exactly once.
        self._segments: dict = {}
        self._lock = threading.Lock()
        self._counter = itertools.count()
        metrics = metrics if metrics is not None else default_registry()
        self._m_chunks = metrics.from_spec("repro_transport_chunks_total")
        self._m_bytes = metrics.from_spec("repro_transport_bytes_total")
        self._m_active = metrics.from_spec("repro_shm_segments_active")

    # -- capability ----------------------------------------------------- #

    @property
    def available(self) -> bool:
        """Whether shared-memory staging is usable (probed once)."""
        if self._available is None:
            self._available = self._probe()
        return self._available

    @staticmethod
    def _probe() -> bool:
        if _shared_memory is None:
            return False
        try:
            segment = _shared_memory.SharedMemory(create=True, size=1)
        except (OSError, ValueError):  # pragma: no cover - env-specific
            return False
        segment.close()
        segment.unlink()
        return True

    # -- staging -------------------------------------------------------- #

    def stage(
        self, chunk: Sequence[Tuple[int, int, WebPage]]
    ) -> StagedChunk:
        """Prepare one chunk for submission to a process pool.

        Returns a shared-memory staged chunk when possible, otherwise
        the pickled payload (``segment=None``).  A shared-memory
        failure mid-run degrades this and every later chunk to
        pickling.
        """
        if not self.available:
            return self._stage_pickle(chunk)
        entries: list[ShmEntry] = []
        blobs: list[bytes] = []
        offset = 0
        for seq, index, page in chunk:
            data = page.html.encode("utf-8")
            entries.append((seq, index, page.url, offset, len(data)))
            blobs.append(data)
            offset += len(data)
        if offset == 0:
            # SharedMemory rejects size=0; an all-empty chunk has
            # nothing worth mapping anyway.
            return self._stage_pickle(chunk)
        name = f"{SEGMENT_PREFIX}_{os.getpid()}_{next(self._counter)}"
        try:
            segment = _shared_memory.SharedMemory(
                name=name, create=True, size=offset
            )
        except (OSError, ValueError):
            self._available = False
            return self._stage_pickle(chunk)
        position = 0
        buf = segment.buf
        for data in blobs:
            buf[position:position + len(data)] = data
            position += len(data)
        del buf
        with self._lock:
            self._segments[name] = segment
        self._m_active.inc()
        self._m_chunks.labels("shm").inc()
        self._m_bytes.labels("shm").inc(offset)
        return StagedChunk(payload=(name, entries), segment=name)

    def _stage_pickle(
        self, chunk: Sequence[Tuple[int, int, WebPage]]
    ) -> StagedChunk:
        payload = [
            (seq, index, page.url, page.html)
            for seq, index, page in chunk
        ]
        self._m_chunks.labels("pickle").inc()
        self._m_bytes.labels("pickle").inc(
            sum(len(page.html) for _, _, page in chunk)
        )
        return StagedChunk(payload=payload, segment=None)

    # -- cleanup -------------------------------------------------------- #

    @property
    def active(self) -> int:
        """Segments currently staged and not yet released."""
        return len(self._segments)

    def release(self, name: str) -> None:
        """Drop a chunk's lease: close and unlink its segment.

        Idempotent — the runtime's per-future release and the
        ``finally`` sweep may both run, possibly from different
        threads.  The dict removal happens under the lock, so exactly
        one caller wins it and performs the single close/unlink.
        """
        with self._lock:
            segment = self._segments.pop(name, None)
        if segment is not None:
            self._destroy(segment)

    def close_all(self) -> None:
        """Release every outstanding segment (the error-path sweep).

        Safe to race against concurrent :meth:`release` calls from the
        drain path: each segment is popped under the lock, so whichever
        side removes it first is the only one that unlinks it.
        """
        while True:
            with self._lock:
                if not self._segments:
                    return
                segment = self._segments.pop(next(iter(self._segments)))
            self._destroy(segment)

    def _destroy(self, segment) -> None:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        self._m_active.dec()
