"""One replica of the content-addressed checkpoint store.

Each replica is an independent checkpoint server holding a chunk store
(digest → :class:`~repro.store.chunks.Chunk`) and the committed
manifests per rank.  Chunks arrive individually and idempotently; a
manifest lands only on an explicit COMMIT naming every chunk it needs,
so a client crashing mid-push leaves at worst orphan chunks (reclaimed
by the next GC epoch) and never a half-image — the durability property
the paper's single Checkpoint Server had, kept per replica.

Wire protocol (framed as typed records; a bare ``None`` is an in-flight
segment of a chunked transfer, everything else must be a tagged tuple —
malformed records are rejected with a logged ``store.protocol_error``
instead of being silently treated as payload):

===========================================  ================================
client → replica                             replica → client
===========================================  ================================
``("HAVE", rank, digests)``                  ``("MISSING", digests)``
``("CHUNK", chunk)`` (after size segments)   —
``("COMMIT", manifest)``                     ``("STORED", rank, seq)`` or
                                             ``("INCOMPLETE", digests)``
``("HEAD", rank)``                           ``("LATEST", seq)`` (0 = none)
``("FETCH", rank, seq, have_digests)``       ``("MANIFEST", manifest)`` then
                                             the missing chunks, or ``("NONE",)``
``("GC", {rank: keep_seq})``                 —
===========================================  ================================

GC keeps, per rank, every manifest with ``seq >= keep_seq`` (the
checkpoint scheduler broadcasts each rank's latest *quorum-complete*
sequence), then drops every chunk no surviving manifest references —
chunks dedup across manifests and across ranks, so reference counting is
global over the replica's surviving manifests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..obs.registry import Metrics
from ..runtime.config import TestbedConfig
from ..runtime.fabric import Fabric
from ..runtime.session import ServiceBase
from ..simnet.kernel import Simulator
from ..simnet.node import Host
from ..simnet.streams import Disconnected, StreamEnd
from ..simnet.trace import Tracer
from .chunks import Chunk, Manifest, assemble_image

if TYPE_CHECKING:  # lazy: core.v2_device sits between this package and core
    from ..core.replay import CheckpointImage

__all__ = ["StoreReplica"]


class StoreReplica(ServiceBase):
    """One checkpoint-store replica (a generalized checkpoint server)."""

    metric_ns = "store"

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        fabric: Fabric,
        cfg: TestbedConfig,
        name: str = "cs:0",
        tracer: Optional[Tracer] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        super().__init__(sim, host, fabric, name, tracer=tracer, metrics=metrics)
        self.cfg = cfg
        m = self.metrics
        self._m_stores = m.counter("cs.stores", server=name)
        self._m_fetches = m.counter("cs.fetches", server=name)
        self._m_bytes = m.counter("cs.bytes_stored", server=name)
        self._m_chunks = m.counter("store.chunks_received", server=name)
        self._m_chunk_bytes = m.counter("store.chunk_bytes", server=name)
        self._m_gc_bytes = m.counter("store.gc_reclaimed_bytes", server=name)
        self.chunks: dict[int, Chunk] = {}
        self.manifests: dict[int, dict[int, Manifest]] = {}  # rank -> seq -> manifest
        self.stores = 0  # committed manifests
        self.fetches = 0

    # -- lifecycle ----------------------------------------------------------
    def stop(self, cause: object = "cs-crash") -> None:
        """Service-level crash: drop the listener and every connection.

        Uncommitted chunks of an in-flight push survive (they are
        content-addressed and idempotent), but without their COMMIT they
        reference nothing and the next GC epoch reclaims them — the
        previous complete manifest for each rank stays intact.
        """
        super().stop(cause)

    def wipe(self) -> None:
        """Forget everything (a global restart wiped the job's history)."""
        self.chunks.clear()
        self.manifests.clear()

    # -- the serve loop -----------------------------------------------------
    def _serve(self, end: StreamEnd, hello: object = None):
        while True:
            try:
                msg = yield from self._read_record(end)
            except Disconnected:
                return
            kind = msg[0]
            try:
                if kind == "HAVE":
                    if len(msg) != 3:
                        self._protocol_error("malformed HAVE")
                        continue
                    missing = tuple(d for d in msg[2] if d not in self.chunks)
                    yield from end.write(16 + 8 * len(missing), ("MISSING", missing))
                elif kind == "CHUNK":
                    if len(msg) != 2 or not isinstance(msg[1], Chunk):
                        self._protocol_error("malformed CHUNK")
                        continue
                    chunk = msg[1]
                    if chunk.digest not in self.chunks:
                        self.chunks[chunk.digest] = chunk
                        self._m_chunks.inc()
                        self._m_chunk_bytes.inc(chunk.nbytes)
                elif kind == "COMMIT":
                    if len(msg) != 2 or not isinstance(msg[1], Manifest):
                        self._protocol_error("malformed COMMIT")
                        continue
                    yield from self._commit(end, msg[1])
                elif kind == "HEAD":
                    if len(msg) != 2:
                        self._protocol_error("malformed HEAD")
                        continue
                    per = self.manifests.get(msg[1])
                    yield from end.write(16, ("LATEST", max(per) if per else 0))
                elif kind == "FETCH":
                    if len(msg) != 4:
                        self._protocol_error("malformed FETCH")
                        continue
                    yield from self._fetch(end, msg[1], msg[2], frozenset(msg[3]))
                elif kind == "GC":
                    if len(msg) != 2 or not isinstance(msg[1], dict):
                        self._protocol_error("malformed GC")
                        continue
                    self._collect(msg[1])
                else:
                    self._protocol_error(f"unknown record {kind!r}")
            except Disconnected:
                return

    def _commit(self, end: StreamEnd, manifest: Manifest):
        missing = tuple(
            d for d in manifest.digests if d not in self.chunks
        )
        if missing:
            # a concurrent GC epoch reclaimed orphan chunks of this push
            # (or the client never sent them): refuse, naming the holes
            yield from end.write(16 + 8 * len(missing), ("INCOMPLETE", missing))
            return
        per = self.manifests.setdefault(manifest.rank, {})
        per[manifest.seq] = manifest
        self.stores += 1
        self._m_stores.inc()
        self._m_bytes.inc(manifest.image_bytes)
        self.tracer.emit(
            self.sim.now,
            "store.commit",
            server=self.name,
            rank=manifest.rank,
            seq=manifest.seq,
            nbytes=manifest.image_bytes,
            chunks=len(manifest.chunks),
            digests=manifest.digests,
        )
        yield from end.write(16, ("STORED", manifest.rank, manifest.seq))

    def _fetch(self, end: StreamEnd, rank: int, seq: int, have: frozenset):
        self.fetches += 1
        self._m_fetches.inc()
        per = self.manifests.get(rank)
        if not per:
            yield from end.write(16, ("NONE",))
            return
        manifest = per.get(seq) if seq else None
        if manifest is None:
            manifest = per[max(per)]
        yield from end.write(manifest.wire_bytes, ("MANIFEST", manifest))
        sent = set()
        for ref in manifest.chunks:
            if ref.digest in have or ref.digest in sent:
                continue
            sent.add(ref.digest)
            chunk = self.chunks[ref.digest]
            yield from end.write_frame(
                max(1, chunk.nbytes), ("CHUNK", chunk), mtu=self.cfg.chunk_bytes
            )

    # -- garbage collection -------------------------------------------------
    def _collect(self, keep: dict[int, int]) -> None:
        """Apply one GC epoch: per-rank manifest floors, then chunk sweep."""
        dropped = 0
        for rank, floor in keep.items():
            per = self.manifests.get(rank)
            if not per:
                continue
            for seq in [s for s in per if s < floor]:
                del per[seq]
                dropped += 1
        referenced = {
            ref.digest
            for per in self.manifests.values()
            for man in per.values()
            for ref in man.chunks
        }
        freed: list[int] = []
        freed_bytes = 0
        for digest in list(self.chunks):
            if digest not in referenced:
                freed_bytes += self.chunks[digest].nbytes
                freed.append(digest)
                del self.chunks[digest]
        if not dropped and not freed:
            return
        self._m_gc_bytes.inc(freed_bytes)
        self.tracer.emit(
            self.sim.now,
            "store.gc",
            server=self.name,
            manifests_dropped=dropped,
            freed=len(freed),
            nbytes=freed_bytes,
            digests=tuple(freed),
        )

    def evict(self, ranks) -> None:
        """Drop every manifest of the given rank keys (job reclaim).

        The control plane calls this when a job finishes: its images will
        never be fetched again, so all its manifests fall below an
        infinite floor and the reference-counting chunk sweep frees
        whatever no surviving (co-resident) manifest still names.
        """
        self._collect({r: 1 << 62 for r in ranks})
        for r in ranks:
            if not self.manifests.get(r):
                self.manifests.pop(r, None)

    # -- diagnostics --------------------------------------------------------
    def latest(self, rank: int) -> Optional[CheckpointImage]:
        """The most recent complete image for ``rank``, if any."""
        per = self.manifests.get(rank)
        if not per:
            return None
        try:
            return assemble_image(per[max(per)], self.chunks)
        except KeyError:  # pragma: no cover - commits verify completeness
            return None
