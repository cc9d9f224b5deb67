"""The daemon's checkpoint client: capture, dirty regions, store push.

One :class:`CheckpointClient` per daemon incarnation owns the
checkpoint side of the node: the ordered-checkpoint request flag, the
deterministic dirty-region model (which makes incremental images
reconverge across replay), image capture at API-boundary safe points,
the background quorum push to the replicated store, and the completion
fan-out it authorizes — GC orders to peers (thresholds from the
*image's* HR vector), a best-effort EL prune, and the scheduler's
CKPT_DONE / CKPT_FAIL accounting.

Composes with the daemon core through the same explicit interface as
:class:`~repro.core.peers.PeerManager`: ``core`` provides ``rank``,
``clock``, ``saved``, ``delivery_log``, ``op_index``,
``app_footprint``, ``peers`` (GC fan-out), ``el`` (prune),
``ctrl.sched_end`` (completion reports), and ``_spawn``.
"""

from __future__ import annotations

from typing import Any, Callable

from ..obs.registry import Metrics
from ..runtime.config import TestbedConfig
from ..runtime.fabric import Fabric
from ..simnet.kernel import Simulator
from ..simnet.node import Host
from ..simnet.streams import Disconnected
from ..simnet.trace import Tracer
from ..store.chunks import chunk_image, stable_digest
from ..store.client import StoreClient
from .replay import CheckpointImage

__all__ = ["CheckpointClient"]


class CheckpointClient:
    """One rank's checkpoint machinery (capture, push, completion)."""

    def __init__(
        self,
        core,
        sim: Simulator,
        cfg: TestbedConfig,
        fabric: Fabric,
        host: Host,
        cs_names: tuple[str, ...],
        *,
        tracer: Tracer,
        metrics: Metrics,
        rng: Any,
        on_retry: Callable[[int, float], None],
        key: Any,
    ) -> None:
        self.core = core
        self.sim = sim
        self.cfg = cfg
        #: the identity this rank's images carry on the (possibly shared)
        #: store.  Captured images stamp it into ``CheckpointImage.rank``
        #: — the mem/hdr chunk digests derive from it, so two jobs with
        #: identical footprints cannot collide on restore-critical chunks
        self.key = key
        self.requested = False
        self.seq = 0
        # deterministic dirty-region model: one write-version counter per
        # ckpt_chunk_bytes region of the application footprint.  Each
        # API operation past the fast-forward boundary dirties the region
        # picked by its op phase — a pure function of op_index, so a
        # replayed execution reconverges to the same versions and
        # successive checkpoints share every untouched region's chunks
        self.region_versions: list[int] = []
        # (phase, nregions) -> region index memo: touch_region runs per
        # API call but its digest only changes once per ckpt_dirty_ops
        self._dirty_phase = -1
        self._dirty_nreg = 0
        self._dirty_idx = 0
        self.tracer = tracer
        m = metrics
        rank = core.rank
        self._m_bytes = m.counter("ckpt.bytes", rank=rank)
        self._m_images = m.counter("ckpt.images", rank=rank)
        self._m_push = m.histogram("ckpt.push_s", rank=rank)
        self._m_aborted = m.counter("ckpt.aborted", rank=rank)
        # the replicated checkpoint store (quorum push, failover fetch)
        self.store = StoreClient(
            sim, cfg, fabric, host, cs_names, rank, key,
            tracer=tracer, metrics=m, rng=rng, on_retry=on_retry,
        )

    # ------------------------------------------------------------------
    # ordering / dirty regions / capture
    # ------------------------------------------------------------------
    def order(self) -> None:
        """Request a checkpoint at the next API-boundary safe point."""
        self.requested = True

    def resize_regions(self, app_footprint: int) -> None:
        """Fit the dirty-region vector to the application footprint."""
        n = -(-app_footprint // max(1, self.cfg.ckpt_chunk_bytes))
        if len(self.region_versions) < n:
            self.region_versions.extend([0] * (n - len(self.region_versions)))
        elif len(self.region_versions) > n:
            del self.region_versions[n:]

    def touch_region(self, op_index: int) -> None:
        """Dirty the memory region this operation phase writes.

        Which region an op dirties depends only on ``op_index`` (hashed
        per phase of ``ckpt_dirty_ops`` operations), never on wall time
        or arrival order, so a replayed execution dirties exactly the
        regions the original did and reconverges to the same versions.
        """
        regions = self.region_versions
        if not regions:
            return
        phase = op_index // max(1, self.cfg.ckpt_dirty_ops)
        n = len(regions)
        if phase != self._dirty_phase or n != self._dirty_nreg:
            self._dirty_phase = phase
            self._dirty_nreg = n
            self._dirty_idx = stable_digest("dirty", phase) % n
        regions[self._dirty_idx] += 1

    def restore(self, image: CheckpointImage) -> None:
        """Re-seed the checkpoint state from a restored image."""
        self.seq = image.seq
        self.region_versions = list(image.regions)
        self.resize_regions(image.app_footprint)

    def capture(self) -> CheckpointImage:
        """Snapshot the node's logical state as a checkpoint image."""
        core = self.core
        self.seq += 1
        return CheckpointImage(
            rank=self.key,
            seq=self.seq,
            op_count=core.op_index,
            clock=core.clock.snapshot(),
            saved=core.saved.snapshot(),
            delivery_log=list(core.delivery_log),
            app_footprint=core.app_footprint,
            regions=tuple(self.region_versions),
        )

    # ------------------------------------------------------------------
    # the push and its completion fan-out
    # ------------------------------------------------------------------
    def start_push(self, image: CheckpointImage) -> None:
        """Stream the image to the checkpoint store in the background."""
        self.core._spawn(self._push(image), f"ckpt{image.seq}")

    def _push(self, image: CheckpointImage):
        core = self.core
        t0 = self.sim.now
        # decompose into content-addressed chunks and push to the replica
        # set; durable once the write quorum committed.  A briefly-down
        # replica (supervisor restart, partition) comes back within the
        # client's retry budget; losing the quorum entirely degrades to a
        # scheduler-retried abort exactly as a lost single server did
        manifest, chunks = chunk_image(image, self.cfg.ckpt_chunk_bytes)
        ok = yield from self.store.push(
            manifest, chunks, self.cfg.ckpt_incremental
        )
        if not ok:
            yield from self._failed(image, self.store.last_push_why)
            return
        total = image.image_bytes
        self._m_images.inc()
        self._m_bytes.inc(total)
        self._m_push.observe(self.sim.now - t0)
        # the completion record (with the image's HR vector) must precede
        # the GC orders it authorizes, so an online observer always sees
        # the checkpoint's coverage before any sender acts on it
        self.tracer.emit(
            self.sim.now,
            "v2.ckpt",
            rank=core.rank,
            seq=image.seq,
            clock=image.clock.h,
            nbytes=total,
            hr=dict(image.clock.hr),
        )
        # garbage collection: peers drop copies we will never ask for again.
        # Thresholds come from the *image's* HR vector — the live clock has
        # already advanced past deliveries the image does not cover.
        for q in core.peers.links:
            core.peers.enqueue_ctrl(q, ("GC", image.clock.hr.get(q, 0)))
        yield from core.el.prune(image.clock.recv_seq)
        sched_end = core.ctrl.sched_end
        if sched_end is not None:
            try:
                yield from sched_end.write(
                    16, ("CKPT_DONE", core.rank, image.clock.h, image.seq)
                )
            except Disconnected:
                pass

    def _failed(self, image: CheckpointImage, why: str):
        """Account an aborted push and ask the scheduler to retry it."""
        core = self.core
        self._m_aborted.inc()
        self.tracer.emit(
            self.sim.now, "v2.ckpt_abort", rank=core.rank, seq=image.seq,
            why=why,
        )
        sched_end = core.ctrl.sched_end
        if sched_end is not None:
            try:
                yield from sched_end.write(16, ("CKPT_FAIL", core.rank))
            except Disconnected:
                pass
        else:
            yield self.sim.pause(0.0)
