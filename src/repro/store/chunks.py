"""Content-addressed chunking of checkpoint images.

A checkpoint image is decomposed into a :class:`Manifest` — the rank,
the checkpoint sequence number, and the *ordered* list of chunk
references — plus the chunks themselves, addressed by a stable digest of
their logical content.  Identical content produces identical digests, so
a replica holding a chunk never stores (or receives) it twice: that is
what makes incremental checkpoints cheap, and what lets an interrupted
restart fetch resume on another replica with the chunks it already has.

The byte layout mirrors :attr:`CheckpointImage.image_bytes` exactly
(application footprint, then the sender-log payloads, then a fixed
4 KiB process header), and the chunker guarantees two structural
properties the transfer paths rely on (property-tested in
``tests/test_property_based.py``):

* the chunk sizes sum to ``image_bytes`` — nothing is double-counted or
  dropped;
* every chunk is at most ``chunk_bytes`` — oversized sender-log payloads
  are split into addressed parts.

Dedup boundaries are chosen for stability under mutation:

* **memory regions** sit on a fixed ``chunk_bytes`` grid and are
  digested by ``(rank, region index, region version)`` — the
  deterministic dirty-region model of :class:`~repro.core.v2_device.
  V2Daemon` bumps a region's version when the application writes it, so
  clean regions keep their digest across checkpoints;
* **sender-log chunks** group entries per destination and per
  ``SAVED_WINDOW`` of sender clocks, so garbage collection (which drops
  per-destination sclock prefixes) invalidates whole chunks instead of
  shifting every boundary after the cut;
* the **header** (clocks, delivery log, sequences) changes every
  checkpoint and is always pushed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple

from ..devices.base import segment_sizes

if TYPE_CHECKING:  # imported lazily below: core.v2_device imports this module
    from ..core.replay import CheckpointImage

__all__ = [
    "SAVED_WINDOW",
    "HEADER_BYTES",
    "Chunk",
    "ChunkRef",
    "Manifest",
    "assemble_image",
    "chunk_image",
    "stable_digest",
]

#: sender-log entries are grouped per destination and per this many
#: sender clocks: GC of a checkpointed prefix drops whole windows
SAVED_WINDOW = 64

#: the fixed process-header part of ``CheckpointImage.image_bytes``
HEADER_BYTES = 4096


def stable_digest(*parts: Any) -> int:
    """A 64-bit content digest, stable across runs and processes.

    Python's builtin ``hash`` is salted per process; checkpoint chunk
    identity must survive any such boundary (and stay deterministic for
    the tests), so digest the repr through blake2b instead.
    """
    h = hashlib.blake2b(repr(parts).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


class ChunkRef(NamedTuple):
    """One manifest entry: which chunk, and how many image bytes it covers."""

    digest: int
    nbytes: int


@dataclass(frozen=True)
class Chunk:
    """One content-addressed piece of a checkpoint image."""

    digest: int
    nbytes: int
    payload: Any  # ("mem", idx, version) | ("sav", entries) | ("hdr", ...) | ("pad",)


@dataclass(frozen=True)
class Manifest:
    """The recipe for one checkpoint image: ordered chunk references."""

    rank: int
    seq: int
    image_bytes: int
    chunks: tuple[ChunkRef, ...]

    @property
    def digests(self) -> tuple[int, ...]:
        """The referenced chunk digests, in image order."""
        return tuple(ref.digest for ref in self.chunks)

    @property
    def wire_bytes(self) -> int:
        """Transfer size of the manifest record itself."""
        return 64 + 16 * len(self.chunks)


def _saved_chunk(dst: int, group: list, gbytes: int) -> Chunk:
    ident = tuple(
        (env.src, sclock, env.tag, env.context, env.nbytes)
        for sclock, env in group
    )
    return Chunk(
        stable_digest("sav", dst, ident),
        gbytes,
        ("sav", tuple((dst, sclock, env) for sclock, env in group)),
    )


def chunk_image(
    image: CheckpointImage, chunk_bytes: int
) -> tuple[Manifest, dict[int, Chunk]]:
    """Split ``image`` into a manifest plus content-addressed chunks.

    Returns ``(manifest, chunks)`` where ``chunks`` maps digest to
    :class:`Chunk`.  Deterministic: the same image yields the same
    manifest and digests on every call.
    """
    chunk_bytes = max(1, int(chunk_bytes))
    out: list[Chunk] = []

    # 1. application memory, on the fixed region grid of the dirty model
    regions = image.regions
    left, idx = image.app_footprint, 0
    while left > 0:
        nbytes = min(chunk_bytes, left)
        version = regions[idx] if idx < len(regions) else 0
        out.append(
            Chunk(
                stable_digest("mem", image.rank, idx, version, nbytes),
                nbytes,
                ("mem", idx, version),
            )
        )
        left -= nbytes
        idx += 1

    # 2. sender-log payloads, grouped per destination and sclock window
    by_dst: dict[int, list] = {}
    for dst, sclock, env in image.saved:
        by_dst.setdefault(dst, []).append((sclock, env))
    for dst in sorted(by_dst):
        group: list = []
        gbytes = 0
        gwindow = None
        for sclock, env in sorted(by_dst[dst], key=lambda t: t[0]):
            window = sclock // SAVED_WINDOW
            ebytes = env.nbytes
            if group and (window != gwindow or gbytes + ebytes > chunk_bytes):
                out.append(_saved_chunk(dst, group, gbytes))
                group, gbytes = [], 0
            gwindow = window
            if ebytes > chunk_bytes:
                # oversized payload: the first part carries the entry,
                # the rest are padding parts addressed by (entry, part)
                ident = (dst, env.src, sclock, env.tag, env.context, ebytes)
                sizes = segment_sizes(ebytes, chunk_bytes)
                out.append(
                    Chunk(
                        stable_digest("sav", *ident, 0),
                        sizes[0],
                        ("sav", ((dst, sclock, env),)),
                    )
                )
                for part, nbytes in enumerate(sizes[1:], start=1):
                    out.append(
                        Chunk(
                            stable_digest("sav", *ident, part),
                            nbytes,
                            ("pad",),
                        )
                    )
                continue
            group.append((sclock, env))
            gbytes += ebytes
        if group:
            out.append(_saved_chunk(dst, group, gbytes))

    # 3. the process header: sequences, clocks, and the delivery log
    # (the delivery log rides in the header payload — like the paper's
    # whole-image transfer, its bytes are not part of image_bytes)
    hdr_ident = (
        image.rank,
        image.seq,
        image.op_count,
        image.clock.send_seq,
        image.clock.recv_seq,
        len(image.delivery_log),
        len(image.saved),
    )
    hdr_payload = (
        "hdr",
        image.rank,
        image.seq,
        image.op_count,
        image.clock,
        tuple(image.delivery_log),
        image.app_footprint,
        tuple(image.regions),
    )
    sizes = segment_sizes(HEADER_BYTES, chunk_bytes)
    out.append(Chunk(stable_digest("hdr", *hdr_ident, 0), sizes[0], hdr_payload))
    for part, nbytes in enumerate(sizes[1:], start=1):
        out.append(Chunk(stable_digest("hdr", *hdr_ident, part), nbytes, ("pad",)))

    manifest = Manifest(
        rank=image.rank,
        seq=image.seq,
        image_bytes=image.image_bytes,
        chunks=tuple(ChunkRef(c.digest, c.nbytes) for c in out),
    )
    return manifest, {c.digest: c for c in out}


def assemble_image(
    manifest: Manifest, chunks: Mapping[int, Chunk]
) -> CheckpointImage:
    """Rebuild a :class:`CheckpointImage` from a manifest and a chunk map.

    ``chunks`` may be any superset of the manifest's chunks (a replica's
    whole store, or a restart fetch's accumulated set).  Raises
    ``KeyError`` when a referenced chunk is missing — an incomplete
    manifest must never be served as an image.
    """
    from ..core.replay import CheckpointImage

    hdr = None
    saved: list = []
    for ref in manifest.chunks:
        payload = chunks[ref.digest].payload
        kind = payload[0]
        if kind == "hdr":
            hdr = payload
        elif kind == "sav":
            saved.extend(payload[1])
    if hdr is None:
        raise KeyError(f"manifest r{manifest.rank}/seq{manifest.seq} has no header chunk")
    _, rank, seq, op_count, clock, delivery_log, app_footprint, regions = hdr
    saved.sort(key=lambda t: (t[0], t[1]))
    return CheckpointImage(
        rank=rank,
        seq=seq,
        op_count=op_count,
        clock=clock,
        saved=list(saved),
        delivery_log=list(delivery_log),
        app_footprint=app_footprint,
        regions=tuple(regions),
    )
