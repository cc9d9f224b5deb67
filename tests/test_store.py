"""The replicated, content-addressed checkpoint store (repro.store).

Unit-level coverage of the three mechanisms the restart path stands on:
content-addressed chunking (dedup across sequences, incremental pushes),
quorum writes (durable at K of N, degraded replica sets tolerated up to
N-K failures), and manifest-reference garbage collection (a chunk lives
exactly as long as some surviving manifest names it).  The wire protocol
is typed; malformed records are rejected and logged, never misread as
payload.
"""

import pytest

from repro.core.clocks import ClockState
from repro.core.replay import CheckpointImage
from repro.mpi.datatypes import CTX_PT2PT, Envelope
from repro.runtime.cluster import Cluster
from repro.runtime.config import DEFAULT_TESTBED
from repro.runtime.fabric import Fabric
from repro.store import StoreClient, StoreReplica, assemble_image, chunk_image


def _image(rank=0, seq=1, footprint=200_000, regions=(), saved=None):
    return CheckpointImage(
        rank=rank, seq=seq, op_count=seq, clock=ClockState(),
        saved=list(saved or []), delivery_log=[], app_footprint=footprint,
        regions=tuple(regions),
    )


def _saved(dst, sclock, nbytes):
    return (dst, sclock,
            Envelope(src=9, dst=dst, tag=0, context=CTX_PT2PT,
                     nbytes=nbytes, sclock=sclock))


def _deploy(n, cfg=None, seed=0):
    """A cluster with ``n`` started replicas and a client-side CN host."""
    cluster = Cluster(cfg or DEFAULT_TESTBED, seed=seed)
    fabric = Fabric(cluster)
    replicas = []
    for i in range(n):
        host = cluster.add_aux(f"cs-host{i}")
        r = StoreReplica(cluster.sim, host, fabric, cluster.cfg, f"cs:{i}",
                         cluster.tracer, cluster.metrics)
        r.start()
        replicas.append(r)
    cn = cluster.add_cn("cn0")
    return cluster, fabric, replicas, cn


def _client(cluster, fabric, replicas, cn, rank=0, quorum=None):
    cfg = cluster.cfg
    if quorum is not None:
        cfg = cfg.with_(ckpt_replicas=quorum)
    return StoreClient(
        cluster.sim, cfg, fabric, cn, tuple(r.name for r in replicas),
        rank, rank, tracer=cluster.tracer, metrics=cluster.metrics,
    )


# -- chunking and dedup ------------------------------------------------------


def test_chunk_dedup_across_sequences():
    """Consecutive checkpoints of an unchanged memory share every region
    chunk; only the per-sequence header differs."""
    cfg = DEFAULT_TESTBED
    a = _image(seq=1, footprint=cfg.ckpt_chunk_bytes * 3, regions=(0, 0, 0))
    b = _image(seq=2, footprint=cfg.ckpt_chunk_bytes * 3, regions=(0, 0, 0))
    ma, ca = chunk_image(a, cfg.ckpt_chunk_bytes)
    mb, cb = chunk_image(b, cfg.ckpt_chunk_bytes)
    shared = set(ma.digests) & set(mb.digests)
    assert len(shared) == 3  # the three untouched memory regions
    fresh = set(mb.digests) - set(ma.digests)
    assert fresh  # the header always changes
    assert all(cb[d].payload[0] == "hdr" or cb[d].payload == ("pad",)
               for d in fresh)


def test_chunk_dirty_region_invalidates_one_chunk():
    cfg = DEFAULT_TESTBED
    a = _image(seq=1, footprint=cfg.ckpt_chunk_bytes * 4,
               regions=(0, 0, 0, 0))
    b = _image(seq=2, footprint=cfg.ckpt_chunk_bytes * 4,
               regions=(0, 2, 0, 0))  # one region written since seq 1
    ma, _ = chunk_image(a, cfg.ckpt_chunk_bytes)
    mb, _ = chunk_image(b, cfg.ckpt_chunk_bytes)
    mem_a = [r.digest for r in ma.chunks[:4]]
    mem_b = [r.digest for r in mb.chunks[:4]]
    assert mem_a[0] == mem_b[0] and mem_a[2:] == mem_b[2:]
    assert mem_a[1] != mem_b[1]


def test_assemble_refuses_incomplete_chunk_set():
    cfg = DEFAULT_TESTBED
    manifest, chunks = chunk_image(_image(), cfg.ckpt_chunk_bytes)
    del chunks[manifest.digests[0]]
    with pytest.raises(KeyError):
        assemble_image(manifest, chunks)


def test_saved_payloads_roundtrip_with_oversized_entries():
    cfg = DEFAULT_TESTBED
    saved = [_saved(1, 3, 500), _saved(1, 4, cfg.ckpt_chunk_bytes * 2 + 17),
             _saved(2, 1, 900)]
    image = _image(footprint=10_000, saved=saved)
    manifest, chunks = chunk_image(image, cfg.ckpt_chunk_bytes)
    assert all(ref.nbytes <= cfg.ckpt_chunk_bytes for ref in manifest.chunks)
    back = assemble_image(manifest, chunks)
    assert back.saved == sorted(saved, key=lambda t: (t[0], t[1]))
    assert back.image_bytes == image.image_bytes


# -- quorum push -------------------------------------------------------------


def test_push_durable_at_quorum_with_one_replica_down():
    """K=2 of N=3: a push succeeds with one replica dead, and at least
    two replicas hold the complete manifest the moment it resolves."""
    cluster, fabric, replicas, cn = _deploy(3)
    replicas[2].stop()
    client = _client(cluster, fabric, replicas, cn, quorum=2)
    got = {}

    def run():
        manifest, chunks = chunk_image(_image(), cluster.cfg.ckpt_chunk_bytes)
        got["ok"] = yield from client.push(manifest, chunks, False)
        got["committed"] = sum(
            1 for r in replicas if r.manifests.get(0, {}).get(1)
        )

    cluster.sim.spawn(run())
    cluster.sim.run()
    assert got["ok"] is True
    assert got["committed"] >= 2
    assert not replicas[2].manifests  # the dead replica never saw it
    assert cluster.metrics.total("store.push_bytes") > 0


def test_push_fails_when_quorum_unreachable():
    cluster, fabric, replicas, cn = _deploy(3)
    replicas[1].stop()
    replicas[2].stop()
    client = _client(cluster, fabric, replicas, cn, quorum=2)
    got = {}

    def run():
        manifest, chunks = chunk_image(_image(), cluster.cfg.ckpt_chunk_bytes)
        got["ok"] = yield from client.push(manifest, chunks, False)

    cluster.sim.spawn(run())
    cluster.sim.run()
    assert got["ok"] is False
    assert client.last_push_why == "refused"
    # the lone live replica still committed; durability just wasn't met
    assert replicas[0].manifests.get(0, {}).get(1)


def test_incremental_push_sends_only_missing_chunks():
    cluster, fabric, replicas, cn = _deploy(1)
    cfg = cluster.cfg
    client = _client(cluster, fabric, replicas, cn)
    n_regions = 4
    footprint = cfg.ckpt_chunk_bytes * n_regions
    got = {}

    def run():
        m1, c1 = chunk_image(
            _image(seq=1, footprint=footprint, regions=(0,) * n_regions),
            cfg.ckpt_chunk_bytes,
        )
        yield from client.push(m1, c1, True)
        got["first"] = cluster.metrics.total("store.push_bytes")
        # one dirty region since seq 1: the incremental push moves that
        # region plus the header, nothing else
        m2, c2 = chunk_image(
            _image(seq=2, footprint=footprint, regions=(0, 1, 0, 0)),
            cfg.ckpt_chunk_bytes,
        )
        yield from client.push(m2, c2, True)
        got["second"] = cluster.metrics.total("store.push_bytes") - got["first"]

    cluster.sim.spawn(run())
    cluster.sim.run()
    assert got["first"] >= footprint
    assert got["second"] < got["first"] / 2
    assert cluster.metrics.total("store.dedup_bytes") >= footprint * 0.7
    assert replicas[0].latest(0).seq == 2


# -- fetch and failover ------------------------------------------------------


def test_fetch_fails_over_when_a_replica_dies():
    """Both replicas hold the image; the one serving the fetch dies.
    The client retries against the survivor and completes the restart."""
    cluster, fabric, replicas, cn = _deploy(2)
    cfg = cluster.cfg
    image = _image(footprint=5_000_000)  # big enough to die mid-stream
    manifest, chunks = chunk_image(image, cfg.ckpt_chunk_bytes)
    for r in replicas:
        r.chunks.update(chunks)
        r.manifests.setdefault(0, {})[manifest.seq] = manifest
    client = _client(cluster, fabric, replicas, cn)
    got = {}

    def run():
        got["image"] = yield from client.fetch()

    cluster.sim.spawn(run())
    cluster.sim.after(0.01, replicas[0].stop)
    cluster.sim.run()
    assert got["image"] is not None
    assert got["image"].seq == manifest.seq
    assert got["image"].image_bytes == image.image_bytes
    assert cluster.metrics.total("store.failover") >= 1


def test_zero_copy_push_and_fetch_share_backing_buffer():
    """The flat framing path hands chunk *references* all the way from
    the pushing daemon through the replica store to the fetching
    restart: every replica stores the pushed chunk objects themselves."""
    cluster, fabric, replicas, cn = _deploy(2)
    cfg = cluster.cfg
    image = _image(footprint=cfg.ckpt_chunk_bytes * 3, regions=(0, 0, 0))
    manifest, chunks = chunk_image(image, cfg.ckpt_chunk_bytes)
    # the manifest's chunks tile the serialized image
    assert sum(ref.nbytes for ref in manifest.chunks) == image.image_bytes
    client = _client(cluster, fabric, replicas, cn, quorum=2)
    got = {}

    def run():
        got["ok"] = yield from client.push(manifest, chunks, False)
        got["image"] = yield from client.fetch()

    cluster.sim.spawn(run())
    cluster.sim.run()
    assert got["ok"] is True and got["image"] is not None
    for r in replicas:
        for ref in manifest.chunks:
            d = ref.digest
            assert r.chunks[d] is chunks[d]  # no copy on the way


def test_fetch_returns_none_when_no_replica_has_an_image():
    cluster, fabric, replicas, cn = _deploy(2)
    client = _client(cluster, fabric, replicas, cn)
    got = {}

    def run():
        got["image"] = yield from client.fetch()

    cluster.sim.spawn(run())
    cluster.sim.run()
    assert got["image"] is None
    assert cluster.metrics.total("store.failover") == 0


# -- garbage collection ------------------------------------------------------


def test_gc_frees_only_unreferenced_chunks():
    cluster, fabric, replicas, cn = _deploy(1)
    cfg = cluster.cfg
    replica = replicas[0]
    n = 3
    footprint = cfg.ckpt_chunk_bytes * n
    m1, c1 = chunk_image(_image(seq=1, footprint=footprint,
                                regions=(0, 0, 0)), cfg.ckpt_chunk_bytes)
    m2, c2 = chunk_image(_image(seq=2, footprint=footprint,
                                regions=(0, 7, 0)), cfg.ckpt_chunk_bytes)
    for m, c in ((m1, c1), (m2, c2)):
        replica.chunks.update(c)
        replica.manifests.setdefault(0, {})[m.seq] = m
    replica._collect({0: 2})
    assert list(replica.manifests[0]) == [2]
    # every chunk of the surviving manifest is intact...
    assert all(d in replica.chunks for d in m2.digests)
    # ...and seq 1's now-unreferenced chunks (dirty region + header) are gone
    dead = set(m1.digests) - set(m2.digests)
    assert dead and all(d not in replica.chunks for d in dead)
    assert cluster.metrics.total("store.gc_reclaimed_bytes") > 0
    # the shared region chunks were NOT reclaimed
    shared = set(m1.digests) & set(m2.digests)
    assert shared and all(d in replica.chunks for d in shared)


def test_commit_is_refused_when_chunks_are_missing():
    """A COMMIT naming chunks the replica does not hold is INCOMPLETE:
    a half-pushed image can never become fetchable."""
    cluster, fabric, replicas, cn = _deploy(1)
    cfg = cluster.cfg
    got = {}

    def run():
        end = fabric.connect(cn, "cs:0")
        manifest, chunks = chunk_image(_image(), cfg.ckpt_chunk_bytes)
        yield from end.write(manifest.wire_bytes, ("COMMIT", manifest))
        _, reply = yield end.read()
        got["reply"] = reply

    cluster.sim.spawn(run())
    cluster.sim.run()
    assert got["reply"][0] == "INCOMPLETE"
    assert set(got["reply"][1])  # the holes are named
    assert not replicas[0].manifests


# -- wire-protocol framing ---------------------------------------------------


def test_malformed_records_are_rejected_and_logged():
    """The satellite bugfix: anything that is not a typed tuple (or a
    bare in-flight segment) is a protocol error — logged and skipped,
    never silently treated as a chunk in flight."""
    cluster, fabric, replicas, cn = _deploy(1)
    got = {}

    def run():
        end = fabric.connect(cn, "cs:0")
        yield from end.write(16, "banana")          # not a tuple
        yield from end.write(16, (42, "x"))         # untagged tuple
        yield from end.write(16, ())                # empty tuple
        yield from end.write(16, ("BOGUS", 1))      # unknown tag
        yield from end.write(16, ("HAVE", 1))       # malformed HAVE
        yield from end.write(16, ("CHUNK", "junk"))  # not a Chunk
        yield from end.write(16, None)              # a legal segment filler
        yield from end.write(16, ("HEAD", 0))       # the loop still serves
        _, reply = yield end.read()
        got["head"] = reply

    cluster.sim.spawn(run())
    cluster.sim.run()
    assert got["head"] == ("LATEST", 0)
    assert cluster.metrics.total("store.protocol_errors") == 6
    assert not replicas[0].chunks  # nothing malformed was stored


def test_store_replica_starts_with_no_images():
    """A fresh replica serves under its name and holds no images."""
    cluster = Cluster(DEFAULT_TESTBED, seed=0)
    fabric = Fabric(cluster)
    host = cluster.add_aux("svc")
    cs = StoreReplica(cluster.sim, host, fabric, cluster.cfg, "cs:0",
                      cluster.tracer, cluster.metrics)
    assert cs.name == "cs:0"
    assert cs.manifests == {}
