"""Edge-case unit tests across modules."""

import pytest

from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG, CTX_PT2PT, Envelope
from repro.runtime.cluster import Cluster
from repro.runtime.mpirun import run_job
from repro.simnet import DeadlockError, Simulator, any_of


def test_run_job_rejects_unknown_device():
    def prog(mpi):
        yield mpi.sim.timeout(0.0)

    with pytest.raises(ValueError, match="unknown device"):
        run_job(prog, 2, device="mpich9")


def test_any_of_empty_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        any_of(sim, [])


def test_envelope_matching_semantics():
    env = Envelope(src=3, dst=0, tag=7, context=CTX_PT2PT, nbytes=10)
    assert env.matches(3, 7, CTX_PT2PT)
    assert env.matches(ANY_SOURCE, 7, CTX_PT2PT)
    assert env.matches(3, ANY_TAG, CTX_PT2PT)
    assert not env.matches(4, 7, CTX_PT2PT)
    assert not env.matches(3, 8, CTX_PT2PT)
    assert not env.matches(3, 7, CTX_PT2PT + 1)
    assert env.msgid == (3, 0)


def test_cluster_hosts_have_testbed_parameters():
    cluster = Cluster()
    cn = cluster.add_cn("cn0")
    aux = cluster.add_aux("aux0")
    assert cn.cpu_flops == cluster.cfg.cn_flops
    assert aux.cpu_flops == cluster.cfg.aux_flops
    assert aux.reliable and not cn.reliable


def test_deadlocked_program_is_diagnosed():
    """A program that receives a message nobody sends deadlocks visibly."""

    def prog(mpi):
        if mpi.rank == 1:
            yield from mpi.recv(source=0, tag=99)
        else:
            yield from mpi.compute(seconds=0.01)
        return None

    with pytest.raises(DeadlockError, match="never resolved"):
        run_job(prog, 2, device="p4")


def test_program_exception_propagates_with_rank():
    def prog(mpi):
        yield from mpi.compute(seconds=0.01)
        if mpi.rank == 1:
            raise ValueError("user bug on rank 1")
        yield from mpi.barrier()
        return None

    with pytest.raises(Exception, match="rank1"):
        run_job(prog, 2, device="p4")


def test_v2_program_exception_aborts_job():
    def prog(mpi):
        yield from mpi.compute(seconds=0.01)
        if mpi.rank == 0:
            raise RuntimeError("app failure")
        yield from mpi.barrier()
        return None

    with pytest.raises(RuntimeError, match="app failure"):
        run_job(prog, 2, device="v2")


def test_single_rank_job_all_devices():
    def prog(mpi):
        yield from mpi.compute(seconds=0.1)
        out = yield from mpi.allreduce(value=41, nbytes=8)
        yield from mpi.send(0, nbytes=10, tag=1, data="self")
        msg = yield from mpi.recv(source=0, tag=1)
        return (out + 1, msg.data)

    for dev in ("p4", "v1", "v2"):
        res = run_job(prog, 1, device=dev)
        assert res.results == [(42, "self")], dev


def test_zero_byte_messages_roundtrip():
    def prog(mpi):
        peer = 1 - mpi.rank
        if mpi.rank == 0:
            yield from mpi.send(peer, nbytes=0, tag=1)
            msg = yield from mpi.recv(source=peer, tag=2)
            return msg.nbytes
        msg = yield from mpi.recv(source=peer, tag=1)
        yield from mpi.send(peer, nbytes=0, tag=2)
        return msg.nbytes

    for dev in ("p4", "v1", "v2"):
        assert run_job(prog, 2, device=dev).results == [0, 0], dev


def test_many_outstanding_requests():
    """Request bookkeeping survives hundreds of outstanding operations."""

    def prog(mpi):
        peer = 1 - mpi.rank
        n = 150
        sends, recvs = [], []
        for i in range(n):
            r = yield from mpi.isend(peer, nbytes=200, tag=i, data=i)
            sends.append(r)
        for i in range(n):
            r = yield from mpi.irecv(source=peer, tag=i)
            recvs.append(r)
        yield from mpi.waitall(sends + recvs)
        return sum(r.message.data for r in recvs)

    res = run_job(prog, 2, device="v2")
    assert res.results == [sum(range(150))] * 2


def test_tags_segregate_interleaved_traffic():
    def prog(mpi):
        peer = 1 - mpi.rank
        evens = []
        odds = []
        for i in range(10):
            yield from mpi.send(peer, nbytes=32, tag=i % 2, data=i)
        for _ in range(5):
            m = yield from mpi.recv(source=peer, tag=0)
            evens.append(m.data)
        for _ in range(5):
            m = yield from mpi.recv(source=peer, tag=1)
            odds.append(m.data)
        return (evens, odds)

    res = run_job(prog, 2, device="p4")
    assert res.results[0] == ([0, 2, 4, 6, 8], [1, 3, 5, 7, 9])


def test_large_rank_count_barrier():
    def prog(mpi):
        yield from mpi.barrier()
        out = yield from mpi.allreduce(value=1, nbytes=8)
        return out

    res = run_job(prog, 24, device="p4")
    assert res.results == [24] * 24


def test_stats_track_traffic():
    def prog(mpi):
        peer = 1 - mpi.rank
        if mpi.rank == 0:
            yield from mpi.send(peer, nbytes=5000, tag=1)
        else:
            yield from mpi.recv(source=peer, tag=1)
        return None

    res = run_job(prog, 2, device="p4")
    assert res.stat("dev.bytes_sent", rank=0) >= 5000
    assert res.stat("dev.bytes_received", rank=1) >= 5000


def test_rng_streams_are_stable_and_independent():
    from repro.simnet.rng import RngRegistry

    a = RngRegistry(7)
    b = RngRegistry(7)
    # same seed + name -> same stream
    assert a.stream("x").integers(0, 1000) == b.stream("x").integers(0, 1000)
    # different names -> independent streams
    a2 = RngRegistry(7)
    xs = a2.stream("x").integers(0, 1000, size=5).tolist()
    ys = a2.stream("y").integers(0, 1000, size=5).tolist()
    assert xs != ys
    # stream objects are cached
    r = RngRegistry(1)
    assert r.stream("s") is r.stream("s")


def _eager(seed, name):
    """The generator a stream was before streams became lazy."""
    import zlib

    import numpy as np

    key = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([seed, key]))


@pytest.mark.parametrize("seed, name", [
    (0, "ckpt-sched"), (1, "j3/reconnect:d2"), (7, "x"),
])
def test_lazy_stream_draws_equal_the_eager_generator(seed, name):
    from repro.simnet.rng import RngRegistry

    draws = [
        lambda g: g.random(), lambda g: g.choice(8),
        lambda g: g.integers(0, 1000),
    ]
    for draw in draws:
        lazy = RngRegistry(seed).stream(name)
        eager = _eager(seed, name)
        assert [draw(lazy) for _ in range(64)] == [draw(eager) for _ in range(64)]


def test_dropped_stream_restarts_from_its_derived_seed():
    from repro.simnet.rng import RngRegistry

    reg = RngRegistry(5)
    first = [reg.stream("j1/a").random() for _ in range(4)]
    reg.stream("j2/a").random()
    reg.drop("j1/")
    assert [reg.stream("j1/a").random() for _ in range(4)] == first
    eager = _eager(5, "j1/a")
    assert first == [eager.random() for _ in range(4)]
    assert "j2/a" in reg._streams  # another prefix is kept


def test_payload_nbytes_sizes_arrays_and_lists_of_arrays():
    import numpy as np

    from repro.mpi.api import payload_nbytes

    assert payload_nbytes(np.zeros(10)) == 80
    assert payload_nbytes([np.zeros(10), np.ones(3, dtype=np.int32)]) == (
        16 + 80 + 12
    )
    assert payload_nbytes((np.zeros(2), 1.0, None)) == 16 + 16 + 8 + 0


def test_tracer_select_prefix():
    from repro.simnet.trace import Tracer

    t = Tracer(enabled=True)
    t.emit(0.0, "v2.tx", x=1)
    t.emit(0.1, "v2.restart", x=2)
    t.emit(0.2, "net.xfer", x=3)
    assert len(t) == 3
    assert [r.kind for r in t] == ["v2.tx", "v2.restart", "net.xfer"]


def test_tracer_disabled_records_nothing():
    from repro.simnet.trace import Tracer

    t = Tracer(enabled=False)
    t.emit(0.0, "anything")
    assert len(t) == 0


def test_thirty_two_ranks_on_v2():
    """The paper's maximum deployment size: 32 computing nodes on V2."""

    def prog(mpi):
        total = yield from mpi.allreduce(value=mpi.rank, nbytes=8)
        out = yield from mpi.allgather(value=mpi.rank % 4, nbytes=8)
        return (total, sum(out))

    res = run_job(prog, 32, device="v2")
    assert res.results[0] == (sum(range(32)), 8 * (0 + 1 + 2 + 3))
    assert len(set(res.results)) == 1
