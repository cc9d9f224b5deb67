"""Integration tests: the MPICH-V1 Channel-Memory baseline."""

import pytest

from repro.runtime.mpirun import run_job


def test_v1_ping():
    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(1, nbytes=100, tag=1, data="ping")
            msg = yield from mpi.recv(source=1, tag=2)
            return msg.data
        msg = yield from mpi.recv(source=0, tag=1)
        yield from mpi.send(0, nbytes=100, tag=2, data=msg.data + "/pong")
        return None

    res = run_job(prog, 2, device="v1")
    assert res.results[0] == "ping/pong"


def test_v1_all_messages_stored_on_cm():
    def prog(mpi):
        if mpi.rank == 0:
            for i in range(5):
                yield from mpi.send(1, nbytes=500, tag=i)
        else:
            for i in range(5):
                yield from mpi.recv(source=0, tag=i)
        return None

    res = run_job(prog, 2, device="v1")
    stored = res.metrics.total("v1.cm_stores")
    assert stored >= 5  # every payload transits and stays on a CM


def test_v1_cm_grouping():
    def prog(mpi):
        yield from mpi.barrier()
        return None

    res = run_job(prog, 8, device="v1", cns_per_cm=4)
    assert len(res.extras["channel_memories"]) == 2


def test_v1_collectives():
    def prog(mpi):
        total = yield from mpi.allreduce(value=mpi.rank + 1, nbytes=8)
        out = yield from mpi.allgather(value=mpi.rank, nbytes=8)
        return (total, out)

    res = run_job(prog, 4, device="v1")
    for total, out in res.results:
        assert total == 10
        assert out == [0, 1, 2, 3]


def test_v1_large_message_ships_eagerly():
    """No rendezvous through the CM: big payloads still arrive correctly."""

    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(1, nbytes=600_000, tag=1, data="bulk")
            return None
        msg = yield from mpi.recv(source=0, tag=1)
        return (msg.nbytes, msg.data)

    res = run_job(prog, 2, device="v1")
    assert res.results[1] == (600_000, "bulk")


def test_v1_message_order_preserved():
    def prog(mpi):
        if mpi.rank == 0:
            for i in range(10):
                yield from mpi.send(1, nbytes=64, tag=0, data=i)
            return None
        out = []
        for _ in range(10):
            msg = yield from mpi.recv(source=0, tag=0)
            out.append(msg.data)
        return out

    res = run_job(prog, 2, device="v1")
    assert res.results[1] == list(range(10))


def test_v1_bandwidth_about_half_of_p4():
    def pingpong(mpi, nbytes=1024 * 1024):
        peer = 1 - mpi.rank
        t0 = mpi.sim.now
        for _ in range(3):
            if mpi.rank == 0:
                yield from mpi.send(peer, nbytes=nbytes)
                yield from mpi.recv(source=peer)
            else:
                yield from mpi.recv(source=peer)
                yield from mpi.send(peer, nbytes=nbytes)
        return nbytes * 6 / (mpi.sim.now - t0)

    bw_p4 = run_job(pingpong, 2, device="p4").results[0]
    bw_v1 = run_job(pingpong, 2, device="v1").results[0]
    # the paper: the Channel Memory divides the bandwidth by a factor of 2
    assert bw_v1 == pytest.approx(bw_p4 / 2, rel=0.2)


def test_v1_latency_between_p4_and_v2():
    def pingpong(mpi):
        peer = 1 - mpi.rank
        t0 = mpi.sim.now
        for _ in range(10):
            if mpi.rank == 0:
                yield from mpi.send(peer, nbytes=0)
                yield from mpi.recv(source=peer)
            else:
                yield from mpi.recv(source=peer)
                yield from mpi.send(peer, nbytes=0)
        return (mpi.sim.now - t0) / 20

    lat_p4 = run_job(pingpong, 2, device="p4").results[0]
    lat_v1 = run_job(pingpong, 2, device="v1").results[0]
    lat_v2 = run_job(pingpong, 2, device="v2").results[0]
    assert lat_p4 < lat_v1 < lat_v2
