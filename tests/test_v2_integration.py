"""Integration tests: MPICH-V2 fault-free runs."""

import numpy as np
import pytest

from repro.runtime.mpirun import run_job


def test_v2_two_rank_ping():
    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(1, nbytes=100, tag=1, data="ping")
            msg = yield from mpi.recv(source=1, tag=2)
            return msg.data
        msg = yield from mpi.recv(source=0, tag=1)
        yield from mpi.send(0, nbytes=100, tag=2, data=msg.data + "/pong")
        return "done"

    res = run_job(prog, 2, device="v2")
    assert res.results[0] == "ping/pong"
    assert res.restarts == 0


def test_v2_token_ring():
    def prog(mpi):
        nxt = (mpi.rank + 1) % mpi.size
        prv = (mpi.rank - 1) % mpi.size
        if mpi.rank == 0:
            yield from mpi.send(nxt, nbytes=8, tag=0, data=[0])
            msg = yield from mpi.recv(source=prv, tag=0)
            return msg.data
        msg = yield from mpi.recv(source=prv, tag=0)
        yield from mpi.send(nxt, nbytes=8, tag=0, data=msg.data + [mpi.rank])
        return None

    res = run_job(prog, 5, device="v2")
    assert res.results[0] == [0, 1, 2, 3, 4]


def test_v2_collectives():
    def prog(mpi):
        total = yield from mpi.allreduce(value=mpi.rank + 1, nbytes=8)
        gathered = yield from mpi.gather(root=0, value=mpi.rank, nbytes=8)
        bc = yield from mpi.bcast(root=0, nbytes=64, data="hello" if mpi.rank == 0 else None)
        return (total, gathered, bc)

    res = run_job(prog, 4, device="v2")
    for r in range(4):
        total, gathered, bc = res.results[r]
        assert total == 10
        assert bc == "hello"
    assert res.results[0][1] == [0, 1, 2, 3]


def test_v2_rendezvous_large_message():
    def prog(mpi):
        data = np.arange(64 * 1024, dtype=np.float64)  # 512 KB
        if mpi.rank == 0:
            yield from mpi.send(1, nbytes=int(data.nbytes), tag=9, data=data)
            return None
        msg = yield from mpi.recv(source=0, tag=9)
        return float(np.sum(msg.data))

    res = run_job(prog, 2, device="v2")
    assert res.results[1] == pytest.approx(float(np.sum(np.arange(64 * 1024))))


def test_v2_events_logged_per_delivery():
    def prog(mpi):
        peer = 1 - mpi.rank
        for i in range(5):
            if mpi.rank == 0:
                yield from mpi.send(peer, nbytes=64, tag=i)
                yield from mpi.recv(source=peer, tag=i)
            else:
                yield from mpi.recv(source=peer, tag=i)
                yield from mpi.send(peer, nbytes=64, tag=i)
        return None

    res = run_job(prog, 2, device="v2")
    el = res.extras["event_loggers"][0]
    # each rank delivered 5 application messages (plus finalize barrier)
    assert len(el.records_for(0)) >= 5
    assert len(el.records_for(1)) >= 5


def test_v2_latency_higher_than_p4():
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
    lat_v2 = run_job(pingpong, 2, device="v2").results[0]
    # the paper: 77 us vs 237 us — a factor of ~3
    assert lat_v2 > 2.0 * lat_p4
    assert lat_v2 < 6.0 * lat_p4


def test_v2_bandwidth_close_to_p4():
    def pingpong(mpi, nbytes=2 * 1024 * 1024):
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
    bw_v2 = run_job(pingpong, 2, device="v2").results[0]
    # the paper: 10.7 vs 11.3 MB/s (~95%)
    assert bw_v2 > 0.85 * bw_p4
    assert bw_v2 < bw_p4


def test_v2_sender_log_retains_payloads():
    def prog(mpi):
        if mpi.rank == 0:
            for i in range(4):
                yield from mpi.send(1, nbytes=1000, tag=i)
        else:
            for i in range(4):
                yield from mpi.recv(source=0, tag=i)
        return None

    res = run_job(prog, 2, device="v2")
    disp = res.extras["dispatcher"]
    saved = disp.states[0].daemon.saved
    assert len(saved.messages_for(1)) >= 4


def test_v2_run_retains_little_per_logged_message():
    """What a finished, unchecked V2 ping-pong keeps per message: the
    SAVED envelope and the EL event are the protocol's, anything else is
    the simulator's.  The slope between a 400- and a 2400-message run
    (fixed costs cancel) stays at most 300 bytes.  A dict-backed
    envelope, a wrapper per SAVED entry or a delivery log kept with no
    checkpoint scheduler to read it (~460 B in all) breaks the bound."""
    import gc
    import tracemalloc

    from repro.workloads.pingpong import pingpong

    def retained(reps):
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = run_job(pingpong, 2, device="v2",
                          params={"nbytes": 0, "reps": reps, "warmup": 0})
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - base, res
        finally:
            tracemalloc.stop()

    retained(10)  # one-time imports and interned names
    small, res_small = retained(200)
    large, res_large = retained(1200)
    assert len(res_large.extras["dispatcher"].states[0].daemon.saved) >= 1200
    per_msg = (large - small) / (2 * (1200 - 200))
    assert per_msg <= 300, f"{per_msg:.0f} B retained per logged message"


def test_v2_deterministic():
    def prog(mpi):
        out = yield from mpi.allreduce(value=mpi.rank, nbytes=8)
        yield from mpi.compute(seconds=0.01)
        return out

    r1 = run_job(prog, 4, device="v2")
    r2 = run_job(prog, 4, device="v2")
    assert r1.elapsed == r2.elapsed
    assert r1.results == r2.results
