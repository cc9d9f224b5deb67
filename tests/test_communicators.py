"""Tests for sub-communicators (MPI_Comm_split)."""

import pytest

from repro.ft.failure import ExplicitFaults
from repro.runtime.mpirun import run_job


def test_split_ranks_and_sizes():
    def prog(mpi):
        comm = yield from mpi.split(color=mpi.rank % 2)
        return (comm.rank, comm.size, comm.ranks)

    res = run_job(prog, 6, device="p4")
    for world_rank, (r, s, members) in enumerate(res.results):
        assert s == 3
        assert members == ([0, 2, 4] if world_rank % 2 == 0 else [1, 3, 5])
        assert members[r] == world_rank


def test_split_with_key_reorders():
    def prog(mpi):
        comm = yield from mpi.split(color=0, key=-mpi.rank)
        return comm.rank

    res = run_job(prog, 4, device="p4")
    assert res.results == [3, 2, 1, 0]  # reversed ordering


def test_split_undefined_color_returns_none():
    def prog(mpi):
        comm = yield from mpi.split(color=None if mpi.rank == 0 else 1)
        if comm is None:
            return "excluded"
        return comm.size

    res = run_job(prog, 4, device="p4")
    assert res.results == ["excluded", 3, 3, 3]


def test_subcomm_p2p_is_isolated():
    """Same tags in sibling communicators never cross-match."""

    def prog(mpi):
        comm = yield from mpi.split(color=mpi.rank % 2)
        peer = (comm.rank + 1) % comm.size
        prv = (comm.rank - 1) % comm.size
        sreq = yield from comm.isend(peer, nbytes=64, tag=5, data=mpi.rank)
        rreq = yield from comm.irecv(source=prv, tag=5)
        yield from comm.waitall([sreq, rreq])
        return rreq.message.data

    res = run_job(prog, 6, device="p4")
    # each rank receives from its group predecessor (world ranks)
    assert res.results == [4, 5, 0, 1, 2, 3]


def test_subcomm_collectives():
    def prog(mpi):
        comm = yield from mpi.split(color=mpi.rank // 2)  # pairs
        total = yield from comm.allreduce(value=mpi.rank + 1, nbytes=8)
        out = yield from comm.allgather(value=mpi.rank, nbytes=8)
        bc = yield from comm.bcast(root=0, nbytes=16,
                                   data=f"g{mpi.rank // 2}" if comm.rank == 0 else None)
        return (total, out, bc)

    res = run_job(prog, 6, device="p4")
    for world_rank, (total, out, bc) in enumerate(res.results):
        g = world_rank // 2
        assert total == (2 * g + 1) + (2 * g + 2)
        assert out == [2 * g, 2 * g + 1]
        assert bc == f"g{g}"


def test_concurrent_sibling_collectives_do_not_collide():
    def prog(mpi):
        comm = yield from mpi.split(color=mpi.rank % 2)
        acc = float(mpi.rank)
        for _ in range(6):
            acc = yield from comm.allreduce(value=acc, nbytes=8)
        return round(acc, 6)

    res = run_job(prog, 8, device="p4")
    even = [res.results[r] for r in range(0, 8, 2)]
    odd = [res.results[r] for r in range(1, 8, 2)]
    assert len(set(even)) == 1 and len(set(odd)) == 1
    assert even[0] != odd[0]


def test_nested_split():
    def prog(mpi):
        half = yield from mpi.split(color=mpi.rank // 4)
        quarter = yield from half.split(color=half.rank // 2)
        total = yield from quarter.allreduce(value=mpi.rank, nbytes=8)
        return total

    res = run_job(prog, 8, device="p4")
    assert res.results == [1, 1, 5, 5, 9, 9, 13, 13]


def test_subcomm_identical_across_devices():
    def prog(mpi):
        comm = yield from mpi.split(color=mpi.rank % 2)
        out = yield from comm.scan(value=mpi.rank + 1, nbytes=8)
        total = yield from mpi.allreduce(value=out, nbytes=8)
        return total

    ref = run_job(prog, 6, device="p4").results
    assert run_job(prog, 6, device="v1").results == ref
    assert run_job(prog, 6, device="v2").results == ref


def test_subcomm_survives_fault():
    def prog(mpi):
        comm = yield from mpi.split(color=mpi.rank % 2)
        acc = float(mpi.rank + 1)
        for i in range(5):
            peer = (comm.rank + 1) % comm.size
            prv = (comm.rank - 1) % comm.size
            msg = yield from comm.sendrecv(peer, nbytes=128, tag=i, data=acc,
                                           source=prv, recvtag=i)
            acc = 0.5 * (acc + msg.data)
            yield from comm.compute(seconds=0.02)
        total = yield from mpi.allreduce(value=round(acc, 9), nbytes=8)
        return round(total, 6)

    clean = run_job(prog, 6, device="v2")
    faulty = run_job(prog, 6, device="v2",
                     faults=ExplicitFaults([(0.05, 3)]), limit=600.0)
    assert faulty.restarts == 1
    assert faulty.results == clean.results


# -- one class: a split communicator is the world's equal ----------------------


def test_subcomm_class_is_gone():
    import repro.mpi

    assert not hasattr(repro.mpi, "SubComm")
    assert not hasattr(repro.mpi, "comm_split")
    assert issubclass(repro.mpi.MPI, repro.mpi.Comm)


def test_split_context_ids_are_pinned():
    """Nested and sibling splits derive the ids the two-class code derived."""

    def prog(mpi):
        a = yield from mpi.split(color=mpi.rank % 2)
        b = yield from mpi.split(color=mpi.rank // 4, key=-mpi.rank)
        c = yield from b.split(color=b.rank // 2)
        d = yield from a.split(color=a.rank % 3)
        return [(x.p2p_context, x.coll_context) for x in (mpi, a, b, c, d)]

    res = run_job(prog, 8, device="p4")
    assert res.results[0] == [
        (0, 1), (2080, 2081), (2096, 2097), (4294690, 4294691), (4261920, 4261921),
    ]
    assert res.results[5] == [
        (0, 1), (2082, 2083), (2098, 2099), (4298786, 4298787), (4266020, 4266021),
    ]


@pytest.mark.parametrize("device", ["p4", "v2"])
def test_timer_tiles_elapsed_on_a_split_communicator(device):
    """Blocking calls and collectives on a group are timed like the world's."""

    def prog(mpi):
        comm = yield from mpi.split(color=0)
        peer = 1 - comm.rank
        for i in range(10):
            if comm.rank == 0:
                yield from comm.send(peer, nbytes=64, tag=i)
                yield from comm.recv(peer, tag=i)
            else:
                yield from comm.recv(peer, tag=i)
                yield from comm.send(peer, nbytes=64, tag=i)
            yield from comm.allreduce(value=1.0, nbytes=8)

    res = run_job(prog, 2, device=device)
    assert max(t.total() for t in res.timers.values()) == pytest.approx(
        res.elapsed, rel=1e-9
    )
    for t in res.timers.values():
        assert t.counts["send"] == t.counts["recv"] == 10
        assert min(t.get("send"), t.get("recv"), t.get("coll")) > 0.0


def test_sources_are_group_ranks_and_replies_reach_the_sender():
    """``Message.source`` and ``probe`` number ranks as the communicator does."""

    def echo(comm, mpi):
        # the last member writes to member 0, which answers whoever wrote
        last = comm.size - 1
        if comm.rank == last:
            yield from comm.send(0, nbytes=8, tag=1, data=mpi.rank)
            reply = yield from comm.recv(source=0, tag=2)
            return reply.data
        if comm.rank == 0:
            src, tag, nbytes = yield from comm.probe(tag=1)
            msg = yield from comm.recv(tag=1)
            yield from comm.send(msg.source, nbytes=8, tag=2, data=("ack", msg.data))
            return (src, msg.source)
        return None

    def prog(mpi):
        odd_even = yield from mpi.split(color=mpi.rank % 2)  # [0,2,4,6] / [1,3,5,7]
        first = yield from echo(odd_even, mpi)
        # nested and reordered: [2,0] [6,4] / [3,1] [7,5]
        pair = yield from odd_even.split(color=odd_even.rank // 2, key=-odd_even.rank)
        second = yield from echo(pair, mpi)
        return (first, second)

    res = run_job(prog, 8, device="p4")
    # world 1 leads [1,3,5,7] and hears its member 3 (world 7), not "7";
    # in [3,1] it is member 1 and world 3 answers it
    assert res.results == [
        ((3, 3), ("ack", 0)),
        ((3, 3), ("ack", 1)),
        (None, (1, 1)),
        (None, (1, 1)),
        (None, ("ack", 4)),
        (None, ("ack", 5)),
        (("ack", 6), (1, 1)),
        (("ack", 7), (1, 1)),
    ]


def test_probe_sees_only_its_own_communicator():
    def prog(mpi):
        comm = yield from mpi.split(color=0, key=-mpi.rank)  # rank order reversed
        if mpi.rank == 1:
            yield from mpi.send(0, nbytes=8, tag=9, data="world")
            yield from mpi.barrier()
            yield from comm.send(comm.size - 1, nbytes=16, tag=9, data="group")
            return None
        if mpi.rank == 0:
            # let the world message arrive, then look for it in the group
            while not (yield from mpi.iprobe(tag=9)):
                yield from mpi.compute(seconds=1e-4)
            hidden = yield from comm.iprobe(tag=9)
            yield from mpi.barrier()
            found = yield from comm.probe(source=comm.size - 2, tag=9)
            got = yield from comm.recv(tag=9)
            still = yield from mpi.probe(tag=9)
            return (hidden, found, got.data, still)
        yield from mpi.barrier()
        return None

    res = run_job(prog, 3, device="p4")
    # world 1 is member 1 of the reversed group [2,1,0]; world numbering still 1
    assert res.results[0] == (False, (1, 9, 16), "group", (1, 9, 8))


@pytest.mark.parametrize("victim", [1, 3])
def test_any_source_on_a_subcomm_survives_fault(victim):
    """The leader or a sender dies mid-way through wildcard receives on a
    group: every reply still reaches the member that wrote, under the
    group-rank source the fault-free run reports.  (Arrival order after a
    kill is legitimately different, so each round is compared sorted.)"""

    def prog(mpi):
        comm = yield from mpi.split(color=mpi.rank % 2)  # world 1 leads [1,3,5]
        seen = []
        for rnd in range(6):
            if comm.rank == 0:
                heard = []
                for _ in range(comm.size - 1):
                    msg = yield from comm.recv(tag=rnd)
                    heard.append((msg.source, msg.data))
                    yield from comm.send(msg.source, nbytes=8, tag=100 + rnd, data=msg.data)
                seen.append(sorted(heard))
            else:
                yield from comm.compute(seconds=0.01 * comm.rank)
                yield from comm.send(0, nbytes=64, tag=rnd, data=(mpi.rank, rnd))
                reply = yield from comm.recv(source=0, tag=100 + rnd)
                seen.append(reply.data)
        total = yield from mpi.allreduce(value=len(seen), nbytes=8)
        return (seen, total)

    clean = run_job(prog, 6, device="v2")
    faulty = run_job(prog, 6, device="v2",
                     faults=ExplicitFaults([(0.06, victim)]), limit=600.0)
    assert faulty.restarts == 1
    assert faulty.results == clean.results
    assert clean.results[1][0] == [[(1, (3, r)), (2, (5, r))] for r in range(6)]
    assert clean.results[5][0] == [(5, r) for r in range(6)]
