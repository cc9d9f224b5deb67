"""Property-based tests (hypothesis) on core invariants."""

import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.clocks import ClockState
from repro.core.sender_log import SenderLog
from repro.ft.failure import ExplicitFaults
from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG, CTX_PT2PT, Envelope
from repro.mpi.matching import MatchEngine
from repro.mpi.requests import RecvRequest
from repro.runtime.mpirun import run_job
from repro.sched import scheme, simulate
from repro.simnet import Host, LinkConfig, Network, Simulator, Stream, Tracer
from repro.simnet.rng import (
    _PCG_MULT, RngRegistry, RngStream, seed_state, ziggurat_tables,
)

slow = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- kernel -------------------------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.after(d, lambda d=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# -- streams: FIFO delivery ------------------------------------------------------


@given(
    st.lists(st.integers(min_value=1, max_value=200_000), min_size=1, max_size=30)
)
@settings(max_examples=30, deadline=None)
def test_stream_fifo_for_any_segment_sizes(sizes):
    sim = Simulator()
    net = Network(sim, LinkConfig(), Tracer(enabled=False))
    a = net.add_host(Host(sim, "a"))
    b = net.add_host(Host(sim, "b"))
    stream = Stream(net, a, b)
    got = []

    def writer():
        for i, n in enumerate(sizes):
            yield from stream.a.write(n, payload=i)

    def reader():
        for _ in sizes:
            _, payload = yield stream.b.read()
            got.append(payload)

    sim.spawn(writer(), "w")
    p = sim.spawn(reader(), "r")
    sim.run_until(p.done)
    assert got == list(range(len(sizes)))


# -- matching ---------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.booleans(),  # True: arrival, False: post a receive
            st.integers(min_value=0, max_value=3),  # src (or wildcard if 3)
            st.integers(min_value=0, max_value=2),  # tag (or wildcard if 2)
        ),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=60, deadline=None)
def test_matching_delivers_every_message_exactly_once(ops):
    sim = Simulator()
    m = MatchEngine()
    seq = 0
    delivered = []
    for is_arrival, src, tag in ops:
        if is_arrival:
            seq += 1
            env = Envelope(
                src=min(src, 2), dst=9, tag=tag, context=CTX_PT2PT,
                nbytes=8, sclock=seq,
            )
            req = m.arrived(env)
            if req is not None:
                delivered.append((env.sclock, req))
        else:
            rsrc = ANY_SOURCE if src == 3 else src
            rtag = ANY_TAG if tag == 2 else tag
            req = RecvRequest(sim, rsrc, rtag, CTX_PT2PT)
            env = m.post(req)
            if env is not None:
                delivered.append((env.sclock, req))
    # no message delivered twice, no request fulfilled twice
    sclocks = [s for s, _ in delivered]
    reqs = [id(r) for _, r in delivered]
    assert len(set(sclocks)) == len(sclocks)
    assert len(set(reqs)) == len(reqs)
    # conservation: arrivals = delivered + still unexpected
    arrivals = sum(1 for a, _, _ in ops if a)
    assert arrivals == len(delivered) + len(m.unexpected)


# -- clocks --------------------------------------------------------------------------


@given(st.lists(st.booleans(), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_clock_sequences_monotonic_and_disjoint(ticks):
    c = ClockState()
    sends, recvs = [], []
    for is_send in ticks:
        if is_send:
            sends.append(c.tick_send())
        else:
            recvs.append(c.tick_recv(0, len(recvs) + 1))
    assert sends == list(range(1, len(sends) + 1))
    assert recvs == list(range(1, len(recvs) + 1))
    assert c.h == len(ticks)


# -- sender log -----------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # dst
            st.integers(min_value=1, max_value=50_000),  # nbytes
        ),
        min_size=1,
        max_size=50,
    ),
    st.integers(min_value=0, max_value=40),
)
@settings(max_examples=50, deadline=None)
def test_sender_log_accounting_invariants(messages, collect_at):
    log = SenderLog(ram_budget=10 << 20, disk_budget=10 << 20)
    sclock = 0
    for dst, nbytes in messages:
        sclock += 1
        log.append(dst, sclock, Envelope(0, dst, 0, 0, nbytes, sclock))
    total = sum(n for _, n in messages)
    assert log.bytes_total == total
    # collect a prefix for destination 0
    freed = log.collect(0, upto_sclock=collect_at)
    remaining = sum(m.env.nbytes for m in log)
    assert freed + remaining == total
    assert log.bytes_total == remaining
    # collected messages are no longer served
    assert all(m.sclock > collect_at for m in log.messages_for(0))


# -- replay determinism -------------------------------------------------------------------


def _ring(mpi, rounds=5):
    nxt = (mpi.rank + 1) % mpi.size
    prv = (mpi.rank - 1) % mpi.size
    token = float(mpi.rank)
    for r in range(rounds):
        sreq = yield from mpi.isend(nxt, nbytes=512, tag=r, data=token)
        rreq = yield from mpi.irecv(source=prv, tag=r)
        yield from mpi.waitall([sreq, rreq])
        token = 0.5 * token + 0.5 * rreq.message.data + 1.0
        yield from mpi.compute(seconds=0.01)
    total = yield from mpi.allreduce(value=token, nbytes=8)
    return round(total, 9)


_RING_BASELINE = {}


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.005, max_value=0.5),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1,
        max_size=3,
    )
)
@slow
def test_replay_determinism_under_random_faults(fault_spec):
    """Theorem 1/2: any fault schedule yields the fault-free result."""
    if "ref" not in _RING_BASELINE:
        _RING_BASELINE["ref"] = run_job(_ring, 4, device="v2").results
    faults = ExplicitFaults([(t, r) for t, r in fault_spec])
    res = run_job(_ring, 4, device="v2", faults=faults, limit=3600.0)
    assert res.results == _RING_BASELINE["ref"]


@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.05, max_value=1.0),
)
@slow
def test_replay_determinism_with_checkpoints(seed, interval):
    if "ck" not in _RING_BASELINE:
        _RING_BASELINE["ck"] = run_job(
            _ring, 4, device="v2", params={"rounds": 12}
        ).results
    from repro.ft.failure import RandomFaults

    res = run_job(
        _ring, 4, device="v2", params={"rounds": 12},
        checkpointing=True, ckpt_interval=interval,
        faults=RandomFaults(interval=0.25, count=2, seed=seed),
        limit=3600.0,
    )
    assert res.results == _RING_BASELINE["ck"]


# -- checkpoint chunker -------------------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=400_000),  # app footprint
    st.lists(st.integers(min_value=0, max_value=9), max_size=30),  # region versions
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # dst
            st.integers(min_value=1, max_value=200_000),  # payload bytes
        ),
        max_size=25,
    ),
    st.integers(min_value=1, max_value=128),  # chunk size in KiB
)
@settings(max_examples=60, deadline=None)
def test_chunker_covers_image_exactly_and_is_stable(
    footprint, versions, saved_spec, chunk_kib
):
    """The two structural guarantees of the content-addressed chunker:
    chunk sizes partition ``image_bytes`` exactly (nothing dropped or
    double-counted, every chunk within the configured bound), and the
    decomposition is deterministic — plus full roundtrip fidelity."""
    from repro.core.replay import CheckpointImage
    from repro.store import assemble_image, chunk_image

    chunk_bytes = chunk_kib << 10
    saved, sclock = [], 0
    for dst, nbytes in saved_spec:
        sclock += 1
        saved.append(
            (dst, sclock,
             Envelope(src=5, dst=dst, tag=0, context=CTX_PT2PT,
                      nbytes=nbytes, sclock=sclock))
        )
    image = CheckpointImage(
        rank=1, seq=3, op_count=7, clock=ClockState(), saved=saved,
        delivery_log=[(2, 1, 1)], app_footprint=footprint,
        regions=tuple(versions),
    )
    m1, c1 = chunk_image(image, chunk_bytes)
    m2, c2 = chunk_image(image, chunk_bytes)
    # determinism: same image, same manifest, same digests
    assert m1 == m2 and set(c1) == set(c2)
    # exact coverage, bounded chunks
    assert sum(ref.nbytes for ref in m1.chunks) == image.image_bytes
    assert all(0 < ref.nbytes <= chunk_bytes for ref in m1.chunks)
    assert all(c1[ref.digest].nbytes == ref.nbytes for ref in m1.chunks)
    # roundtrip fidelity
    back = assemble_image(m1, c1)
    assert back.rank == 1 and back.seq == 3 and back.op_count == 7
    assert back.app_footprint == footprint
    assert back.regions == tuple(versions)
    assert back.delivery_log == [(2, 1, 1)]
    assert sorted(back.saved, key=lambda t: (t[0], t[1])) == \
        sorted(saved, key=lambda t: (t[0], t[1]))
    assert back.image_bytes == image.image_bytes


# -- scheduling policies -----------------------------------------------------------------


@given(
    st.sampled_from(["point_to_point", "all_to_all", "broadcast", "reduce"]),
    st.integers(min_value=4, max_value=24),
    st.floats(min_value=5e5, max_value=5e6),
)
@settings(max_examples=30, deadline=None)
def test_adaptive_never_worse_property(name, n, rate):
    sc = scheme(name, n, rate=rate)
    rr = simulate(sc, "round_robin", horizon=200.0, footprint=4e6)
    ad = simulate(sc, "adaptive", horizon=200.0, footprint=4e6)
    assert ad.ckpt_bandwidth <= rr.ckpt_bandwidth * 1.001


# -- named random streams: numpy's PCG64, draw for draw ---------------------------


# spans above 2**31 make Lemire's rejection loop run about half the time
_span_st = st.one_of(st.integers(1, 2**32 - 1), st.integers(2**31, 2**32 - 1))
_draw_st = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("integers"), st.integers(-(2**40), 2**40), _span_st),
    st.tuples(st.just("choice"), _span_st),
    st.just(("choice", 1)),  # a range of one draws nothing
    st.tuples(st.just("pick"),
              st.lists(st.integers(0, 99), min_size=1, max_size=12)),
)


def _draw(gen, op):
    if op[0] == "random":
        return gen.random()
    if op[0] == "weibull":
        return float(gen.weibull(op[1]))
    if op[0] == "integers":
        return int(gen.integers(op[1], op[1] + op[2]))
    return int(gen.choice(op[1]))  # an int or a list


@given(
    st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**96)),
    st.text(max_size=16),
    st.lists(_draw_st, max_size=60),
)
@settings(max_examples=60, deadline=None)
def test_named_streams_draw_exactly_what_numpy_draws(seed, name, ops):
    # a stream is SeedSequence([seed, crc32(name)]); RandomFaults seeds
    # its own RngStream with the plain int, as default_rng(seed) does
    key = zlib.crc32(name.encode("utf-8"))
    seq = np.random.SeedSequence([seed, key])
    assert seed_state([seed, key]) == seq.generate_state(4, np.uint64).tolist()
    pairs = [
        (RngRegistry(seed).stream(name), np.random.default_rng(seq)),
        (RngStream(seed), np.random.default_rng(seed)),
    ]
    for ours, numpys in pairs:
        assert [_draw(ours, op) for op in ops] == [_draw(numpys, op) for op in ops]


_seed_st = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**96))
# a shape of 0 draws nothing; tiny shapes overflow pow to inf (or 0)
_shape_st = st.one_of(st.just(0.0), st.floats(0.0, 5.0, exclude_min=True),
                      st.sampled_from([0.05, 0.7, 1.0, 2.0, 5.0]))


@given(
    _seed_st,
    st.lists(st.one_of(
        st.tuples(st.just("weibull"), _shape_st),
        st.just(("random",)),
        st.tuples(st.just("integers"), st.integers(-(2**40), 2**40), _span_st),
    ), max_size=80),
)
@settings(max_examples=80, deadline=None)
def test_weibull_draws_exactly_what_numpy_draws(seed, ops):
    """ChurnFaults' lifetimes: numpy's ziggurat exponential to the power
    1/a, interleaved with the other draws, from the same stream."""
    ours, numpys = RngStream(seed), np.random.default_rng(seed)
    assert [_draw(ours, op) for op in ops] == [_draw(numpys, op) for op in ops]
    for a in (-1.0, -0.0):
        with pytest.raises(ValueError, match="a < 0"):
            numpys.weibull(a)
        with pytest.raises(ValueError, match="a < 0"):
            ours.weibull(a)


def test_every_ziggurat_strip_threshold_matches_numpy():
    """Put the 53-bit ``ri`` of the next word at ``ke[idx]-1``, ``ke[idx]``
    and ``ke[idx]+1`` for each of the 256 strips: the accept, reject and
    tail paths around every threshold draw what numpy draws."""
    ke = ziggurat_tables()[0]
    inc = 0x9E3779B97F4A7C15 << 1 | 1
    inv = pow(_PCG_MULT, -1, 1 << 128)
    bitgen = np.random.PCG64(0)
    numpys = np.random.Generator(bitgen)
    probes = 0
    for idx in range(256):
        for ri in range(max(ke[idx] - 1, 0), ke[idx] + 2):
            # a state with a zero high word outputs its low word unrotated;
            # step back one LCG step so that word is the next output
            word = (ri << 8 | idx) << 3 | 5
            prev = (word - inc) * inv % (1 << 128)
            bitgen.state = {"bit_generator": "PCG64", "has_uint32": 0,
                            "uinteger": 0, "state": {"state": prev, "inc": inc}}
            ours = RngStream(0)
            ours._state, ours._inc = prev, inc
            assert (ours.weibull(1.0), ours.random()) == (
                numpys.weibull(1.0), numpys.random()), (idx, ri - ke[idx])
            probes += 1
    assert probes == 767  # ke[1] is 0: no ri below it


@given(
    _seed_st,
    st.lists(st.integers(0, 99), max_size=40).flatmap(
        lambda pop: st.tuples(st.just(pop), st.integers(0, len(pop)))),
)
@settings(max_examples=80, deadline=None)
def test_link_flap_sample_draws_exactly_what_numpy_draws(seed, pop_k):
    """LinkFlapFaults' pair: ``choice(a, size=k, replace=False)``, and the
    stream left where numpy leaves it."""
    pop, k = pop_k
    ours, numpys = RngStream(seed), np.random.default_rng(seed)
    want = [int(v) for v in numpys.choice(pop, size=k, replace=False)]
    assert ours.sample(pop, k) == want
    assert ours.integers(0, 1000) == numpys.integers(0, 1000)


def test_sample_refuses_what_it_does_not_draw_as_numpy():
    with pytest.raises(ValueError):
        RngStream(0).sample(range(10_001), 2)  # numpy shuffles a tail there
    with pytest.raises(ValueError):
        RngStream(0).sample([1, 2], 3)
