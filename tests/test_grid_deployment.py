"""Grid deployments: multi-site topologies (the paper's future work).

"Future works will consider ... test[ing] MPICH-V2 on large clusters and
Grid deployments."  Hosts carry a site label; traffic between sites runs
over wide-area latency/bandwidth.
"""

import pytest

from repro.ft.failure import ExplicitFaults
from repro.runtime.cluster import Cluster
from repro.runtime.mpirun import run_job
from repro.runtime.progfile import parse_progfile
from repro.simnet.kernel import EV_CALL

#: an arrival event that does nothing: ``transfer``'s flat ``slot, a, b``
NOOP = (EV_CALL, lambda: None, None)

TWO_SITE_PROGFILE = """
a1 CN site=alpha
a2 CN site=alpha
b1 CN site=beta
b2 CN site=beta
bx SPARE site=beta
fe EL site=alpha
st CS site=alpha
"""


def test_inter_site_transfer_is_slower():
    cluster = Cluster()
    a = cluster.add_cn("a", site="alpha")
    b = cluster.add_cn("b", site="alpha")
    c = cluster.add_cn("c", site="alpha")
    d = cluster.add_cn("d", site="beta")
    t_lan = cluster.net.transfer(a, b, 100_000, *NOOP)
    t_wan = cluster.net.transfer(c, d, 100_000, *NOOP)
    # the 6 MB/s WAN path is slower than the 11.4 MB/s LAN by ~2x plus
    # the extra propagation delay
    assert t_wan > 1.7 * t_lan
    assert t_wan - t_lan > cluster.cfg.link.wan_latency / 2


def test_same_site_unaffected_by_wan_params():
    cluster = Cluster()
    a = cluster.add_cn("a")
    b = cluster.add_cn("b")
    t = cluster.net.transfer(a, b, 1000, *NOOP)
    assert t == pytest.approx(cluster.net.one_way_time(1000))


def ring(mpi, rounds=6):
    nxt, prv = (mpi.rank + 1) % mpi.size, (mpi.rank - 1) % mpi.size
    token = float(mpi.rank)
    for r in range(rounds):
        sreq = yield from mpi.isend(nxt, nbytes=2000, tag=r, data=token)
        rreq = yield from mpi.irecv(source=prv, tag=r)
        yield from mpi.waitall([sreq, rreq])
        token = 0.5 * token + 0.5 * rreq.message.data + 1.0
        yield from mpi.compute(seconds=0.01)
    total = yield from mpi.allreduce(value=round(token, 9), nbytes=8)
    return round(total, 9)


def test_grid_job_slower_than_single_cluster():
    plan = parse_progfile(TWO_SITE_PROGFILE)
    grid = run_job(ring, 4, device="v2", plan=plan)
    local = run_job(ring, 4, device="v2")
    assert grid.results == local.results  # same math
    assert grid.elapsed > 1.25 * local.elapsed  # WAN hops on the ring


def test_grid_site_failure_recovers_on_site_spare():
    plan = parse_progfile(TWO_SITE_PROGFILE)
    expect = run_job(ring, 4, device="v2", plan=parse_progfile(TWO_SITE_PROGFILE)).results
    res = run_job(
        ring, 4, device="v2", plan=plan,
        faults=ExplicitFaults([(0.05, 2)]),  # b1, on the remote site
        limit=600.0,
    )
    assert res.restarts == 1
    assert res.results == expect
    disp = res.extras["dispatcher"]
    assert disp.states[2].host.name == "bx"
    assert disp.states[2].host.site == "beta"
