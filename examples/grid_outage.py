#!/usr/bin/env python3
"""Grid outage: a whole cluster disconnects from the Grid and rejoins.

The paper motivates MPICH-V2 with exactly this scenario: "An example of
massive lost of nodes in a Grid infrastructure is when all the nodes of
a cluster disconnect the system due to a network connection failure
between the cluster and the rest of the Grid. Note that conversely, a
cluster may join the Grid and continue the execution of the lost MPI
processes."

Here a NAS-CG-style solver runs across two *sites* (a real multi-site
topology: inter-site traffic crosses a slow wide-area link), described
by a Section-4.7-style machine file.  Site beta drops off the Grid in
one instant — four concurrent failures — and its ranks are restarted on
the spare machines of site gamma (the replacement cluster joining the
Grid).  The job completes with the identical numerical result.

Checkpoints go to a *replicated* content-addressed store: three
checkpoint-server replicas with write quorum 2, pushing incrementally
(only chunks a replica is missing travel).  The restarted ranks stream
their images back from whichever replicas answer.  The sites talk over
gigabit ethernet rather than the paper's Fast Ethernet — on the slower
wire a full cycle of image pushes takes longer than this short
verification job runs, and nobody would have a checkpoint to restart
from.

Run:  python examples/grid_outage.py
"""

from repro.ft.failure import ExplicitFaults
from repro.runtime.config import DEFAULT_TESTBED
from repro.runtime.mpirun import run_job
from repro.runtime.progfile import parse_progfile
from repro.simnet.network import LinkConfig
from repro.workloads import nas

MACHINES = """
# site alpha: the home cluster (also hosts the reliable services)
alpha1  CN  site=alpha
alpha2  CN  site=alpha
alpha3  CN  site=alpha
alpha4  CN  site=alpha
# site beta: a remote cluster lending four machines
beta1   CN  site=beta
beta2   CN  site=beta
beta3   CN  site=beta
beta4   CN  site=beta
# site gamma: a cluster that will join the Grid when beta is lost
gamma1  SPARE site=gamma
gamma2  SPARE site=gamma
gamma3  SPARE site=gamma
gamma4  SPARE site=gamma
frontend EL  site=alpha
storage  CS  site=alpha
"""


def main() -> None:
    params = {"klass": "T"}  # the verification class: real numpy arithmetic
    # three checkpoint-store replicas, durable at two, incremental pushes,
    # on a gigabit wire (see the docstring)
    cfg = DEFAULT_TESTBED.with_(
        ckpt_servers=3, ckpt_replicas=2, ckpt_incremental=True,
        link=LinkConfig(bandwidth=125e6),
    )

    print("== reference run on the two-site Grid (no outage)")
    ref = run_job(nas.cg.program, 8, device="v2", cfg=cfg,
                  plan=parse_progfile(MACHINES), params=params)
    print(f"   CG checksum = {ref.results[0].checksum}   "
          f"elapsed = {ref.elapsed:.2f} s")

    print("== site beta (ranks 4..7) disconnects mid-run;")
    print("   site gamma joins the Grid and picks the ranks up")
    # The checkpointed run is markedly slower than the bare reference
    # (every image cycle crosses the wide-area link), so scale the
    # outage instant up from the reference elapsed: it must land after
    # site beta's first checkpoint cycle has committed — otherwise the
    # restarted ranks would have no image to stream back — and before
    # the job ends.
    outage_time = 1.4 * ref.elapsed
    faults = ExplicitFaults([(outage_time, r) for r in range(4, 8)])
    res = run_job(
        nas.cg.program, 8, device="v2", cfg=cfg,
        plan=parse_progfile(MACHINES), params=params,
        checkpointing=True, ckpt_policy="round_robin",
        ckpt_continuous=True,
        faults=faults, limit=3600.0,
    )
    disp = res.extras["dispatcher"]
    hosts = [(disp.states[r].host.name, disp.states[r].host.site)
             for r in range(4, 8)]
    m = res.metrics
    print(f"   ranks 4..7 now run on: {hosts}")
    print(f"   CG checksum = {res.results[0].checksum}   "
          f"restarts={res.restarts}   checkpoints={res.checkpoints}   "
          f"elapsed = {res.elapsed:.2f} s")
    print(f"   store: {len(res.extras['checkpoint_servers'])} replicas "
          f"(write quorum {cfg.ckpt_replicas}), "
          f"pushed {m.total('store.push_bytes') / 1e6:.2f} MB, "
          f"deduped {m.total('store.dedup_bytes') / 1e6:.2f} MB, "
          f"fetched {m.total('store.fetch_bytes') / 1e6:.2f} MB, "
          f"failovers {int(m.total('store.failover'))}")

    assert res.results[0].checksum == ref.results[0].checksum
    assert all(site == "gamma" for _, site in hosts)
    assert len(res.extras["checkpoint_servers"]) == 3
    # at least one restarted rank streamed its image back from the store
    assert m.total("store.fetch_bytes") > 0
    print("\nFour concurrent failures, four re-executions on a freshly")
    print("joined cluster, identical result: the pessimistic logging")
    print("protocol needed no coordination and rolled back nobody else.")


if __name__ == "__main__":
    main()
