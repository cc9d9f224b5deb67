"""The performance-attribution layer: kernel profiler and critical path.

The paper's argument is quantitative — V2's pessimistic sender-based
logging halves V1's logging cost yet still pays a measurable latency tax
(Figures 5-8) — but an end-to-end wall clock cannot say *where* that tax
is paid.  This module decomposes a run three ways:

* :class:`KernelProfiler` — a probe for the simnet event kernel
  (:meth:`~repro.simnet.kernel.Simulator.set_probe`): per-event-kind
  dispatch counts, sampled handler wall time, queue-depth samples and an
  events/sec throughput meter.  Installing it costs ~10% wall clock;
  *not* installing it costs one ``is not None`` test per event in the
  kernel's run loops;
* per-service CPU attribution — sampled process-resume timing classified
  by process name (app ranks, daemons, event loggers, store replicas,
  scheduler, dispatcher), rolled into the paper-style overhead
  decomposition table of ``repro run --observe profile``;
* :func:`critical_path` — the binding-dependency walk over the
  happens-before graph the protocol auditor reconstructs
  (``run_job(..., audit=True, audit_hb=True)``), so a run can answer
  "the slowest chain was send → EL ack → WAITLOGGED clear" with
  per-edge latencies.

Counts are exact; timing and queue depth are sampled (one dispatch in
``sample_every``) and scaled, which keeps the enabled overhead within
the 10% budget while still attributing wall time faithfully over the
millions of events of a CG-class run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional

from ..simnet.kernel import SLOT_NAMES, Simulator, run_slot

__all__ = [
    "KernelProfiler",
    "KernelProfile",
    "classify_service",
    "critical_path",
]


#: process-name prefixes -> service, first match wins (order matters:
#: daemon-side EL client loops are named ``d<rank>.el.*`` and must land
#: on "daemon", not "el")
def classify_service(name: str) -> str:
    """Map a process name to the service it runs under.

    The naming conventions are the spawn sites': app processes are
    ``rank<r>[.i<inc>]``, daemons ``daemon<r>.i<inc>`` with internal
    loops ``d<r>.<label>.i<inc>``, event loggers ``el:<i>.*``, store
    replicas ``cs:<i>.*``, the scheduler ``sched*``, the dispatcher
    ``disp*``, V1 channel memories ``cm*``.  Everything else (fault
    injectors, restart helpers) is ``infra``.
    """
    if name.startswith("rank"):
        return "app"
    if name.startswith("daemon") or (
        name[:1] == "d" and len(name) > 1 and name[1].isdigit()
    ):
        return "daemon"
    if name.startswith("el"):
        return "el"
    if name.startswith("cs") or name.startswith("store"):
        return "store"
    if name.startswith("sched"):
        return "scheduler"
    if name.startswith("disp"):
        return "dispatcher"
    if name.startswith("cm"):
        return "cm"
    return "infra"


def _kind_name(fn: Callable) -> str:
    """A stable, human-readable label for an ``EV_CALL`` callable.

    Callables scheduled through ``Simulator.at``/``after`` are often
    fresh closures (a partition's heal, a supervisor's relaunch), so the
    label comes from the *definition site*: the qualname with module
    noise stripped.
    """
    func = getattr(fn, "__func__", fn)
    qual = getattr(func, "__qualname__", None)
    if qual is None:
        return type(fn).__name__
    return qual.replace(".<locals>", "").removesuffix(".<lambda>")


@dataclass
class KernelProfile:
    """The finished measurement (``JobResult.profile``)."""

    wall_s: float  # wall-clock seconds between install and finish
    sim_s: float  # simulated seconds advanced meanwhile
    events: int  # kernel events dispatched (exact)
    events_per_s: float  # events / wall_s — the BENCH_kernel meter
    sample_every: int
    #: per dispatch kind: {"kind", "count", "wall_s" (scaled), "share"}
    kinds: list[dict[str, Any]] = field(default_factory=list)
    #: per service: {"service", "steps" (scaled), "cpu_s" (scaled), "share"}
    services: list[dict[str, Any]] = field(default_factory=list)
    #: top process names by sampled cpu: {"name", "cpu_s"}
    procs: list[dict[str, Any]] = field(default_factory=list)
    queue_depth: dict[str, float] = field(default_factory=dict)

    def service(self, name: str) -> Optional[dict[str, Any]]:
        """One service's decomposition row, or None."""
        for row in self.services:
            if row["service"] == name:
                return row
        return None

    def to_dict(self) -> dict[str, Any]:
        """A JSON-friendly view (``profile`` in ``repro run --report-out``)."""
        return {
            "wall_s": self.wall_s,
            "sim_s": self.sim_s,
            "events": self.events,
            "events_per_s": self.events_per_s,
            "sample_every": self.sample_every,
            "kinds": list(self.kinds),
            "services": list(self.services),
            "procs": list(self.procs),
            "queue_depth": dict(self.queue_depth),
        }


class KernelProfiler:
    """The kernel probe: install on a simulator, run, finish.

    Dispatch *counts* are exact; handler wall time and queue depth are
    sampled every ``sample_every`` dispatches and scaled at
    :meth:`finish` (deterministic sampling — cheap, and unbiased unless
    the workload's event mix is periodic at exactly the sample stride).
    Process resumes executed inside a sampled dispatch are timed under
    their process name for the service decomposition; off the sampled
    dispatch, a resume pays no probe call at all.
    """

    def __init__(self, sample_every: int = 16) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.events = 0
        #: True while a *sampled* dispatch is executing its handler —
        #: process resumes triggered inside it are timed (Process._step
        #: reads this flag instead of paying a method call per resume)
        self.sampling = False
        # kind key (slot, or a callable's code) -> [label, count,
        # timed_count, wall_s]
        self._kinds: dict[Any, list] = {}
        # slot -> the same stats lists, indexed by position: a slot event
        # pays a list index instead of a dict probe
        self._by_slot: list = []
        self._left = sample_every  # dispatches until the next sample
        self._q_sum = 0
        self._q_max = 0
        self._q_n = 0
        self._svc_cache: dict[str, str] = {}
        self._services: dict[str, list] = {}  # svc -> [steps, cpu_s]
        self._procs: dict[str, float] = {}
        self._sim: Optional[Simulator] = None
        self._t0 = 0.0
        self._sim_t0 = 0.0

    # -- lifecycle ---------------------------------------------------------
    def install(self, sim: Simulator) -> "KernelProfiler":
        """Attach to ``sim`` and start the wall clock; returns self."""
        sim.set_probe(self)
        self._sim = sim
        self._sim_t0 = sim.now
        self._t0 = perf_counter()
        return self

    def finish(self) -> KernelProfile:
        """Detach and build the scaled :class:`KernelProfile`."""
        wall = perf_counter() - self._t0
        sim_s = 0.0
        if self._sim is not None:
            sim_s = self._sim.now - self._sim_t0
            self._sim.set_probe(None)
            self._sim = None
        # exact total: dispatch() counts per kind, summed here so the hot
        # path does not also maintain a separate running total
        self.events = sum(s[1] for s in self._kinds.values())
        kinds = []
        for label, count, timed, wall_k in sorted(
            self._kinds.values(), key=lambda s: -s[3]
        ):
            est = wall_k * (count / timed) if timed else 0.0
            kinds.append(
                {"kind": label, "count": count, "wall_s": est}
            )
        total_kind = sum(k["wall_s"] for k in kinds) or 1.0
        for k in kinds:
            k["share"] = k["wall_s"] / total_kind
        services = []
        for svc, (steps, cpu) in sorted(
            self._services.items(), key=lambda kv: -kv[1][1]
        ):
            services.append(
                {
                    "service": svc,
                    "steps": steps * self.sample_every,
                    "cpu_s": cpu * self.sample_every,
                }
            )
        total_cpu = sum(s["cpu_s"] for s in services) or 1.0
        for s in services:
            s["share"] = s["cpu_s"] / total_cpu
        procs = [
            {"name": n, "cpu_s": c * self.sample_every}
            for n, c in sorted(self._procs.items(), key=lambda kv: -kv[1])[:20]
        ]
        queue = {
            "samples": self._q_n,
            "mean": (self._q_sum / self._q_n) if self._q_n else 0.0,
            "max": self._q_max,
        }
        return KernelProfile(
            wall_s=wall,
            sim_s=sim_s,
            events=self.events,
            events_per_s=self.events / wall if wall > 0 else 0.0,
            sample_every=self.sample_every,
            kinds=kinds,
            services=services,
            procs=procs,
            queue_depth=queue,
        )

    # -- the probe interface (called by the kernel's run loops) --------
    def dispatch(
        self, time: float, slot: int, a: Any, b: Any, qsize: int
    ) -> None:
        """Count, classify and (sampled) time one popped event.

        This runs once per kernel event: the common case is a list
        index, a count bump and a countdown decrement.  The kind key is
        the slot number, labelled from the kernel's ``SLOT_NAMES``
        registry; an ``EV_CALL`` event (slot 0, a bare callable ``a``)
        is keyed by the callable's code object instead and labelled by
        its definition site (int keys never collide with code objects).
        One dispatch in ``sample_every`` additionally records the heap
        depth, times the handler, and raises :attr:`sampling` so process
        resumes executed inside it land in the service decomposition.
        """
        if slot:
            by_slot = self._by_slot
            stats = by_slot[slot] if slot < len(by_slot) else None
            if stats is None:
                by_slot.extend([None] * (slot + 1 - len(by_slot)))
                stats = by_slot[slot] = self._kinds[slot] = [
                    SLOT_NAMES.get(slot, f"slot{slot}"), 0, 0, 0.0
                ]
        else:
            try:
                code = a.__code__
            except AttributeError:
                code = getattr(getattr(a, "__func__", None), "__code__", None)
                if code is None:
                    code = type(a)
            stats = self._kinds.get(code)
            if stats is None:
                stats = self._kinds[code] = [_kind_name(a), 0, 0, 0.0]
        stats[1] += 1
        left = self._left - 1
        if left:
            self._left = left
            run_slot(slot, a, b)
        else:
            self._left = self.sample_every
            self._q_sum += qsize
            self._q_n += 1
            if qsize > self._q_max:
                self._q_max = qsize
            self.sampling = True
            t0 = perf_counter()
            run_slot(slot, a, b)
            dt = perf_counter() - t0
            self.sampling = False
            stats[3] += dt
            stats[2] += 1

    def step_done(self, name: str, dt: float) -> None:
        """Account one timed process resume under its service."""
        svc = self._svc_cache.get(name)
        if svc is None:
            svc = self._svc_cache[name] = classify_service(name)
        agg = self._services.get(svc)
        if agg is None:
            agg = self._services[svc] = [0, 0.0]
        agg[0] += 1
        agg[1] += dt
        self._procs[name] = self._procs.get(name, 0.0) + dt


# -- critical path over the happens-before graph ---------------------------

#: tie-break priority when two predecessors finish at the same instant:
#: attribute the wait to the protocol edge, not local program order
_EDGE_PRIO = {"el": 2, "message": 1, "program": 0}


def _node_brief(n: dict[str, Any]) -> dict[str, Any]:
    out = {"id": n["id"], "rank": n["rank"], "op": n["op"], "time": n["time"]}
    for k in ("src", "dst", "sclock", "rclock"):
        if k in n:
            out[k] = n[k]
    return out


def critical_path(hb: dict[str, Any]) -> dict[str, Any]:
    """Extract the zero-slack chain from a happens-before graph.

    ``hb`` is ``AuditReport.hb`` (``run_job(..., audit=True,
    audit_hb=True)``): nodes are protocol events (tx, deliver,
    log_event, el_ack) with times, edges are program order, message
    transfers and EL log→ack round trips.  Starting from the
    latest-finishing node, each step follows the *latest-arriving*
    predecessor — the dependency that actually determined when the event
    could happen — so per-edge latencies along the returned chain sum to
    the protocol span, and their aggregation by category says where the
    time went (``el-ack`` is the WAITLOGGED tax the paper prices).
    """
    nodes = hb.get("nodes") or []
    edges = hb.get("edges") or []
    empty = {
        "span_s": 0.0,
        "steps": [],
        "contributions": [],
        "top_contributor": None,
        "end": None,
    }
    if not nodes:
        return empty
    preds: dict[int, list[tuple[int, str]]] = {}
    for e in edges:
        preds.setdefault(e["to"], []).append((e["from"], e["kind"]))
    end = max(nodes, key=lambda n: (n["time"], n["id"]))["id"]
    steps: list[dict[str, Any]] = []
    cur = end
    while True:
        ps = preds.get(cur)
        if not ps:
            break
        frm, kind = max(
            ps,
            key=lambda pk: (
                nodes[pk[0]]["time"], _EDGE_PRIO.get(pk[1], 0), pk[0]
            ),
        )
        src_n, dst_n = nodes[frm], nodes[cur]
        if kind == "el" or dst_n["op"] == "el_ack":
            # either the full log->ack round trip, or the residual wait
            # (last local activity -> ack arrival): both are time spent
            # waiting on the event logger's acknowledgement
            cat = "el-ack"
        elif kind == "message":
            cat = "message"
        else:
            cat = f"local-{dst_n['op']}"
        steps.append(
            {
                "from": _node_brief(src_n),
                "to": _node_brief(dst_n),
                "kind": kind,
                "category": cat,
                "latency_s": dst_n["time"] - src_n["time"],
            }
        )
        cur = frm
    steps.reverse()
    agg: dict[str, list] = {}
    for s in steps:
        a = agg.setdefault(s["category"], [0, 0.0])
        a[0] += 1
        a[1] += s["latency_s"]
    span = sum(s["latency_s"] for s in steps)
    contributions = [
        {
            "category": cat,
            "edges": n,
            "latency_s": lat,
            "share": (lat / span) if span > 0 else 0.0,
        }
        for cat, (n, lat) in sorted(agg.items(), key=lambda kv: -kv[1][1])
    ]
    return {
        "span_s": span,
        "steps": steps,
        "contributions": contributions,
        "top_contributor": contributions[0]["category"] if contributions else None,
        "end": _node_brief(nodes[end]),
    }
