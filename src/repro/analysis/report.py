"""Plain-text tables for the benchmark harness output."""

from __future__ import annotations

from typing import Any, Optional, Sequence

__all__ = [
    "format_table", "format_stats", "format_audit",
    "format_mttr", "format_profile", "Report",
]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Render an aligned ASCII table."""

    def cell(x: Any) -> str:
        if isinstance(x, float):
            if x == 0:
                return "0"
            if abs(x) >= 1000:
                return f"{x:,.0f}"
            if abs(x) >= 10:
                return f"{x:.1f}"
            return f"{x:.3f}"
        return str(x)

    grid = [[cell(h) for h in headers]] + [[cell(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in grid) for i in range(len(headers))]
    lines = []
    for j, row in enumerate(grid):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


#: the per-rank columns of ``format_stats``: the mechanism signals the
#: paper's figures are built from, in presentation order
RANK_STAT_COLUMNS = (
    "dev.msgs_sent",
    "dev.bytes_sent",
    "el.roundtrips",
    "gate.stall_s",
    "senderlog.bytes",
    "senderlog.spill_bytes",
    "deliveries.replayed",
    "deliveries.fresh",
    "ckpt.bytes",
)


def format_stats(
    metrics: Any,
    prefix: Optional[str] = None,
    top: Optional[int] = None,
) -> str:
    """Render a metrics registry: per-rank mechanism table + totals.

    ``metrics`` is a :class:`~repro.obs.registry.Metrics`; the per-rank
    columns are :data:`RANK_STAT_COLUMNS` (metrics a run never touched
    show 0).  ``prefix`` keeps only metrics under one namespace
    (``"el."``, ``"session."``, ...; the per-rank columns are filtered
    too), and ``top`` keeps only the N largest totals instead of the
    full alphabetical dump.
    """
    columns = list(RANK_STAT_COLUMNS)
    if prefix is not None:
        columns = [c for c in columns if c.startswith(prefix)]
    by_rank = metrics.by_label("rank")
    blocks: list[str] = []
    if by_rank and columns:
        rows = [
            [rank] + [by_rank[rank].get(c, 0.0) for c in columns]
            for rank in sorted(by_rank)
        ]
        blocks.append(format_table(["rank"] + columns, rows))
    totals = metrics.snapshot()
    if prefix is not None:
        totals = {n: v for n, v in totals.items() if n.startswith(prefix)}
    if totals:
        if top is not None:
            names = [
                n for n, _ in sorted(
                    totals.items(), key=lambda kv: (-abs(kv[1]), kv[0])
                )[:top]
            ]
        else:
            names = sorted(totals)
        blocks.append(
            format_table(
                ["metric", "total"],
                [[name, totals[name]] for name in names],
            )
        )
    return "\n\n".join(blocks) if blocks else "(no metrics recorded)"


def format_mttr(attribution: Any) -> str:
    """Render a :class:`~repro.obs.timeline.RecoveryAttribution`.

    One headline block (MTTR distribution, span accounting, the
    reconciliation error), a per-fault phase-decomposition table, the
    aggregate per-phase p50/p95 table, and the
    recovery traffic totals (the CLI prints detection latency by source).
    """
    if attribution is None:
        return "(no attribution: run with trace=True)"
    att = attribution
    if not att.spans:
        return "(no faults: nothing to attribute)"

    def opt(x: Any) -> Any:
        return "-" if x is None else x

    mttr = att.mttr()
    head = (
        f"recoveries: {len(att.completed)} completed, "
        f"{len(att.aborted)} aborted, {len(att.incomplete)} incomplete"
    )
    if mttr["n"]:
        head += (
            f"\nMTTR: p50 {mttr['p50']:.3f}s  p95 {mttr['p95']:.3f}s  "
            f"mean {mttr['mean']:.3f}s  max {mttr['max']:.3f}s"
        )
        err = max(
            (e for s in att.completed
             if (e := att.reconcile(s)) is not None),
            default=0.0,
        )
        head += f"\nphase sums reconcile with recovery_s to {err:.2e}s"
    blocks = [head]
    rows = []
    cols = ("detect", "respawn", "fetch", "el_download", "resync", "replay")
    for s in att.spans:
        b = att.breakdown(s)
        status = "ok"
        if s.aborted:
            status = f"aborted:{s.aborted_by}"
        elif not s.completed:
            status = "incomplete"
        rows.append([s.rank, opt(s.host), opt(s.incarnation), s.fault_t,
                     opt(s.detect_source), *(opt(b[c]) for c in cols),
                     opt(s.recovery_s), status])
    blocks.append(
        "per-fault phase decomposition (seconds):\n"
        + format_table(
            ["rank", "host", "inc", "fault t", "source", "detect", "respawn",
             "fetch", "el-dl", "resync", "replay", "recovery", "status"],
            rows,
        )
    )
    phases = att.phase_stats()
    prows = [
        [p, st["n"], opt(st["p50"]), opt(st["p95"]), opt(st["mean"]),
         opt(st["max"])]
        for p, st in phases.items()
    ]
    blocks.append(
        "per-phase distribution over completed recoveries:\n"
        + format_table(["phase", "n", "p50 s", "p95 s", "mean s", "max s"],
                       prows)
    )
    totals = att.totals()
    blocks.append(
        "recovery traffic totals: "
        f"fetch {totals['fetch_bytes']:,} B in {totals['fetch_chunks']} "
        f"chunks ({totals['fetch_failovers']} failovers, "
        f"{totals['fetch_retries']} retries), "
        f"EL {totals['el_events']} events ({totals['el_retries']} retries, "
        f"{totals['el_failovers']} replica failovers), "
        f"{totals['resync_peers']} peer resyncs"
    )
    return "\n\n".join(blocks)


def format_audit(report: Any) -> str:
    """Render an :class:`~repro.obs.audit.AuditReport` as display text.

    One header line with the verdict and the events seen, a per-rule
    check/violation table, and — when there are violations — one row per
    violation with its rank and detail.
    """
    if report is None:
        return "(no audit: run with audit=True)"
    head = f"audit verdict: {report.verdict}  (events={report.events_seen})"
    rule_rows = [
        [rule, report.checks.get(rule, 0), report.count(rule)]
        for rule in sorted(report.checks)
    ]
    blocks = [head, format_table(["rule", "checks", "violations"], rule_rows)]
    if report.violations:
        vrows = [
            [f"{v.time:.3f}", v.rule, v.rank, v.detail]
            for v in report.violations
        ]
        blocks.append(format_table(["time s", "rule", "rank", "detail"], vrows))
    return "\n\n".join(blocks)


def format_profile(
    profile: Any,
    critical: Optional[dict] = None,
    elapsed: Optional[float] = None,
) -> str:
    """Render a :class:`~repro.obs.profile.KernelProfile` as display text.

    One headline block (events, events/sec, wall vs simulated time,
    queue depth), the per-service CPU decomposition, the ten hottest
    event kinds, and — when ``critical`` (a :func:`~repro.obs.profile.
    critical_path` result) is given — the per-category latency
    contributions plus the tail of the binding chain.
    """
    if profile is None:
        return "(no profile: run with profile=True)"
    q = profile.queue_depth or {}
    head = (
        f"kernel: {profile.events:,} events in {profile.wall_s:.3f}s wall "
        f"({profile.events_per_s:,.0f} events/s), "
        f"{profile.sim_s:.3f}s simulated"
    )
    if elapsed is not None:
        head += f", job elapsed {elapsed:.3f}s"
    head += (
        f"\nheap depth: mean {q.get('mean', 0.0):.1f}, max {q.get('max', 0)}"
        f"  (sampled 1/{profile.sample_every})"
    )
    blocks = [head]
    if profile.services:
        blocks.append(
            "service CPU decomposition (sampled, scaled):\n"
            + format_table(
                ["service", "steps", "cpu s", "share %"],
                [
                    [s["service"], s["steps"], s["cpu_s"], 100.0 * s["share"]]
                    for s in profile.services
                ],
            )
        )
    kinds = profile.kinds[:10]
    if kinds:
        blocks.append(
            f"top {len(kinds)} event kinds by wall time:\n"
            + format_table(
                ["kind", "count", "wall s", "share %"],
                [
                    [k["kind"], k["count"], k["wall_s"], 100.0 * k["share"]]
                    for k in kinds
                ],
            )
        )
    if critical is not None:
        steps = critical.get("steps") or []
        if not steps:
            blocks.append("critical path: (empty happens-before graph)")
        else:
            blocks.append(
                f"critical path: {len(steps)} edges spanning "
                f"{critical['span_s']:.3f}s, "
                f"top contributor: {critical['top_contributor']}\n"
                + format_table(
                    ["category", "edges", "latency s", "share %"],
                    [
                        [c["category"], c["edges"], c["latency_s"],
                         100.0 * c["share"]]
                        for c in critical["contributions"]
                    ],
                )
            )
            tail = steps[-min(8, len(steps)):]
            rows = [
                [
                    f"{s['from']['time']:.4f}",
                    f"r{s['from']['rank']}:{s['from']['op']}",
                    "->",
                    f"r{s['to']['rank']}:{s['to']['op']}",
                    s["category"],
                    s["latency_s"],
                ]
                for s in tail
            ]
            blocks.append(
                f"chain tail (last {len(tail)} of {len(steps)} edges):\n"
                + format_table(
                    ["t from", "from", "", "to", "category", "latency s"],
                    rows,
                )
            )
    return "\n\n".join(blocks)


class Report:
    """A titled block of text collected by the benchmark harness."""

    def __init__(self, title: str) -> None:
        self.title = title
        self.blocks: list[str] = []

    def add(self, text: str) -> "Report":
        """Append a text block; returns self for chaining."""
        self.blocks.append(text)
        return self

    def table(self, headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> "Report":
        """Append an aligned table block; returns self for chaining."""
        return self.add(format_table(headers, rows))

    def render(self) -> str:
        """The full report as display-ready text."""
        bar = "=" * max(len(self.title), 40)
        return f"\n{bar}\n{self.title}\n{bar}\n" + "\n\n".join(self.blocks) + "\n"
