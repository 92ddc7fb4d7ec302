"""Render reports from telemetry trace files.

Pure consumers of the :func:`repro.telemetry.trace.read_trace` record
stream — no simulator imports, so traces can be inspected anywhere.  The
loader is streaming: packet events are folded into counters/histograms as
they are read, so multi-million-event traces never materialise in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.telemetry.blame import STALL_CLASSES
from repro.telemetry.hist import LogHistogram
from repro.telemetry.trace import PACKET_EVENTS, read_trace

#: histogram keys are (net, cls) name pairs, e.g. ("reply", "CPU").
HistKey = Tuple[str, str]


@dataclass
class TraceSummary:
    """Everything the renderers need, folded out of one trace pass."""

    path: str = ""
    meta: Dict = field(default_factory=dict)
    events: Dict[str, int] = field(default_factory=dict)
    hists: Dict[HistKey, LogHistogram] = field(default_factory=dict)
    windows: List[Dict] = field(default_factory=list)
    episodes: List[Dict] = field(default_factory=list)
    #: per-(net, router, port, class) stall-attribution records.
    stalls: List[Dict] = field(default_factory=list)
    summary: Optional[Dict] = None
    #: total records read — 0 distinguishes an empty/unreadable trace.
    records: int = 0
    #: the file ends before its writer finished it (a run killed
    #: mid-trace, a torn dump): what was read is reported, and says so.
    truncated: bool = False


def load_summary(path: Union[str, Path]) -> TraceSummary:
    """Fold a trace file into a :class:`TraceSummary`.

    Full-population ``hist`` records (written at finalize) take precedence
    over histograms rebuilt from (possibly sampled) ``deliver`` events;
    the rebuilt ones only back-fill truncated traces.
    """
    out = TraceSummary(path=str(path))
    out.events = {name: 0 for name in PACKET_EVENTS}
    sampled: Dict[HistKey, LogHistogram] = {}
    exact: Dict[HistKey, LogHistogram] = {}
    for record in read_trace(path):
        out.records += 1
        kind = record.get("rec")
        if kind is None:  # packet event
            event = record["ev"]
            out.events[event] = out.events.get(event, 0) + 1
            if event == "deliver" and "value" in record:
                key = (record["net"], record["cls"])
                hist = sampled.get(key)
                if hist is None:
                    hist = sampled[key] = LogHistogram()
                hist.record(record["value"])
        elif kind == "win":
            out.windows.append(record)
        elif kind == "clog":
            out.episodes.append(record)
        elif kind == "stall":
            out.stalls.append(record)
        elif kind == "hist":
            exact[(record["net"], record["cls"])] = LogHistogram.from_dict(record)
        elif kind == "meta":
            out.meta = record
        elif kind == "summary":
            out.summary = record
    out.hists = dict(sampled)
    out.hists.update(exact)
    # a trace closes with its summary record; a flight dump's meta says
    # how many events follow it
    if "dump" in out.meta:
        out.truncated = (
            sum(out.events.values()) < out.meta.get("events_retained", 0)
        )
    else:
        out.truncated = out.summary is None
    return out


# ---------------------------------------------------------------------------
# views: payload_X folds the summary into one JSON-able dict (what
# ``--format json`` prints); render_X prints that dict as a table
# ---------------------------------------------------------------------------


def _episodes(s: TraceSummary) -> List[Dict]:
    return sorted(s.episodes, key=lambda e: (e["start"], e["node"]))


def payload_report(s: TraceSummary) -> Dict:
    """The ``report`` view: meta, event totals, per-class latency rows."""
    payload = {
        "path": s.path,
        "meta": dict(s.meta),
        "records": s.records,
        "truncated": s.truncated,
        "events": {k: v for k, v in s.events.items() if v},
        "latency": [
            {"net": net, "cls": cls, **hist.summary()}
            for (net, cls), hist in sorted(s.hists.items())
        ],
        "windows": len(s.windows),
        "episodes": len(s.episodes),
    }
    if s.episodes:
        payload["worst_episode"] = max(
            s.episodes, key=lambda e: e.get("severity", 0.0)
        )
    return payload


def payload_hist(
    s: TraceSummary,
    net: Optional[str] = None,
    cls: Optional[str] = None,
) -> Dict:
    """The ``hist`` view: per-(net, class) summaries plus full buckets,
    optionally filtered by net/class."""
    rows = [
        {"net": hnet, "cls": hcls, "summary": hist.summary(),
         "hist": hist.to_dict()}
        for (hnet, hcls), hist in sorted(s.hists.items())
        if net in (None, hnet) and cls in (None, hcls)
    ]
    return {"path": s.path, "histograms": rows}


def payload_timeline(s: TraceSummary) -> Dict:
    """The ``timeline`` view: the raw per-window records."""
    return {"path": s.path, "windows": list(s.windows)}


def payload_events(s: TraceSummary) -> Dict:
    """The ``events`` view: the clogging-episode records."""
    return {"path": s.path, "episodes": _episodes(s)}


def payload_blame(s: TraceSummary) -> Dict:
    """The ``blame`` view: stall records folded per (net, router) over
    ports and traffic classes, worst first; memory-side pressure per
    node; the episodes with their root causes."""
    routers: Dict[Tuple[str, int], Dict[str, int]] = {}
    mem_rows: Dict[int, List[int]] = {}
    for rec in s.stalls:
        net, rid = rec["net"], rec["router"]
        if net == "mem":
            row = mem_rows.setdefault(rid, [0, 0])
            row[min(1, rec["port"])] += sum(rec["classes"].values())
            continue
        agg = routers.setdefault((net, rid), {})
        for name, n in rec["classes"].items():
            agg[name] = agg.get(name, 0) + n
    router_rows = [
        {"net": net, "router": rid, "total": sum(agg.values()),
         "classes": dict(agg)}
        for (net, rid), agg in sorted(
            routers.items(), key=lambda kv: (-sum(kv[1].values()), kv[0])
        )
    ]
    mem = [
        {"node": node, "inject_blocked": blocked, "drain_refused": refused}
        for node, (blocked, refused) in sorted(mem_rows.items())
    ]
    return {
        "path": s.path,
        "meta": dict(s.meta),
        "stall_attribution": s.meta.get("stall_attribution", True),
        "routers": router_rows,
        "mem": mem,
        "episodes": _episodes(s),
    }


def _bar(value: float, width: int = 12) -> str:
    filled = min(width, max(0, round(value * width)))
    return "#" * filled + "." * (width - filled)


def render_report(p: Dict) -> str:
    """The headline view, from :func:`payload_report`."""
    meta = p["meta"]
    lines = [f"telemetry report: {p['path']}"]
    if meta:
        lines.append(
            f"  {meta.get('nodes', '?')} nodes, mem nodes "
            f"{meta.get('mem_nodes', [])}, sample rate "
            f"{meta.get('sample_rate', 1.0)}, probe interval "
            f"{meta.get('probe_interval', '?')}"
        )
    if p["truncated"]:
        lines.append("  truncated trace: it ends before its closing record")
    counts = ", ".join(f"{k}={v}" for k, v in p["events"].items())
    lines.append(f"  events: {counts or 'none'}")
    lines.append("")
    lines.append("  latency percentiles (cycles) per network / class:")
    header = (
        f"  {'net':<8} {'cls':<4} {'count':>8} {'mean':>8} "
        f"{'p50':>7} {'p95':>7} {'p99':>7} {'p99.9':>8} {'max':>7}"
    )
    lines.append(header)
    if not p["latency"]:
        lines.append("  (no delivered packets recorded)")
    for info in p["latency"]:
        lines.append(
            f"  {info['net']:<8} {info['cls']:<4} {info['count']:>8} "
            f"{info['mean']:>8.1f} "
            f"{info['p50']:>7.0f} {info['p95']:>7.0f} {info['p99']:>7.0f} "
            f"{info['p99.9']:>8.0f} {info['max']:>7}"
        )
    lines.append("")
    lines.append(
        f"  windows: {p['windows']}   clogging episodes: {p['episodes']}"
    )
    worst = p.get("worst_episode")
    if worst:
        lines.append(
            f"  worst episode: node {worst['node']} cycles "
            f"{worst['start']}-{worst['end']} severity {worst['severity']}"
        )
    return "\n".join(lines)


def render_hist(p: Dict) -> str:
    """ASCII latency histograms, from :func:`payload_hist`."""
    lines: List[str] = []
    for row in p["histograms"]:
        info = row["summary"]
        lines.append(
            f"{row['net']}/{row['cls']}: n={info['count']} mean={info['mean']} "
            f"p50={info['p50']:.0f} p99={info['p99']:.0f}"
        )
        lines.append(LogHistogram.from_dict(row["hist"]).ascii())
        lines.append("")
    return "\n".join(lines).rstrip() or "(no matching histograms)"


def render_timeline(p: Dict) -> str:
    """Per-window link-occupancy / injection-rate timeline, from
    :func:`payload_timeline`."""
    windows = p["windows"]
    if not windows:
        return "(no window records in trace)"
    net_names = sorted(windows[0].get("nets", {}))
    header = f"{'cycle':>8}  " + "".join(
        f"{name + ' util':>22}  " for name in net_names
    ) + f"{'inj/cyc':>8}  {'mem occ(max)':>18}"
    lines = [header]
    for win in windows:
        cells = [f"{win['cycle']:>8}  "]
        for name in net_names:
            util = win["nets"].get(name, {}).get("link_util", 0.0)
            cells.append(f"{util:>7.3f} [{_bar(util)}]  ")
        cells.append(f"{win.get('inj_rate', 0.0):>8.3f}  ")
        mem = win.get("mem", {})
        if mem:
            occ = max(entry.get("occ", 0.0) for entry in mem.values())
            cells.append(f"{occ:>4.2f} [{_bar(occ)}]")
        lines.append("".join(cells).rstrip())
    return "\n".join(lines)


def _chain_text(chain: List[Dict]) -> str:
    """One blame chain as ``node(class) -> ... -> node[class]``."""
    parts = []
    for i, hop in enumerate(chain):
        node, klass = hop.get("node", "?"), hop.get("class", "?")
        if i == len(chain) - 1:
            parts.append(f"{node}[{klass}]")
        else:
            parts.append(f"{node}({klass})")
    return " -> ".join(parts)


def render_blame(p: Dict) -> str:
    """Stall-attribution view, from :func:`payload_blame`: per-router
    blame matrix, mesh heatmap, memory-side pressure counters and the
    episode root-cause table."""
    routers, mem_rows, episodes = p["routers"], p["mem"], p["episodes"]
    if not routers and not mem_rows:
        if p["stall_attribution"] is False:
            return "stall attribution was disabled for this trace"
        return "no stall records in trace (nothing ever blocked)"
    node_total: Dict[int, int] = {}
    for row in routers:
        rid = row["router"]
        node_total[rid] = node_total.get(rid, 0) + row["total"]
    lines = [f"blame report: {p['path']}", ""]
    cols = [c for c in STALL_CLASSES
            if any(c in row["classes"] for row in routers)]
    lines.append("  per-router stall cycles (blocked head-worm cycles "
                 "by class; top 12 by total):")
    header = f"  {'net':<8} {'router':>6} {'total':>9}"
    for c in cols:
        header += f" {c:>13}"
    lines.append(header)
    for row in routers[:12]:
        line = f"  {row['net']:<8} {row['router']:>6} {row['total']:>9}"
        for c in cols:
            line += f" {row['classes'].get(c, 0):>13}"
        lines.append(line)
    if len(routers) > 12:
        lines.append(f"  ... {len(routers) - 12} more routers with stalls")
    mesh = p["meta"].get("mesh")
    if mesh and node_total:
        width, height = mesh
        mem_nodes = set(p["meta"].get("mem_nodes", []))
        values = [float(node_total.get(n, 0)) for n in range(width * height)]
        roles = ["M" if n in mem_nodes else "G" for n in range(width * height)]
        peak = int(max(values))
        lines.append("")
        lines.append("  mesh stall heatmap (shade ~ total stall cycles; "
                     f"peak router = {peak}):")
        # imported lazily: the reader CLI stays trace-only until a mesh
        # view is actually drawn
        from repro.noc.analysis import render_value_heatmap

        for hline in render_value_heatmap(
            values, width, height, roles=roles
        ).splitlines():
            lines.append("  " + hline)
    if mem_rows:
        lines.append("")
        lines.append("  memory-node reply-buffer pressure (cycles):")
        lines.append(f"  {'node':>6} {'inject-blocked':>15} {'drain-refused':>14}")
        for row in mem_rows:
            lines.append(f"  {row['node']:>6} {row['inject_blocked']:>15} "
                         f"{row['drain_refused']:>14}")
    lines.append("")
    if not episodes:
        lines.append("  no clogging episodes detected")
    else:
        attributed = sum("root_cause" in e for e in episodes)
        lines.append(f"  episode root causes ({attributed}/"
                     f"{len(episodes)} episodes attributed):")
        lines.append(
            f"  {'node':>6} {'start':>9} {'end':>9} {'severity':>9} "
            f"{'root cause':>12} {'chains':>7} {'depth':>6}  victims"
        )
        best_sample = None
        best_depth = 0
        for e in episodes:
            rc = e.get("root_cause")
            if rc is None:
                lines.append(
                    f"  {e['node']:>6} {e['start']:>9} {e['end']:>9} "
                    f"{e['severity']:>9.3f} {'-':>12} {'-':>7} {'-':>6}"
                )
                continue
            victims = ", ".join(
                f"{k}:{v}" for k, v in sorted(rc.get("victims", {}).items())
            )
            lines.append(
                f"  {e['node']:>6} {e['start']:>9} {e['end']:>9} "
                f"{e['severity']:>9.3f} {rc['class']:>12} "
                f"{rc.get('chains', 0):>7} {rc.get('max_depth', 0):>6}  "
                f"{victims}"
            )
            sample = rc.get("sample")
            if sample and rc.get("max_depth", 0) >= best_depth:
                best_depth = rc.get("max_depth", 0)
                best_sample = sample
        if best_sample:
            lines.append("")
            lines.append("  deepest blame chain (victim first, culprit last):")
            lines.append("    " + _chain_text(best_sample))
    return "\n".join(lines)


def render_events(p: Dict) -> str:
    """Clogging-episode table, from :func:`payload_events`."""
    episodes = p["episodes"]
    if not episodes:
        return "no clogging episodes detected"
    lines = [
        f"{len(episodes)} clogging episode(s)",
        f"{'node':>6} {'start':>10} {'end':>10} {'windows':>8} "
        f"{'severity':>9} {'peak':>7}",
    ]
    for episode in episodes:
        lines.append(
            f"{episode['node']:>6} {episode['start']:>10} "
            f"{episode['end']:>10} {episode['windows']:>8} "
            f"{episode['severity']:>9.3f} {episode['peak']:>7.3f}"
        )
    return "\n".join(lines)
