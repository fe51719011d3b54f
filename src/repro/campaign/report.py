"""Regenerate EXPERIMENTS.md's measured tables from campaign outputs.

The sweep-derived tables in ``EXPERIMENTS.md`` live between marker
comments::

    <!-- begin:fig15 -->
    | policy | moderate | high |
    ...
    <!-- end:fig15 -->

``python -m repro report`` re-renders each block from the committed
``campaigns/<name>/merged.json`` and splices it back, so the document's
numbers provably come from the checked-in campaign data rather than
hand transcription; ``--check`` verifies the document is up to date
without writing (CI runs this as the docs-drift gate).
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Callable, Dict, List, Mapping

from repro.campaign.merge import pool_values, sum_counters

__all__ = ["render_tables", "splice", "update_document"]

_MARKER = re.compile(
    r"(<!-- begin:(?P<id>[\w.-]+) -->\n)(?P<body>.*?)(<!-- end:(?P=id) -->)",
    re.DOTALL)


def _load_cells(campaigns: Path, name: str) -> List[Mapping]:
    merged = campaigns / name / "merged.json"
    data = json.loads(merged.read_text(encoding="utf-8"))
    return data["cells"]


def _cell_map(cells: List[Mapping], *axes: str) -> Dict[tuple, Mapping]:
    """Index cell results by the given parameter axes (must be unique)."""
    indexed: Dict[tuple, Mapping] = {}
    for cell in cells:
        key = tuple(cell["params"][axis] for axis in axes)
        if key in indexed:
            raise ValueError(f"duplicate cells for {key}")
        indexed[key] = cell
    return indexed


def _render_table1(campaigns: Path) -> str:
    cells = _cell_map(_load_cells(campaigns, "table1"),
                      "burst_mult", "bw_mult")
    bursts = sorted({k[0] for k in cells})
    bws = sorted({k[1] for k in cells})
    lines = ["| burst\\bw | " + " | ".join(f"{bw:g}B" for bw in bws)
             + " |",
             "|---|" + "---|" * len(bws)]
    for burst in bursts:
        row = [f"{burst:g}M"]
        for bw in bws:
            late = cells[(burst, bw)]["result"]["late_fraction"]
            row.append(f"{100 * late:.2f}")
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def _render_fig15(campaigns: Path) -> str:
    cells = _cell_map(_load_cells(campaigns, "fig15"), "load", "policy")
    policies = ("locality", "oktopus", "silo")
    lines = ["| policy | moderate | high |", "|---|---|---|"]
    for policy in policies:
        row = [policy]
        for load in ("moderate", "high"):
            row.append(f"{cells[(load, policy)]['result']['total']:.1%}")
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def _render_fig16(campaigns: Path) -> str:
    cells = _cell_map(_load_cells(campaigns, "fig16"),
                      "boost", "permutation_x", "policy")
    boosts = sorted({k[0] for k in cells})
    densities = sorted({k[1] for k in cells})
    policies = ("locality", "oktopus", "silo")
    lines = ["16a — utilization vs offered load (Permutation-3):", "",
             "| load | " + " | ".join(policies) + " | silo occupancy |",
             "|---|" + "---|" * (len(policies) + 1)]
    for boost in boosts:
        row = [f"{boost:g}x"]
        for policy in policies:
            result = cells[(boost, 3.0, policy)]["result"]
            row.append(f"{result['utilization']:.2%}")
        row.append(f"{cells[(boost, 3.0, 'silo')]['result']['occupancy']:.0%}")
        lines.append("| " + " | ".join(row) + " |")
    lines += ["", "16b — utilization vs Permutation-x (high load):", "",
              "| x | " + " | ".join(policies) + " |",
              "|---|" + "---|" * len(policies)]
    for density in densities:
        if density == 3.0:
            continue
        row = [f"{density:g}"]
        for policy in policies:
            result = cells[(4.0, density, policy)]["result"]
            row.append(f"{result['utilization']:.2%}")
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def _render_fig16_32k(campaigns: Path) -> str:
    cells = _cell_map(_load_cells(campaigns, "fig16-32k"),
                      "servers", "policy")
    sizes = sorted({k[0] for k in cells})
    lines = ["Fig. 16a operating point (4.0x load, Permutation-3) scaled"
             " to the paper's 32K servers:", "",
             "| servers | policy | utilization | admitted | occupancy |"
             " peak flows | jobs done |",
             "|--------:|--------|------------:|---------:|----------:|"
             "-----------:|----------:|"]
    for servers in sizes:
        for policy in ("locality", "oktopus", "silo"):
            result = cells[(servers, policy)]["result"]
            lines.append(
                f"| {servers} | {policy} "
                f"| {result['utilization']:.2%} "
                f"| {result['admitted']:.1%} "
                f"| {result['occupancy']:.0%} "
                f"| {result['peak_concurrent_flows']} "
                f"| {result['finished_jobs']} |")
    return "\n".join(lines) + "\n"


def _render_failure_recovery(campaigns: Path) -> str:
    raw = _load_cells(campaigns, "failure-recovery")
    mtbfs: List[float] = []
    for cell in raw:
        mtbf = cell["params"]["mtbf_ms"]
        if mtbf not in mtbfs:
            mtbfs.append(mtbf)
    lines = ["| MTBF | policy | affected | recovered | fraction |"
             " guarantee-sec lost | mean TTR |",
             "|-----:|--------|---------:|----------:|---------:|"
             "-------------------:|---------:|"]
    for mtbf in mtbfs:
        for policy in ("silo", "oktopus"):
            cells = [c["result"] for c in raw
                     if c["params"]["mtbf_ms"] == mtbf
                     and c["params"]["policy"] == policy]
            counts = sum_counters([{"affected": c["affected"],
                                    "recovered": c["recovered"]} for c
                                   in cells])
            lost = sum(c["guarantee_seconds_lost"] for c in cells)
            times = pool_values([c["recover_times"] for c in cells])
            fraction = (counts["recovered"] / counts["affected"]
                        if counts["affected"] else 1.0)
            ttr = (f"{1e3 * sum(times) / len(times):.1f} ms"
                   if times else "--")
            lines.append(
                f"| {mtbf:g} ms | {policy.capitalize()} "
                f"| {counts['affected']} | {counts['recovered']} "
                f"| {fraction:.3f} | {lost:.2f} | {ttr} |")
    return "\n".join(lines) + "\n"


def _render_whatif_error(campaigns: Path) -> str:
    raw = _load_cells(campaigns, "whatif-error")
    seeds = sorted({cell["seed"] for cell in raw})
    keys = []
    for cell in raw:
        key = (cell["params"]["message_kb"], cell["params"]["class_a"])
        if key not in keys:
            keys.append(key)
    lines = ["| message | class-A tenants | sim p99 | est p99 |"
             " rel. error (per seed) |",
             "|--------:|----------------:|--------:|--------:|"
             "----------------------|"]
    errors: List[float] = []
    for message_kb, class_a in keys:
        cells = [c for c in raw
                 if c["params"]["message_kb"] == message_kb
                 and c["params"]["class_a"] == class_a]
        cells.sort(key=lambda c: c["seed"])
        cell_errors = [c["result"]["rel_error_p99"] for c in cells]
        errors.extend(cell_errors)
        sim_p99 = sum(c["result"]["sim"]["p99_us"]
                      for c in cells) / len(cells)
        est_p99 = sum(c["result"]["est"]["p99_us"]
                      for c in cells) / len(cells)
        per_seed = " / ".join(f"{e:.1%}" for e in cell_errors)
        lines.append(f"| {message_kb:g} KB | {class_a} "
                     f"| {sim_p99:.1f} us | {est_p99:.1f} us "
                     f"| {per_seed} |")
    errors.sort()
    median = errors[len(errors) // 2] if len(errors) % 2 else (
        errors[len(errors) // 2 - 1] + errors[len(errors) // 2]) / 2
    lines += ["",
              f"Median relative p99 error across all "
              f"{len(errors)} cells ({len(seeds)} held-out seeds): "
              f"**{median:.1%}** (acceptance floor: 15%)."]
    return "\n".join(lines) + "\n"


def _render_mechanism_compare(campaigns: Path) -> str:
    cells = _cell_map(_load_cells(campaigns, "mechanism-compare"),
                      "workload", "mechanism")
    workloads = []
    for key in cells:
        if key[0] not in workloads:
            workloads.append(key[0])
    mechanisms = ("silo", "swp", "eyeq")
    lines = ["| workload | mechanism | p50 | p99 | p99.9 | max |"
             " late | guarantee |",
             "|----------|-----------|----:|----:|------:|----:|"
             "-----:|-----------|"]
    for workload in workloads:
        for mechanism in mechanisms:
            result = cells[(workload, mechanism)]["result"]
            pct = result["latency_us"]
            late = result["late"]
            verdict = "**met**" if result["guarantee_met"] else "violated"
            lines.append(
                f"| {workload} | {mechanism} "
                f"| {pct['p50']:.0f} us | {pct['p99']:.0f} us "
                f"| {pct['p999']:.0f} us "
                f"| {result['max_latency_us']:.0f} us "
                f"| {late}/{result['messages']} | {verdict} |")
    any_cell = next(iter(cells.values()))["result"]
    swp = [cells[(w, "swp")]["result"] for w in workloads]
    spec_sent = sum(c["counters"]["spec_packets_sent"] for c in swp)
    spec_wins = sum(c["counters"]["spec_wins"] for c in swp)
    eyeq_fb = sum(cells[(w, "eyeq")]["result"]["counters"]
                  ["feedback_messages"] for w in workloads)
    lines += ["",
              f"Class-A contract: {any_cell['bound_us']:.0f} us for a "
              f"15 KB message.  SWP sent {spec_sent} speculative copies "
              f"({spec_wins} arrived first); EyeQ exchanged {eyeq_fb} "
              f"rate-feedback messages."]
    return "\n".join(lines) + "\n"


def _render_fig12(campaigns: Path) -> str:
    cells = _load_cells(campaigns, "fig12")
    results = {c["params"]["mechanism"]: c["result"] for c in cells}
    any_cell = cells[0]["result"]
    lines = ["Fig. 12 / Table 3 — class-A message latency, all tenants"
             " pooled (`none` is the TCP baseline):", "",
             "| scheme | finished | median | p90 | p99 | p99.9 |"
             " late | drops |",
             "|--------|---------:|-------:|----:|----:|------:|"
             "-----:|------:|"]
    for scheme, result in results.items():
        pct = result["latency_us"]
        lines.append(
            f"| {scheme} | {result['messages'] - result['incomplete']}"
            f"/{result['messages']} "
            f"| {pct['p50'] / 1e3:.3f} ms | {pct['p90'] / 1e3:.3f} ms "
            f"| {pct['p99'] / 1e3:.3f} ms | {pct['p999'] / 1e3:.3f} ms "
            f"| {result['late_fraction']:.1%} "
            f"| {result['port']['drops']} |")
    lines += ["", f"Fig. 13 / Table 4 — per class-A tenant: share of its"
              f" messages that hit a retransmission timeout, and its p99"
              f" over the {any_cell['bound_us'] / 1e3:.2f} ms estimate"
              f" (\"unfinished\": that p99 is a message that never"
              f" completed, counted as over every multiple):", "",
              "| scheme | RTO message share | p99 ÷ estimate |"
              " >1x | >2x | >8x |", "|---|---|---|---:|---:|---:|"]
    for scheme, result in results.items():
        tenants = result["class_a"]
        ratios = [t["p99_over_estimate"] for t in tenants]
        over = [sum(1 for r in ratios if r is None or r > k) / len(ratios)
                for k in (1, 2, 8)]
        lines.append(
            f"| {scheme} | "
            + " / ".join(f"{t['rto_fraction']:.1%}" for t in tenants)
            + " | " + " / ".join("unfinished" if r is None else f"{r:.2f}"
                                 for r in ratios)
            + " | " + " | ".join(f"{share:.0%}" for share in over) + " |")
    lines += ["", f"Fig. 14 — class-B message latency ÷ the hose estimate"
              f" ({any_cell['class_b']['estimate_us'] / 1e3:.2f} ms per"
              f" chunk):", "",
              "| scheme | messages | median | p95 | p99 | max |",
              "|---|---:|---:|---:|---:|---:|"]
    for scheme, result in results.items():
        ratio = result["class_b"]["latency_over_estimate"]
        lines.append(
            f"| {scheme} | {result['class_b']['messages']} "
            f"| {ratio['p50']:.3f} | {ratio['p95']:.2f} "
            f"| {ratio['p99']:.2f} | {ratio['max']:.2f} |")
    return "\n".join(lines) + "\n"


def _render_hybrid_smoke(campaigns: Path) -> str:
    cells = _cell_map(_load_cells(campaigns, "hybrid-smoke"),
                      "fg_app", "policy")
    apps = ("memcached", "burst")
    policies = ("silo", "locality")
    lines = ["| foreground | background policy | bg admitted |"
             " residual events | messages | p50 | p99 | late |",
             "|------------|-------------------|------------:|"
             "----------------:|---------:|----:|----:|-----:|"]
    for app in apps:
        for policy in policies:
            result = cells[(app, policy)]["result"]
            fg = result["foreground"][0]
            late = (f"{fg['late']:.0%}" if fg.get("late") is not None
                    else "--")
            lines.append(
                f"| {app} | {policy} "
                f"| {result['bg_admitted']:.1%} "
                f"| {result['residual_events']} "
                f"| {fg['messages']} "
                f"| {fg['p50_us']:.1f} us | {fg['p99_us']:.1f} us "
                f"| {late} |")
    any_cell = next(iter(cells.values()))["result"]
    lines += ["",
              f"Each packet window covers {1e3 * any_cell['fg_horizon']:g}"
              f" ms of the fluid background run, aligned to the recorded"
              f" peak of background usage on the foreground's"
              f" {any_cell['watched_ports']} path ports."]
    return "\n".join(lines) + "\n"


#: Renderers keyed by marker id, which is also the name of the campaign
#: directory whose merged.json the block is generated from.
_RENDERERS: Dict[str, Callable[[Path], str]] = {
    "table1": _render_table1,
    "fig15": _render_fig15,
    "fig16": _render_fig16,
    "fig16-32k": _render_fig16_32k,
    "failure-recovery": _render_failure_recovery,
    "whatif-error": _render_whatif_error,
    "mechanism-compare": _render_mechanism_compare,
    "fig12": _render_fig12,
    "hybrid-smoke": _render_hybrid_smoke,
}


def render_tables(campaigns: Path) -> Dict[str, str]:
    """All marker blocks renderable from ``campaigns`` (id -> markdown).

    Campaign directories without a committed ``merged.json`` are
    skipped, so a partially populated campaigns tree regenerates what
    it can (:func:`update_document` refuses that under ``check``).
    """
    return {marker_id: render(campaigns)
            for marker_id, render in _RENDERERS.items()
            if (campaigns / marker_id / "merged.json").is_file()}


def splice(document: str, tables: Mapping[str, str]) -> str:
    """Replace every marker block in ``document`` with its new table.

    Markers without a rendered table are left untouched; rendered
    tables without a marker are an error (the document must opt in to
    regeneration explicitly).
    """
    seen = set()

    def replace(match: re.Match) -> str:
        marker_id = match.group("id")
        if marker_id not in tables:
            return match.group(0)
        seen.add(marker_id)
        return (match.group(1) + tables[marker_id] + match.group(4))

    updated = _MARKER.sub(replace, document)
    missing = set(tables) - seen
    if missing:
        raise ValueError(
            f"no markers for rendered tables: {sorted(missing)} "
            f"(add <!-- begin:ID --> / <!-- end:ID --> to the document)")
    return updated


def update_document(doc_path: Path, campaigns: Path,
                    check: bool = False) -> bool:
    """Regenerate ``doc_path``'s campaign tables; True if it changed.

    With ``check=True`` the document is not written -- the return value
    says whether it *would* change (the CI drift gate fails on True) --
    and a marker block whose campaign has no ``merged.json`` is a
    ``ValueError`` naming it: a deleted or mistyped campaign directory
    must not pass as "nothing to compare".
    """
    document = doc_path.read_text(encoding="utf-8")
    tables = render_tables(campaigns)
    if check:
        marked = {match.group("id") for match in _MARKER.finditer(document)}
        unchecked = sorted(marker_id for marker_id in marked
                           if marker_id in _RENDERERS
                           and marker_id not in tables)
        if unchecked:
            raise ValueError(
                f"no {campaigns}/<id>/merged.json for marker block(s) "
                f"{', '.join(unchecked)}")
    updated = splice(document, tables)
    changed = updated != document
    if changed and not check:
        doc_path.write_text(updated, encoding="utf-8")
    return changed
