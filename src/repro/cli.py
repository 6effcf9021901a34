"""Command-line interface: drive every experiment without writing code.

Usage::

    python -m repro table2
    python -m repro covert --attack impact-pnm --bits 512 --llc-mb 8
    python -m repro covert --attack all
    python -m repro sidechannel --banks 1024 --rounds 100
    python -m repro defenses --workload PR
    python -m repro recon --mapping xor
    python -m repro detect
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Callable, Dict, Optional, Sequence

from repro import System, SystemConfig
from repro.analysis import format_table
from repro.attacks import (
    AddressReconnaissance,
    DmaEngineChannel,
    DramaClflushChannel,
    DramaEvictionChannel,
    ImpactPnmChannel,
    ImpactPumChannel,
    PnmOffchipChannel,
    StreamlineChannel,
)
from repro.detection import run_detection_experiment

ATTACKS: Dict[str, Callable[[System], object]] = {
    "impact-pnm": ImpactPnmChannel,
    "impact-pum": ImpactPumChannel,
    "dma": DmaEngineChannel,
    "drama-clflush": DramaClflushChannel,
    "drama-eviction": DramaEvictionChannel,
    "pnm-offchip": PnmOffchipChannel,
    "streamline": StreamlineChannel,
}


def _config(args: argparse.Namespace) -> SystemConfig:
    config = SystemConfig.paper_default()
    if getattr(args, "llc_mb", None):
        config = config.with_llc(float(args.llc_mb))
    if getattr(args, "noise", 0.0):
        config = config.with_noise(args.noise)
    mapping = getattr(args, "mapping", None)
    if mapping:
        config = replace(config, mapping=mapping)
    return config


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_table2(args: argparse.Namespace) -> int:
    config = _config(args)
    rows = [(r["component"], r["configuration"]) for r in config.describe()]
    print(format_table(["component", "configuration"], rows,
                       title="Table 2: simulation configuration"))
    return 0


def cmd_covert(args: argparse.Namespace) -> int:
    from repro.exp import run_sweep, sweep_points
    from repro.exp.figures import covert_point, streamline_bound_point

    names = list(ATTACKS) if args.attack == "all" else [args.attack]
    points = sweep_points("covert", covert_point, "attack", names,
                          bits=args.bits, seed=args.seed, llc_mb=args.llc_mb,
                          noise=args.noise, mapping=args.mapping)
    if args.attack == "all":
        points += sweep_points("covert", streamline_bound_point,
                               "llc_mb", [args.llc_mb],
                               noise=args.noise, mapping=args.mapping)
    outcome = run_sweep(points, jobs=args.jobs)
    rows = []
    for payload in outcome:
        error = (f"{payload['error_rate']:.2%}"
                 if "error_rate" in payload else "-")
        cycles = (f"{payload['cycles_per_bit']:.0f}"
                  if "cycles_per_bit" in payload else "-")
        rows.append((payload["attack"], f"{payload['throughput_mbps']:.2f}",
                     error, cycles))
    if args.attack == "all":
        rows.sort(key=lambda r: -float(r[1]))
    print(format_table(["attack", "Mb/s", "error", "cycles/bit"], rows,
                       title=f"covert channels, {args.bits} bits"))
    return 0


def cmd_sidechannel(args: argparse.Namespace) -> int:
    from repro.exp import run_sweep, sweep_points
    from repro.exp.figures import sidechannel_point

    points = sweep_points("sidechannel", sidechannel_point, "num_banks",
                          list(args.banks), rounds=args.rounds,
                          seed=args.seed, noise=args.noise)
    outcome = run_sweep(points, jobs=args.jobs)
    for payload in outcome:
        print(payload["summary"])
        print(f"leaked {payload['leaked_bits']:.0f} bits in "
              f"{payload['cycles']} cycles "
              f"({payload['correct']}/{payload['rounds']} probes decoded; "
              f"{payload['false_positives']} false positives)")
    return 0


def cmd_defenses(args: argparse.Namespace) -> int:
    from repro.exp import run_sweep, sweep_points
    from repro.exp.figures import defense_security_point, fig11_point

    points = sweep_points("defense-security", defense_security_point,
                          "defense", ["open", "mpr", "crp", "ctd"],
                          bits=args.bits)
    outcome = run_sweep(points, jobs=args.jobs)
    rows = [(p["defense"], str(p["blocked"]),
             f"{p['capacity_bits_per_symbol']:.4f}",
             "eliminated" if p["eliminated"] else "SURVIVES")
            for p in outcome]
    print(format_table(["defense", "blocked", "capacity b/sym", "verdict"],
                       rows, title="security vs IMPACT-PnM"))
    if args.workload:
        print(f"\nmeasuring {args.workload} under each row policy "
              f"(takes a minute)...")
        ev = fig11_point(args.workload, max_refs=args.max_refs)
        overheads = {"open": None, "crp": ev["crp_overhead"],
                     "ctd": ev["ctd_overhead"]}
        print(format_table(
            ["policy", "cycles", "overhead"],
            [(p, ev["policies"][p]["cycles"],
              f"{overheads[p]:+.1%}" if overheads[p] is not None
              else "baseline")
             for p in ("open", "crp", "ctd")],
            title=f"{ev['workload']}: measured MPKI {ev['mpki']:.2f} "
                  f"(paper {ev['paper_mpki']})"))
    return 0


def _print_trace_summary(path: str) -> int:
    """Summarize an existing Chrome-trace JSON (no re-run)."""
    from repro.obs import summarize_chrome_trace

    summary = summarize_chrome_trace(path)
    span = summary["span_cycles"]
    print(f"{path}: {summary['events']} events, "
          f"cycles {span[0]}-{span[1]}")
    counts = summary["counts"]
    print("events: " + ", ".join(f"{name}={counts[name]}"
                                 for name in sorted(counts)))
    rows = [(name, m["events"], m["operations"], m["busy_cycles"],
             m["queue_cycles"], m["hits"], m["conflicts"],
             f"{m['first_cycle']}-{m['last_cycle']}")
            for name, m in sorted(summary["per_requestor"].items())]
    print(format_table(
        ["requestor", "events", "ops", "busy cyc", "queue cyc", "hit",
         "conf", "cycle span"],
        rows, title="per-requestor activity"))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one experiment under the event tracer (``repro.obs``) and write
    a ``chrome://tracing`` / Perfetto-loadable JSON."""
    import os

    from repro import obs

    if args.summary:
        path = args.out or f"{args.experiment}.trace.json"
        if not os.path.exists(path):
            print(f"no trace file at {path}; run "
                  f"`repro trace {args.experiment}` first "
                  f"(or pass --out)", file=sys.stderr)
            return 2
        return _print_trace_summary(path)

    config = _config(args)
    attack = "impact-pnm" if args.experiment == "fig7" else args.experiment
    tracer = obs.Tracer(cpu_ghz=config.cpu_ghz)
    previous = obs.current_observer()
    obs.install(tracer)
    try:
        system = System(config, sanitize=True if args.sanitize else None)
        channel = ATTACKS[attack](system)
        result = channel.transmit_random(args.bits, seed=args.seed)
    finally:
        if previous is not None:
            obs.install(previous)
        else:
            obs.uninstall()
    out = args.out or f"{args.experiment}.trace.json"
    tracer.write_chrome(out)
    throughput = getattr(result, "throughput_mbps", None)
    if throughput is not None:
        print(f"{attack}: {args.bits} bits, {throughput:.2f} Mb/s")
    counts = tracer.counts()
    print("events: " + ", ".join(f"{name}={counts[name]}"
                                 for name in sorted(counts)))
    per_req = tracer.per_requestor()
    rows = [(name, m["operations"], m["busy_cycles"], m["queue_cycles"],
             m["hits"], m["empties"], m["conflicts"])
            for name, m in sorted(per_req.items())]
    print(format_table(
        ["requestor", "ops", "busy cyc", "queue cyc", "hit", "empty", "conf"],
        rows, title="per-requestor DRAM activity"))
    if system.sanitizer is not None:
        print(system.sanitizer.report())
    print(f"trace written to {out} (load in chrome://tracing or Perfetto)")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Run an experiment sweep with metrics enabled and write a joined
    markdown + JSON run report to ``reports/``."""
    import os
    import tempfile

    from repro.analysis.runreport import collect_run_report, write_run_report
    from repro.exp import run_sweep
    from repro.exp.figures import fig8_quality_sweep

    points = fig8_quality_sweep(args.llc_mb, bits=args.bits,
                                attacks=args.attacks)
    with tempfile.TemporaryDirectory(prefix="repro-report-") as tmp:
        metrics_dir = os.path.join(tmp, "metrics")
        trace_dir = os.path.join(tmp, "trace") if args.trace else None
        outcome = run_sweep(points, jobs=args.jobs,
                            metrics_dir=metrics_dir, trace_dir=trace_dir)
        report = collect_run_report(args.experiment, points, outcome,
                                    metrics_dir=metrics_dir,
                                    trace_dir=trace_dir)
    md_path, json_path = write_run_report(report, out_dir=args.out_dir)
    mode = "parallel" if outcome.parallel else "serial"
    print(f"{args.experiment}: {len(points)} points in "
          f"{outcome.elapsed_seconds:.1f}s ({mode}, jobs={outcome.jobs})")
    for entry in report["points"]:
        payload = entry["payload"] or {}
        attacks = payload.get("attacks", {})
        best = max((metrics.get("throughput_mbps", 0.0)
                    for metrics in attacks.values()), default=0.0)
        print(f"  {entry['label']}: {len(attacks)} channels, "
              f"best {best:.2f} Mb/s")
    print(f"report written to {md_path} and {json_path}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a fig8-style quality sweep through the sweep engine directly
    (the worker pool when ``--jobs`` > 1, serially otherwise) and — with
    ``--adaptive`` — schedule repetitions in rounds and early-stop each
    point once its BER confidence interval is tight enough."""
    from repro.exp import (
        AdaptiveConfig,
        ConvergenceTarget,
        ResultCache,
        run_adaptive_sweep,
        run_sweep,
        sweep_points,
    )
    from repro.exp.figures import fig8_quality_point

    points = sweep_points("fig8-quality", fig8_quality_point, "llc_mb",
                          [float(mb) for mb in args.llc_mb],
                          bits=args.bits, attacks=args.attacks)
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    common = dict(jobs=args.jobs, cache=cache,
                  telemetry_dir=args.telemetry_dir)

    if args.adaptive:
        config = AdaptiveConfig(
            rep_axis="seed", min_reps=args.min_reps, max_reps=args.max_reps,
            round_reps=args.round_reps,
            target=ConvergenceTarget(ber_ci_halfwidth=args.ber_ci,
                                     capacity_rel_tol=args.capacity_tol))
        outcome = run_adaptive_sweep(points, config=config, **common)
        rows = []
        for result in outcome.results:
            pooled = result.pooled_streams()
            worst = max(pooled.values(),
                        key=lambda s: s["ci_halfwidth"]) if pooled else None
            rows.append((
                result.point.describe(), result.reps,
                "yes" if result.converged else "NO",
                f"{worst['ber']:.4f}" if worst else "-",
                f"{worst['ci_halfwidth']:.4f}" if worst else "-"))
        print(format_table(
            ["point", "reps", "converged", "worst BER", "CI half-width"],
            rows, title=f"adaptive sweep (target ±{args.ber_ci})"))
        print(f"executed {outcome.executed_reps} reps vs "
              f"{outcome.fixed_reps} fixed "
              f"({outcome.rep_savings_ratio:.2f}x savings) in "
              f"{outcome.rounds} rounds, {outcome.elapsed_seconds:.1f}s")
        return 0

    outcome = run_sweep(points, **common)
    rows = []
    for point, payload in zip(points, outcome):
        attacks = (payload or {}).get("attacks", {})
        best = max((m.get("throughput_mbps", 0.0)
                    for m in attacks.values()), default=0.0)
        rows.append((point.describe(), len(attacks), f"{best:.2f}"))
    print(format_table(["point", "channels", "best Mb/s"], rows,
                       title="quality sweep"))
    mode = "parallel" if outcome.parallel else "serial"
    print(f"{len(points)} points in {outcome.elapsed_seconds:.1f}s "
          f"({mode}, jobs={outcome.jobs})")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or prune the on-disk result cache and warm-state store."""
    import os

    from repro.exp.cache import ResultCache
    from repro.exp.warmstore import WarmStore

    warm_dir = (args.warm_dir or os.environ.get("REPRO_WARMSTORE_DIR")
                or "benchmarks/results/.warmstore")
    stores = [("results", ResultCache(args.results_dir)),
              ("warm", WarmStore(warm_dir))]
    if args.action == "prune":
        for label, store in stores:
            removed = store.prune()
            print(f"{label}: removed {removed} stale entries from "
                  f"{store.directory}")
    rows = []
    for label, store in stores:
        stats = store.stats()
        rows.append((label, stats["directory"], stats["entries"],
                     stats["stale_entries"], f"{stats['bytes'] / 1e6:.1f}"))
    print(format_table(
        ["store", "directory", "entries", "stale", "MB"], rows,
        title=f"on-disk caches (code version {stores[0][1].version})"))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the simulation-as-a-service daemon: many clients submit sweeps
    over JSON-lines TCP, scheduled fair-share onto the persistent
    fork-server pool with result-cache / warm-store / in-flight dedup."""
    import asyncio
    import os

    from repro.exp.cache import ResultCache
    from repro.serve import ServeScheduler
    from repro.serve.server import run_server

    if args.warm_dir:
        os.environ["REPRO_WARMSTORE_DIR"] = args.warm_dir
    if args.telemetry_dir:
        os.makedirs(args.telemetry_dir, exist_ok=True)
        os.environ["REPRO_TELEMETRY_DIR"] = args.telemetry_dir
    cache = ResultCache(args.cache_dir) if args.cache_dir else None

    async def _main() -> None:
        scheduler = ServeScheduler(jobs=args.jobs, cache=cache,
                                   use_pool=not args.no_pool)
        await run_server(scheduler, args.host, args.port,
                         port_file=args.port_file)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit a sweep to a running ``repro serve`` daemon and stream its
    progress; also the CLI surface for the daemon's metrics/status."""
    import json

    from repro.serve import ServeClient, ServeError

    try:
        client = ServeClient(host=args.host, port=args.port,
                             timeout=args.timeout)
    except OSError as exc:
        print(f"cannot reach repro serve at {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    try:
        if args.metrics or args.status:
            payload = client.metrics() if args.metrics else client.status()
            print(json.dumps(payload, indent=2, default=str))
            return 0
        if args.shutdown:
            client.shutdown_server()
            print("daemon shutting down")
            return 0
        if not args.experiment and not args.fn:
            print("submit needs an experiment or --fn (or --metrics/"
                  "--status/--shutdown)", file=sys.stderr)
            return 2
        if args.points:
            point_params = json.loads(args.points)
        elif args.axis:
            point_params = [{args.axis: value}
                            for value in (json.loads(v) for v in args.values)]
        else:
            point_params = [{}]

        def _progress(event):
            if event.get("event") == "point":
                print(f"  point {event['index']}: {event['source']} "
                      f"({event['elapsed_s']:.2f}s)")

        try:
            job = client.submit(args.experiment, point_params,
                                fn=args.fn, priority=args.priority,
                                on_event=_progress if not args.quiet
                                else None)
        except ServeError as exc:
            print(f"rejected: {exc}", file=sys.stderr)
            return 1
        status = "ok" if job.ok else f"FAILED ({'; '.join(job.errors)})"
        print(f"{job.job_id}: {len(job.results)} points in "
              f"{job.elapsed_seconds:.2f}s, warm {job.warm_hits} hit / "
              f"{job.warm_misses} miss — {status}")
        print(json.dumps(job.results, indent=2, default=str))
        return 0 if job.ok else 1
    finally:
        client.close()


def cmd_top(args: argparse.Namespace) -> int:
    """Live fleet view: poll a daemon's metrics endpoint, or reconstruct
    the same dashboard offline from a telemetry event-log directory."""
    import time

    from repro.obs import top as obs_top

    def one_frame() -> str:
        if args.dir:
            return obs_top.frame_from_dir(args.dir)
        from repro.serve import ServeClient

        with ServeClient(host=args.host, port=args.port,
                         timeout=args.timeout) as client:
            payload = client.metrics()
        return obs_top.render_metrics_frame(
            payload, source=f"{args.host}:{args.port}")

    while True:
        try:
            frame = one_frame()
        except OSError as exc:
            print(f"repro top: cannot read "
                  f"{args.dir or f'{args.host}:{args.port}'}: {exc}",
                  file=sys.stderr)
            return 2
        if args.once:
            print(frame)
            return 0
        # Clear + home, like top(1); each poll reconnects so a daemon
        # restart mid-watch just shows up as the next frame.
        print("\x1b[2J\x1b[H" + frame, flush=True)
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def cmd_recon(args: argparse.Namespace) -> int:
    config = _config(args)
    system = System(config)
    recon = AddressReconnaissance(system)
    model = recon.recover_bank_function()
    print(f"mapping under test: {config.mapping!r}")
    print(f"recovered: {model.describe()}")
    print(f"timing probes spent: {recon.timing_probes}")
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    rows = []
    for name in ("drama-clflush", "impact-pnm", "impact-pum"):
        mapping = "xor" if name == "drama-eviction" else "row"
        reports = run_detection_experiment(
            lambda s, c=ATTACKS[name]: c(s),
            lambda m=mapping: replace(SystemConfig.paper_default(), mapping=m),
            bits=args.bits)
        for side, report in reports.items():
            rows.append((name, side, report.accesses, report.clflushes,
                         str(report.flagged), report.reason))
    print(format_table(
        ["attack", "side", "cache accesses", "clflushes", "flagged", "reason"],
        rows, title="cache-monitor detector (Sec 3)"))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IMPACT reproduction: PiM main-memory timing attacks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table2", help="print the simulated configuration")
    p.add_argument("--llc-mb", type=float, default=None)
    p.set_defaults(func=cmd_table2)

    def add_jobs(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--jobs", type=int, default=None, metavar="N",
            help="worker processes for independent sweep points "
                 "(default: all CPUs available to the process; 1 = serial)")

    p = sub.add_parser("covert", help="run a covert channel")
    p.add_argument("--attack", choices=sorted(ATTACKS) + ["all"],
                   default="impact-pnm")
    p.add_argument("--bits", type=int, default=512)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--llc-mb", type=float, default=None)
    p.add_argument("--noise", type=float, default=0.0,
                   help="background activations per kilocycle")
    p.add_argument("--mapping", choices=["row", "line", "xor"], default=None)
    add_jobs(p)
    p.set_defaults(func=cmd_covert)

    p = sub.add_parser("sidechannel", help="run the read-mapping side channel")
    p.add_argument("--banks", type=int, nargs="+", default=[1024],
                   help="bank count(s); several values run as one sweep")
    p.add_argument("--rounds", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0)
    add_jobs(p)
    p.set_defaults(func=cmd_sidechannel)

    p = sub.add_parser("defenses", help="evaluate the Sec 6 defenses")
    p.add_argument("--bits", type=int, default=192)
    p.add_argument("--workload", choices=["BC", "BFS", "CC", "TC", "PR"],
                   default=None)
    p.add_argument("--max-refs", type=int, default=30_000)
    add_jobs(p)
    p.set_defaults(func=cmd_defenses)

    p = sub.add_parser(
        "trace",
        help="run an experiment under the event tracer (Chrome-trace JSON)")
    p.add_argument("experiment", choices=sorted(ATTACKS) + ["fig7"],
                   help="attack to trace; 'fig7' = the Fig. 7 IMPACT-PnM PoC")
    p.add_argument("--bits", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--llc-mb", type=float, default=None)
    p.add_argument("--out", default=None, metavar="PATH",
                   help="output path (default: <experiment>.trace.json)")
    p.add_argument("--sanitize", action="store_true",
                   help="also run the timing-invariant sanitizer")
    p.add_argument("--summary", action="store_true",
                   help="summarize an existing trace file (per-requestor "
                        "event counts and cycle spans) without re-running")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "report",
        help="run a sweep with metrics on and write a markdown+JSON "
             "run report to reports/")
    p.add_argument("experiment", choices=["fig8"],
                   help="experiment to report on")
    p.add_argument("--llc-mb", type=float, nargs="+", default=[8.0, 64.0],
                   help="LLC sizes (MB) to sweep")
    p.add_argument("--bits", type=int, default=128,
                   help="message-length scale: attacks send their Fig. 8 "
                        "lengths scaled by bits/512 (min 16)")
    p.add_argument("--attacks", nargs="+", choices=sorted(ATTACKS),
                   default=None,
                   help="subset of channels (default: all seven)")
    p.add_argument("--out-dir", default="reports", metavar="DIR")
    p.add_argument("--trace", action="store_true",
                   help="also capture per-point traces and fold their "
                        "summaries into the report")
    add_jobs(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "sweep",
        help="run a quality sweep through the sweep engine, optionally "
             "early-stopping reps adaptively on CI convergence")
    p.add_argument("--llc-mb", type=float, nargs="+", default=[8.0, 64.0],
                   help="LLC sizes (MB) to sweep (default: 8 64)")
    p.add_argument("--bits", type=int, default=128,
                   help="message-length scale per channel (default 128)")
    p.add_argument("--attacks", nargs="+", choices=sorted(ATTACKS),
                   default=None,
                   help="subset of channels (default: all seven)")
    p.add_argument("--adaptive", action="store_true",
                   help="schedule repetitions in rounds and early-stop "
                        "each point once its worst-stream Wilson BER CI "
                        "half-width drops below --ber-ci")
    p.add_argument("--ber-ci", type=float, default=0.05, metavar="HW",
                   help="target BER CI half-width (default 0.05)")
    p.add_argument("--capacity-tol", type=float, default=None, metavar="TOL",
                   help="also require capacity stability: relative spread "
                        "of the trailing capacity window below TOL")
    p.add_argument("--min-reps", type=int, default=2,
                   help="repetition floor before early-stop may fire")
    p.add_argument("--max-reps", type=int, default=8,
                   help="repetition ceiling per point (the fixed-grid "
                        "budget adaptive is measured against)")
    p.add_argument("--round-reps", type=int, default=2,
                   help="new repetitions per scheduling round")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="persist point results to a ResultCache here")
    p.add_argument("--telemetry-dir", default=None, metavar="DIR",
                   help="write the causal NDJSON event log here")
    add_jobs(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "cache",
        help="inspect or prune the result cache and warm-state store")
    p.add_argument("action", choices=["stats", "prune"],
                   help="stats: show entry counts/sizes; prune: drop "
                        "entries from other code versions, then show stats")
    p.add_argument("--results-dir", default="benchmarks/results/.cache",
                   metavar="DIR", help="result-cache directory")
    p.add_argument("--warm-dir", default=None, metavar="DIR",
                   help="warm-state store directory (default: "
                        "$REPRO_WARMSTORE_DIR or "
                        "benchmarks/results/.warmstore)")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("recon", help="reverse-engineer the bank function")
    p.add_argument("--mapping", choices=["row", "line", "xor"], default="xor")
    p.set_defaults(func=cmd_recon)

    p = sub.add_parser("detect", help="run the cache-monitor detector")
    p.add_argument("--bits", type=int, default=128)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser(
        "serve",
        help="run the simulation-as-a-service daemon (JSON-lines TCP over "
             "the persistent worker pool)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=9306,
                   help="listen port; 0 picks a free one (default 9306)")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="max concurrent points (default: CPU count)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="persist point results to a ResultCache here")
    p.add_argument("--warm-dir", default=None, metavar="DIR",
                   help="set REPRO_WARMSTORE_DIR so workers share warm "
                        "state on disk")
    p.add_argument("--port-file", default=None, metavar="PATH",
                   help="write the bound port here once listening")
    p.add_argument("--no-pool", action="store_true",
                   help="run points inline instead of on the fork-server "
                        "pool (debugging)")
    p.add_argument("--telemetry-dir", default=None, metavar="DIR",
                   help="write the causal NDJSON event log here (sets "
                        "REPRO_TELEMETRY_DIR for the daemon and its "
                        "workers); `repro top --dir` can tail it")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "top",
        help="live fleet view: per-client queues, worker throughput, "
             "stragglers (polls a daemon, or tails a telemetry dir)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=9306)
    p.add_argument("--dir", default=None, metavar="DIR",
                   help="offline mode: reconstruct the view from this "
                        "telemetry event-log directory instead of a daemon")
    p.add_argument("--interval", type=float, default=2.0, metavar="SEC",
                   help="refresh period (default 2s)")
    p.add_argument("--once", action="store_true",
                   help="render one frame and exit (no screen clearing)")
    p.add_argument("--timeout", type=float, default=10.0)
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "submit",
        help="submit a sweep to a running `repro serve` daemon")
    p.add_argument("experiment", nargs="?", default=None,
                   help="registered experiment name (e.g. fig8, covert)")
    p.add_argument("--fn", default=None, metavar="MODULE:ATTR",
                   help="module-level point function instead of a "
                        "registered experiment")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=9306)
    p.add_argument("--points", default=None, metavar="JSON",
                   help='explicit point list, e.g. \'[{"llc_mb": 8}]\'')
    p.add_argument("--axis", default=None, metavar="NAME",
                   help="sweep one parameter: --axis llc_mb --values 8 64")
    p.add_argument("--values", nargs="*", default=[], metavar="V",
                   help="JSON values for --axis")
    p.add_argument("--priority", type=int, default=0,
                   help="higher runs earlier within this client")
    p.add_argument("--timeout", type=float, default=600.0)
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-point progress lines")
    p.add_argument("--metrics", action="store_true",
                   help="print the daemon's metrics snapshot and exit")
    p.add_argument("--status", action="store_true",
                   help="print scheduler status and exit")
    p.add_argument("--shutdown", action="store_true",
                   help="ask the daemon to exit")
    p.set_defaults(func=cmd_submit)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # `repro top | head` and friends: the reader went away, which is
        # not an error worth a traceback.
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
