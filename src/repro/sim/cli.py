"""Command-line simulator: one kernel, one configuration, full report.

Installed as ``repro-simulate``.  Runs a single SMC simulation (or the
natural-order baseline) and prints the result, optionally with the
Gantt trace view, derived metrics, a protocol audit, stall statistics,
a machine-readable JSON report, or an exported event trace::

    repro-simulate daxpy --org pi --fifo-depth 64 --gantt --metrics
    repro-simulate "y[i] = a*x[i] + y[i]" --compile --org cli
    repro-simulate vaxpy --baseline natural-order --stride 4
    repro-simulate daxpy --org pi --stats --trace-out trace.json
    repro-simulate copy --org cli --json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence

from repro.errors import ConfigurationError, ObservabilityError, ReproError
from repro.analytic.cache import natural_order_bound
from repro.analytic.smc import smc_bound
from repro.compiler.frontend import compile_loop
from repro.core.policies import POLICIES
from repro.core.smc import build_smc_system
from repro.cpu.kernels import KERNELS, get_kernel
from repro.cpu.streams import Alignment
from repro.memsys.address import MAPPINGS
from repro.memsys.config import MemoryTopology
from repro.memsys.pagemanager import PAGE_POLICIES
from repro.cache.controller import CachedNaturalOrderController
from repro.core.l2stream import L2StreamingController
from repro.naturalorder.controller import NaturalOrderController
from repro.obs import AccessMix, Instrumentation, access_mix, attribute_stalls
from repro.obs.export import write_chrome_trace, write_jsonl
from repro.obs.metrics import write_metrics_jsonl
from repro.rdram.audit import audit_memory
from repro.rdram.tracefmt import render_trace
from repro.exec import execution
from repro.traffic.scheduling import SCHEDULERS
from repro.sim.engine import run_smc
from repro.sim.metrics import bank_imbalance, measure_trace
from repro.sim.runner import (
    RunSpec,
    apply_policy_overrides,
    resolve_config,
    resolve_policy,
    simulate,
)

#: ``--baseline`` name -> controller class; all take the same
#: ``(config, record_trace=..., refresh=...)`` arguments.
BASELINES = {
    "natural-order": NaturalOrderController,
    "cached": CachedNaturalOrderController,
    "l2-streaming": L2StreamingController,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-simulate",
        description=(
            "Simulate a streaming kernel on a Direct RDRAM memory system "
            "(HPCA 1999 reproduction)."
        ),
    )
    parser.add_argument(
        "kernel",
        nargs="?",
        default=None,
        help=f"kernel name ({', '.join(sorted(KERNELS))}) or, with "
             "--compile, a loop body like 'y[i] = a*x[i] + y[i]'",
    )
    parser.add_argument("--compile", action="store_true",
                        help="treat KERNEL as loop source to compile")
    parser.add_argument("--org", default="cli", choices=("cli", "pi"),
                        help="memory organization (default cli)")
    parser.add_argument("--channels", type=int, default=1, metavar="N",
                        help="independent Rambus channels (default 1); "
                             "multi-channel runs print the plain report")
    parser.add_argument("--devices", type=int, default=1, metavar="M",
                        help="RDRAM devices per channel (default 1)")
    parser.add_argument("--length", type=int, default=1024,
                        help="vector length in elements (default 1024)")
    parser.add_argument("--fifo-depth", type=int, default=64,
                        help="SMC FIFO depth in elements (default 64)")
    parser.add_argument("--stride", type=int, default=1,
                        help="vector stride in 64-bit words (default 1)")
    parser.add_argument("--alignment", default="staggered",
                        choices=("staggered", "aligned"),
                        help="vector base placement (default staggered)")
    parser.add_argument("--policy", default="round-robin",
                        choices=POLICIES.names(),
                        help="MSU scheduling policy")
    parser.add_argument("--interleaving", default=None, metavar="NAME",
                        help="registered address mapping overriding the "
                             "organization's own (see --list-policies)")
    parser.add_argument("--page-policy", default=None, metavar="NAME",
                        help="registered page-management policy "
                             "overriding the organization's own (see "
                             "--list-policies)")
    parser.add_argument("--list-policies", action="store_true",
                        help="list registered address mappings, page "
                             "policies, MSU scheduling policies and "
                             "traffic schedulers, then exit")
    parser.add_argument("--baseline", default=None,
                        choices=tuple(BASELINES),
                        help="run a traditional controller instead of "
                             "the SMC: the bare natural-order device, "
                             "the cache-realistic natural-order "
                             "controller, or the L2-streaming variant")
    parser.add_argument("--refresh", action="store_true",
                        help="run the background refresh engine")
    parser.add_argument("--gantt", type=int, nargs="?", const=120,
                        default=None, metavar="CYCLES",
                        help="print the first CYCLES cycles as a timing "
                             "diagram (default 120)")
    parser.add_argument("--metrics", action="store_true",
                        help="print trace-derived bus/bank metrics")
    parser.add_argument("--audit", action="store_true",
                        help="verify the packet trace against the "
                             "protocol auditor")
    parser.add_argument("--bounds", action="store_true",
                        help="print the Section 5 analytic bounds")
    parser.add_argument("--stats", action="store_true",
                        help="print instrumentation counters and the "
                             "stall-attribution table")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="export the instrumented run as a Chrome/"
                             "Perfetto trace (or JSONL if PATH ends "
                             "with .jsonl)")
    parser.add_argument("--telemetry", type=int, default=None, metavar="N",
                        help="sample telemetry every N cycles into "
                             "windowed time series (inspect with "
                             "repro-obs list/plot/dump)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the run's metrics registry as JSONL "
                             "(implies --telemetry 256 when no window "
                             "is given)")
    parser.add_argument("--json", action="store_true",
                        help="print a machine-readable JSON report "
                             "instead of the human-readable one")
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="content-addressed result cache directory; "
                             "plain (trace-free, uninstrumented) runs "
                             "reuse previously simulated results")
    parser.add_argument("--profile", type=int, nargs="?", const=20,
                        default=None, metavar="N",
                        help="run under cProfile and print the top N "
                             "functions by cumulative time (default 20)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.profile is not None:
            return _run_profiled(args)
        return _run(args)
    except ReproError as error:
        sys.stderr.write(f"error: {error}\n")
        return 1


def _run_profiled(args) -> int:
    """Run the command under cProfile and print the hot spots.

    The profile covers the whole command (system construction,
    simulation, and reporting), so kernel hot spots show up with their
    true share of the wall-clock.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    try:
        return profiler.runcall(_run, args)
    finally:
        print()
        print(f"profile (top {args.profile} by cumulative time):")
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(args.profile)


def _require_trace(trace, flag: str):
    """The recorded packet trace, or a clear error if there is none."""
    if trace is None:
        raise ObservabilityError(
            f"{flag} needs the packet trace, but this run was built "
            "without trace recording (record_trace=False)"
        )
    return trace


def list_policies() -> str:
    """The registered policy tables, one name per line.

    One unified listing across every registry a run can draw from:
    address mappings, page policies, MSU scheduling policies and
    traffic request schedulers.
    """
    lines = []
    for title, registry in (
        ("address mappings (--interleaving):", MAPPINGS),
        ("page policies (--page-policy):", PAGE_POLICIES),
        ("MSU scheduling policies (--policy):", POLICIES),
        ("traffic schedulers (run_traffic scheduler=..., repro-search):",
         SCHEDULERS),
    ):
        lines.append(title)
        for name in registry.names():
            summary = registry[name].__doc__.splitlines()[0]
            lines.append(f"  {name:12s} {summary}")
    return "\n".join(lines)


def _run(args) -> int:
    if args.list_policies:
        print(list_policies())
        return 0
    if args.kernel is None:
        raise ConfigurationError(
            "a kernel is required (or use --list-policies); "
            f"registered kernels: {sorted(KERNELS)}"
        )
    if args.json and args.gantt is not None:
        raise ConfigurationError(
            "--json and --gantt are mutually exclusive; export the run "
            "with --trace-out to inspect its timeline"
        )
    config = apply_policy_overrides(
        resolve_config(args.org),
        interleaving=args.interleaving,
        page_policy=args.page_policy,
    )
    if args.compile:
        kernel = compile_loop(args.kernel)
    else:
        kernel = get_kernel(args.kernel)
    telemetry = args.telemetry
    if telemetry is None and args.metrics_out:
        telemetry = 256
    need_trace = bool(args.gantt is not None or args.metrics or args.audit)
    need_obs = bool(
        args.json or args.stats or args.trace_out or telemetry
    )
    # The cached and L2-streaming controllers carry their row-buffer
    # statistics in the result record itself rather than through an
    # Instrumentation, so obs-only features are rejected up front.
    obsless = args.baseline in ("cached", "l2-streaming")
    if obsless and (args.stats or args.trace_out or telemetry):
        raise ConfigurationError(
            f"--baseline {args.baseline} is not instrumented; "
            "--stats, --trace-out, --telemetry and --metrics-out are "
            "available for the SMC and the natural-order baseline only"
        )
    obs = (
        Instrumentation(telemetry_window=telemetry)
        if need_obs and not obsless else None
    )
    multi = (args.channels, args.devices) != (1, 1)
    if multi:
        # Validate the topology up front for a clean CLI error, and
        # fold it into the config so the report's organization line
        # carries the "NchxMdev" prefix.  RunSpec decomposes a config
        # topology back into its channels/devices fields, so cache
        # keys are unchanged.
        topology = MemoryTopology(
            channels=args.channels, devices_per_channel=args.devices
        )
        config = dataclasses.replace(config, topology=topology)
        if args.metrics or need_obs:
            raise ConfigurationError(
                "multi-channel runs support the plain report, --gantt "
                "and --audit only: trace metrics, instrumentation and "
                "telemetry assume a single channel's buses"
            )

    if args.baseline:
        controller = BASELINES[args.baseline](
            config, record_trace=need_trace, refresh=args.refresh
        )
        # Only natural-order's run takes obs (None for the obsless
        # baselines above).
        extra = {} if obs is None else {"obs": obs}
        result = controller.run(
            kernel,
            length=args.length,
            stride=args.stride,
            alignment=Alignment(args.alignment),
            **extra,
        )
        memory = controller.device
    elif not need_trace and not need_obs:
        # Trace-free, uninstrumented SMC runs go through the RunSpec
        # front door, where --cache can satisfy them instantly.
        spec = RunSpec(
            kernel=kernel,
            organization=config,
            length=args.length,
            fifo_depth=args.fifo_depth,
            stride=args.stride,
            alignment=args.alignment,
            policy=args.policy,
            refresh=args.refresh,
            channels=args.channels,
            devices=args.devices,
        )
        with execution(cache=args.cache):
            result = simulate(spec)
        memory = None
    else:
        system = build_smc_system(
            kernel,
            config,
            length=args.length,
            fifo_depth=args.fifo_depth,
            stride=args.stride,
            alignment=Alignment(args.alignment),
            policy=resolve_policy(args.policy),
            record_trace=need_trace,
            refresh=args.refresh,
        )
        result = run_smc(system, obs=obs)
        memory = system.device
    trace = memory.trace if memory is not None else None

    stalls = attribute_stalls(obs) if obs is not None else None
    metrics_written = None
    if args.metrics_out and obs is not None:
        metrics_written = write_metrics_jsonl(args.metrics_out, obs.metrics)
    result_dict = dataclasses.asdict(result)
    result_dict["percent_of_peak"] = result.percent_of_peak
    result_dict["percent_of_attainable"] = result.percent_of_attainable
    result_dict["effective_bandwidth_bytes_per_sec"] = (
        result.effective_bandwidth_bytes_per_sec
    )

    exported = None
    if args.trace_out:
        write = (
            write_jsonl if args.trace_out.endswith(".jsonl")
            else write_chrome_trace
        )
        exported = write(
            args.trace_out, obs, result=result_dict,
            stalls=stalls.as_dict() if stalls else None,
        )

    # Audit before any report, so a JSON report is audited too.
    audit = None
    if args.audit:
        _require_trace(trace, "--audit")
        reports = audit_memory(memory)
        audit = {
            "channels": len(reports),
            "col_packets": sum(r.col_packets for r in reports),
            "turnarounds": sum(r.turnarounds for r in reports),
        }

    if args.json:
        report = {"result": result_dict}
        if audit is not None:
            report["audit"] = audit
        if obs is not None:
            report["counters"] = dict(obs.counters.counters)
            report["access_mix"] = access_mix(obs).as_dict()
        else:
            # The cached and L2-streaming controllers report their
            # row-buffer outcomes through the result record.
            report["counters"] = {}
            report["access_mix"] = AccessMix(
                page_hits=result.page_hits,
                page_misses=result.page_misses,
                bank_conflicts=result.bank_conflicts,
                autocloses=0,
            ).as_dict()
        if stalls is not None:
            report["stalls"] = stalls.as_dict()
        if metrics_written is not None:
            report["metrics_out"] = args.metrics_out
        if args.metrics:
            metrics = measure_trace(
                _require_trace(trace, "--metrics"), config.timing
            )
            report["metrics"] = {
                "data_bus_utilization": metrics.data_bus_utilization,
                "row_bus_utilization": metrics.row_bus_utilization,
                "col_bus_utilization": metrics.col_bus_utilization,
                "turnaround_cycles": metrics.turnaround_cycles,
                "bank_imbalance": bank_imbalance(
                    metrics, config.geometry.num_banks
                ),
            }
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0

    print(f"kernel       : {kernel.name}  ({kernel.expression})")
    print(f"organization : {config.describe()}")
    print(f"controller   : {result.policy}")
    print(f"cycles       : {result.cycles}")
    print(f"bandwidth    : {result.percent_of_peak:.2f}% of peak "
          f"({result.effective_bandwidth_bytes_per_sec / 1e9:.3f} GB/s)")
    if result.stride > 1:
        print(f"attainable   : {result.percent_of_attainable:.2f}% "
              "(stride-limited ceiling)")
    print(f"traffic      : {result.transferred_bytes} bytes moved for "
          f"{result.useful_bytes} useful")
    if result.channel_transferred_bytes:
        shares = "/".join(f"{s:.0%}" for s in result.channel_shares)
        print(f"channels     : "
              f"{list(result.channel_transferred_bytes)} bytes ({shares})")
    print(f"activity     : {result.packets_issued} packets, "
          f"{result.activations} activations, "
          f"{result.bank_conflicts} bank conflicts, "
          f"{result.refreshes} refreshes")
    if result.page_hits or result.page_misses:
        print(f"row buffer   : {result.page_hit_rate:.1%} page-hit rate "
              f"({result.page_hits} hits / {result.page_misses} misses)")
    if exported is not None:
        print(f"trace        : {exported} records written to "
              f"{args.trace_out}")
    if telemetry and obs is not None:
        windows = len(
            obs.metrics.series("telemetry.busy_cycles").samples
        )
        print(f"telemetry    : {windows} windows of {telemetry} cycles")
    if metrics_written is not None:
        print(f"metrics      : {metrics_written} records written to "
              f"{args.metrics_out}")

    if args.stats:
        print()
        print(f"access mix   : {access_mix(obs).summary()}")
        print()
        print(stalls.table())
        if obs.counters.counters:
            print()
            print("counters:")
            for name in sorted(obs.counters.counters):
                print(f"  {name:28s} {obs.counters.get(name)}")

    if args.bounds:
        cache = natural_order_bound(
            config, kernel.num_read_streams, kernel.num_write_streams,
            stride=args.stride,
        )
        smc = smc_bound(
            config, kernel.num_read_streams, kernel.num_write_streams,
            args.length, args.fifo_depth, stride=args.stride,
        )
        print(f"bounds       : natural-order {cache.percent_of_peak:.2f}%, "
              f"SMC combined {smc.percent_combined_limit:.2f}% "
              f"(startup {smc.percent_startup_limit:.2f}%, "
              f"asymptotic {smc.percent_asymptotic_limit:.2f}%)")

    if audit is not None:
        print(f"audit        : OK ({audit['col_packets']} col packets, "
              f"{audit['turnarounds']} turnarounds)")

    if args.metrics:
        metrics = measure_trace(_require_trace(trace, "--metrics"), config.timing)
        print(f"bus load     : data {metrics.data_bus_utilization:.1%}, "
              f"row {metrics.row_bus_utilization:.1%}, "
              f"col {metrics.col_bus_utilization:.1%}; "
              f"bank imbalance "
              f"{bank_imbalance(metrics, config.geometry.num_banks):.2f}")

    if args.gantt is not None:
        print()
        print(render_trace(_require_trace(trace, "--gantt"), until=args.gantt))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
