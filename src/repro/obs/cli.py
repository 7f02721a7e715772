"""The ``repro-obs`` command: read back what the observability layer writes.

One command inspects every exported file::

    repro-obs trace t.json                  # run summary
    repro-obs trace t.json --stalls         # stall bucket table
    repro-obs trace t.json --counters       # named counters
    repro-obs trace t.json --spans 20       # first 20 span events
    repro-obs list m.jsonl                  # metric inventory
    repro-obs dump m.jsonl                  # Prometheus text format
    repro-obs dump m.jsonl --format csv --out m.csv
    repro-obs plot m.jsonl telemetry.data_bus_utilization
    repro-obs plot m.jsonl telemetry.stall_cycles --label bucket=fifo
    repro-obs report --ledger run.jsonl --metrics m.jsonl \\
                     --traffic traffic.json --out report.html

Traces come from ``repro-simulate --trace-out`` (Chrome/Perfetto trace
JSON, or JSONL), metrics files from ``repro-simulate --telemetry N
--metrics-out PATH``, run ledgers from ``repro-experiments --ledger``,
and traffic results from
:meth:`repro.traffic.driver.TrafficResult.to_dict` JSON.  Past argument
parsing, any failure, a malformed file included, is one ``error:`` line
on stderr and exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ObservabilityError, ReproError
from repro.obs.attribution import format_stall_table
from repro.obs.export import TraceDocument, load_trace_file
from repro.obs.ledger import Ledger
from repro.obs.metrics import (
    Histogram,
    Metric,
    Series,
    load_metrics_jsonl,
    to_prometheus,
    write_metrics_csv,
    write_metrics_jsonl,
)
from repro.obs.report import render_report

#: Eight-level bar glyphs for sparkline plots.
_SPARKS = " ▁▂▃▄▅▆▇█"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description=(
            "Inspect exported traces and metrics files, or render them "
            "with run ledgers into one self-contained HTML report."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace = sub.add_parser(
        "trace", help="summarize a trace (repro-simulate --trace-out)"
    )
    trace.add_argument("file", help="trace.json or .jsonl file to inspect")
    trace.add_argument("--stalls", action="store_true",
                       help="print the stall-attribution bucket table")
    trace.add_argument("--counters", action="store_true",
                       help="print all named counters")
    trace.add_argument("--spans", type=int, nargs="?", const=20,
                       default=None, metavar="N",
                       help="print the first N span events (default 20)")
    trace.set_defaults(run=_trace)

    list_p = sub.add_parser("list", help="list metrics in a file")
    list_p.add_argument("file", help="metrics .jsonl file")
    list_p.set_defaults(run=_list)

    dump = sub.add_parser("dump", help="re-export a metrics file")
    dump.add_argument("file", help="metrics .jsonl file")
    dump.add_argument(
        "--format", choices=("prometheus", "jsonl", "csv"),
        default="prometheus", help="output format (default prometheus)",
    )
    dump.add_argument(
        "--out", metavar="PATH",
        help="write to PATH instead of stdout (required for csv/jsonl)",
    )
    dump.set_defaults(run=_dump)

    plot = sub.add_parser("plot", help="ASCII-plot a series/histogram")
    plot.add_argument("file", help="metrics .jsonl file")
    plot.add_argument("name", help="metric name (see 'list')")
    plot.add_argument(
        "--label", action="append", default=[], metavar="K=V",
        help="only metrics carrying this label (repeatable)",
    )
    plot.add_argument(
        "--width", type=int, default=64,
        help="plot width in characters (default 64)",
    )
    plot.set_defaults(run=_plot)

    report = sub.add_parser(
        "report",
        help="render a run ledger, metrics dump, and/or traffic results "
             "into one self-contained HTML report",
    )
    report.add_argument(
        "--ledger", metavar="FILE",
        help="run ledger JSONL (execution(ledger=...) / --ledger)",
    )
    report.add_argument(
        "--metrics", metavar="FILE",
        help="metrics JSONL (repro-simulate --metrics-out / "
             "write_metrics_jsonl)",
    )
    report.add_argument(
        "--traffic", metavar="FILE", action="append", default=[],
        help="TrafficResult JSON (to_dict form); repeatable",
    )
    report.add_argument(
        "--title", default="repro run report", help="report title"
    )
    report.add_argument(
        "--out", metavar="FILE", default="repro-report.html",
        help="output HTML path (default repro-report.html)",
    )
    report.set_defaults(run=_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.run(args)
        # Flush inside the try, so a reader that went away raises here
        # rather than at interpreter exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout went away (e.g. piped into head): exit quietly, with
        # stdout on devnull so the exit-time flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (ReproError, OSError) as error:
        sys.stderr.write(f"error: {error}\n")
        return 1
    return 0


# ---------------------------------------------------------------- trace


def _trace(args: argparse.Namespace) -> None:
    if args.spans is not None and args.spans < 0:
        raise ConfigurationError(f"--spans wants N >= 0, got {args.spans}")
    document = load_trace_file(args.file)
    if not (args.stalls or args.counters or args.spans is not None):
        _summary(args.file, document)
        return
    if args.stalls:
        if document.stalls is None:
            raise ObservabilityError(
                f"{args.file!r} carries no stall-attribution data; "
                "re-export the run with repro-simulate --trace-out "
                "(or embed stalls in the JSONL)"
            )
        print(format_stall_table(document.stalls))
    if args.counters:
        if not document.counters:
            raise ObservabilityError(
                f"{args.file!r} carries no counters"
            )
        width = max(len(name) for name in document.counters)
        for name in sorted(document.counters):
            print(f"{name:<{width}s}  {document.counters[name]}")
    if args.spans is not None:
        for span in document.spans[: args.spans]:
            detail = " ".join(f"{k}={v}" for k, v in span.args)
            print(
                f"[{span.start:>7d}, {span.end:>7d})  "
                f"{span.track:<12s} {span.name}"
                + (f"  ({detail})" if detail else "")
            )


def _summary(path: str, document: TraceDocument) -> None:
    print(f"trace        : {path}")
    for key in ("kernel", "organization", "policy", "cycles",
                "last_data_end"):
        if key in document.meta:
            print(f"{key:<13s}: {document.meta[key]}")
    print(
        f"events       : {len(document.spans)} spans, "
        f"{len(document.instants)} instants, "
        f"{len(document.counters)} counters, "
        f"{len(document.gauges)} gauges"
    )
    if document.stalls is not None:
        print(format_stall_table(document.stalls))


# ------------------------------------------------------- list, dump, plot


def _list(args: argparse.Namespace) -> None:
    registry = load_metrics_jsonl(args.file)
    if not registry:
        print("(no metrics)")
        return
    width = max(len(m.name) for m in registry.all())
    for metric in registry.all():
        labels = " ".join(f"{k}={v}" for k, v in metric.labels)
        if isinstance(metric, Series):
            detail = f"{len(metric.samples)} samples"
        elif isinstance(metric, Histogram):
            detail = (
                f"count={metric.count} p50={metric.p50:g} "
                f"p90={metric.p90:g} p99={metric.p99:g}"
            )
        else:
            detail = f"value={metric.value:g}"
        print(
            f"{metric.kind:<9s} {metric.name:<{width}s}"
            + (f"  {{{labels}}}" if labels else "")
            + f"  {detail}"
        )


def _dump(args: argparse.Namespace) -> None:
    registry = load_metrics_jsonl(args.file)
    if args.format == "prometheus":
        text = to_prometheus(registry)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return
    if not args.out:
        raise ConfigurationError(
            f"--format {args.format} needs --out PATH"
        )
    if args.format == "jsonl":
        count = write_metrics_jsonl(args.out, registry)
    else:
        count = write_metrics_csv(args.out, registry)
    print(f"wrote {count} {args.format} records to {args.out}")


def _plot(args: argparse.Namespace) -> None:
    registry = load_metrics_jsonl(args.file)
    wanted = _parse_labels(args.label)
    matches = [
        metric for metric in registry.find(args.name)
        if all(pair in metric.labels for pair in wanted)
    ]
    if not matches:
        known = ", ".join(sorted(registry.names())) or "(none)"
        raise ObservabilityError(
            f"no metric named {args.name!r}"
            + (f" with labels {dict(wanted)}" if wanted else "")
            + f" in {args.file!r}; known names: {known}"
        )
    for metric in matches:
        _plot_one(metric, max(8, args.width))


def _parse_labels(pairs: Sequence[str]) -> List[Tuple[str, str]]:
    parsed = []
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigurationError(
                f"--label wants K=V, got {pair!r}"
            )
        parsed.append((key, value))
    return parsed


def _plot_one(metric: Metric, width: int) -> None:
    labels = " ".join(f"{k}={v}" for k, v in metric.labels)
    title = metric.name + (f" {{{labels}}}" if labels else "")
    if isinstance(metric, Series):
        values = metric.values()
        if not values:
            print(f"{title}: (no samples)")
            return
        lo, hi = min(values), max(values)
        print(
            f"{title}: {len(values)} samples, "
            f"min={lo:g} max={hi:g} last={values[-1]:g}"
        )
        print("  " + _sparkline(_rebin(values, width), lo, hi))
        first_t = metric.samples[0][0]
        last_t = metric.samples[-1][0]
        print(f"  t={first_t} .. {last_t}")
    elif isinstance(metric, Histogram):
        print(
            f"{title}: count={metric.count} p50={metric.p50:g} "
            f"p90={metric.p90:g} p99={metric.p99:g}"
        )
        peak = max(metric.bucket_counts) or 1
        edges = [*metric.bounds, float("inf")]
        for bound, count in zip(edges, metric.bucket_counts):
            bar = "#" * round(width * count / peak)
            print(f"  le {bound:>10g}  {count:>8d}  {bar}")
    else:
        print(f"{title}: {metric.value:g}")


def _rebin(values: Sequence[float], width: int) -> List[float]:
    """Reduce a series to at most ``width`` points by bucket-averaging."""
    if len(values) <= width:
        return list(values)
    binned = []
    for i in range(width):
        lo = i * len(values) // width
        hi = max(lo + 1, (i + 1) * len(values) // width)
        chunk = values[lo:hi]
        binned.append(sum(chunk) / len(chunk))
    return binned


def _sparkline(values: Sequence[float], lo: float, hi: float) -> str:
    span = hi - lo
    if span <= 0:
        # A flat series: draw the floor glyph when it sits at zero.
        glyph = _SPARKS[1] if hi == 0 else _SPARKS[-1]
        return glyph * len(values)
    levels = len(_SPARKS) - 1
    return "".join(
        _SPARKS[round((value - lo) / span * levels)] for value in values
    )


# --------------------------------------------------------------- report


def _report(args: argparse.Namespace) -> None:
    text = render_report(
        ledger=Ledger.load(args.ledger) if args.ledger else None,
        metrics=load_metrics_jsonl(args.metrics) if args.metrics else None,
        traffic=[_load_traffic(path) for path in args.traffic],
        title=args.title,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {args.out}")


def _load_traffic(path: str):
    from repro.traffic.driver import TrafficResult

    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, Mapping) or "organization" not in data:
            raise ObservabilityError(
                f"{path}: not a TrafficResult (missing 'organization')"
            )
        return TrafficResult.from_dict(data)
    except ObservabilityError.MALFORMED as error:
        raise ObservabilityError.malformed(
            path, "TrafficResult JSON file", error
        ) from None


if __name__ == "__main__":
    raise SystemExit(main())
