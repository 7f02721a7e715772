"""Exporters and loaders for instrumented runs.

Two on-disk forms are supported:

* **Chrome trace JSON** (:func:`to_chrome_trace` /
  :func:`write_chrome_trace`) — the Trace Event Format understood by
  Perfetto (https://ui.perfetto.dev) and chrome://tracing.  Spans
  become complete ("X") events, instants become "i" events, gauges
  become counter ("C") tracks, and each instrumentation track becomes
  a named thread.  Timestamps map one interface-clock cycle to one
  microsecond tick, so cycle numbers read directly off the Perfetto
  ruler; the real wall time of a cycle (2.5 ns for the paper's -800
  part) is recorded in ``otherData``.
* **JSONL** (:func:`write_jsonl`) — one self-describing JSON object
  per line (``meta``, ``result``, ``stalls``, ``counter``, ``gauge``,
  ``span``, ``instant``), convenient for grep/jq pipelines and
  appending many runs to one log.

:func:`load_trace_file` reads either format back into a
:class:`TraceDocument`, which is what ``repro-obs trace`` consumes.
Counters, spans, instants, gauges, and embedded stall buckets
round-trip exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs.core import Instrumentation, InstantEvent, SpanEvent

#: Process id used for all exported events (one run == one process).
_PID = 1


@dataclass
class TraceDocument:
    """An exported run read back from disk.

    Attributes:
        meta: Run metadata (kernel, organization, cycles, ...).
        result: The simulation result fields, if embedded.
        stalls: The stall-attribution dict, if embedded.
        counters: Counter name -> value.
        gauges: Gauge name -> [(cycle, value), ...].
        spans: Span events in file order.
        instants: Instant events in file order.
    """

    meta: Dict[str, object] = field(default_factory=dict)
    result: Optional[Dict[str, object]] = None
    stalls: Optional[Dict[str, object]] = None
    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, List[Tuple[int, float]]] = field(default_factory=dict)
    spans: List[SpanEvent] = field(default_factory=list)
    instants: List[InstantEvent] = field(default_factory=list)


def to_chrome_trace(
    obs: Instrumentation,
    result: Optional[Dict[str, object]] = None,
    stalls: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Build the Chrome trace JSON object for an instrumented run.

    Args:
        obs: Instrumentation from a completed run.
        result: Optional simulation-result dict to embed.
        stalls: Optional stall-attribution dict to embed (from
            :meth:`repro.obs.attribution.StallAttribution.as_dict`).

    Returns:
        A JSON-serializable dict in Trace Event Format.
    """
    events: List[Dict[str, object]] = []
    tids: Dict[str, int] = {}

    def tid_of(track: str) -> int:
        if track not in tids:
            tids[track] = len(tids) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": _PID,
                    "tid": tids[track],
                    "args": {"name": track},
                }
            )
        return tids[track]

    for track in obs.tracer.tracks():
        tid_of(track)
    for span in obs.tracer.spans:
        events.append(
            {
                "name": span.name,
                "cat": span.track,
                "ph": "X",
                "ts": span.start,
                "dur": span.duration,
                "pid": _PID,
                "tid": tid_of(span.track),
                "args": dict(span.args),
            }
        )
    for instant in obs.tracer.instants:
        events.append(
            {
                "name": instant.name,
                "cat": instant.track,
                "ph": "i",
                "s": "t",
                "ts": instant.cycle,
                "pid": _PID,
                "tid": tid_of(instant.track),
                "args": dict(instant.args),
            }
        )
    for name, series in obs.counters.gauges.items():
        for cycle, value in series:
            events.append(
                {
                    "name": name,
                    "ph": "C",
                    "ts": cycle,
                    "pid": _PID,
                    "args": {"value": value},
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "meta": dict(obs.meta),
            "counters": obs.counters.counters,
            "result": result,
            "stalls": stalls,
            "timebase": "1 exported microsecond == 1 interface-clock cycle",
        },
    }


def write_chrome_trace(
    path: str,
    obs: Instrumentation,
    result: Optional[Dict[str, object]] = None,
    stalls: Optional[Dict[str, object]] = None,
) -> int:
    """Write a Chrome/Perfetto ``trace.json``; returns the event count."""
    document = to_chrome_trace(obs, result=result, stalls=stalls)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
    except OSError as error:
        raise ObservabilityError(
            f"cannot write trace file: {error}"
        ) from None
    return len(document["traceEvents"])  # type: ignore[arg-type]


def write_jsonl(
    path: str,
    obs: Instrumentation,
    result: Optional[Dict[str, object]] = None,
    stalls: Optional[Dict[str, object]] = None,
) -> int:
    """Write one JSON object per line; returns the line count."""
    lines: List[Dict[str, object]] = [{"type": "meta", **obs.meta}]
    if result is not None:
        lines.append({"type": "result", **result})
    if stalls is not None:
        lines.append({"type": "stalls", **stalls})
    for name, value in sorted(obs.counters.counters.items()):
        lines.append({"type": "counter", "name": name, "value": value})
    for name, series in obs.counters.gauges.items():
        lines.append({"type": "gauge", "name": name, "samples": series})
    for span in obs.tracer.spans:
        lines.append(
            {
                "type": "span",
                "track": span.track,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "args": dict(span.args),
            }
        )
    for instant in obs.tracer.instants:
        lines.append(
            {
                "type": "instant",
                "track": instant.track,
                "name": instant.name,
                "cycle": instant.cycle,
                "args": dict(instant.args),
            }
        )
    try:
        with open(path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(json.dumps(line) + "\n")
    except OSError as error:
        raise ObservabilityError(
            f"cannot write trace file: {error}"
        ) from None
    return len(lines)


def load_trace_file(path: str) -> TraceDocument:
    """Read a Chrome trace JSON or JSONL export back from disk.

    Raises:
        ObservabilityError: If the file is neither format; the message
            names the file, and the line for JSONL.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise ObservabilityError(f"cannot read trace file: {error}") from None
    except UnicodeDecodeError as error:
        raise ObservabilityError.malformed(path, "text file", error) from None
    stripped = text.lstrip()
    if not stripped:
        raise ObservabilityError(f"trace file {path!r} is empty")
    if stripped.startswith("{") and '"traceEvents"' in stripped[:4096]:
        try:
            return _from_chrome(json.loads(text))
        except ObservabilityError.MALFORMED as error:
            raise ObservabilityError.malformed(
                path, "Chrome trace", error
            ) from None
    return _from_jsonl(path, text)


def _args_tuple(args: object) -> Tuple[Tuple[str, object], ...]:
    if not isinstance(args, dict):
        return ()
    return tuple(sorted(args.items()))


def _from_chrome(document: Dict[str, object]) -> TraceDocument:
    other = document.get("otherData") or {}
    loaded = TraceDocument(
        meta=dict(other.get("meta") or {}),
        result=other.get("result"),
        stalls=other.get("stalls"),
        counters=dict(other.get("counters") or {}),
    )
    track_names: Dict[int, str] = {}
    for event in document["traceEvents"]:  # type: ignore[index]
        phase = event.get("ph")
        if phase == "M" and event.get("name") == "thread_name":
            track_names[event["tid"]] = event["args"]["name"]
        elif phase == "X":
            track = track_names.get(event.get("tid"), event.get("cat", ""))
            loaded.spans.append(
                SpanEvent(
                    track=track,
                    name=event["name"],
                    start=event["ts"],
                    end=event["ts"] + event.get("dur", 0),
                    args=_args_tuple(event.get("args")),
                )
            )
        elif phase == "i":
            track = track_names.get(event.get("tid"), event.get("cat", ""))
            loaded.instants.append(
                InstantEvent(
                    track=track,
                    name=event["name"],
                    cycle=event["ts"],
                    args=_args_tuple(event.get("args")),
                )
            )
        elif phase == "C":
            loaded.gauges.setdefault(event["name"], []).append(
                (event["ts"], event["args"]["value"])
            )
    return loaded


def _from_jsonl(path: str, text: str) -> TraceDocument:
    loaded = TraceDocument()
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            _add_jsonl_record(loaded, json.loads(line))
        except ObservabilityError.MALFORMED as error:
            raise ObservabilityError.malformed(
                f"{path}:{number}", "JSONL trace record", error
            ) from None
    return loaded


def _add_jsonl_record(loaded: TraceDocument, record: Dict[str, object]) -> None:
    kind = record.pop("type")
    if kind == "meta":
        loaded.meta = record
    elif kind == "result":
        loaded.result = record
    elif kind == "stalls":
        loaded.stalls = record
    elif kind == "counter":
        loaded.counters[record["name"]] = record["value"]
    elif kind == "gauge":
        loaded.gauges[record["name"]] = [
            (cycle, value) for cycle, value in record["samples"]
        ]
    elif kind == "span":
        loaded.spans.append(
            SpanEvent(
                track=record["track"],
                name=record["name"],
                start=record["start"],
                end=record["end"],
                args=_args_tuple(record.get("args")),
            )
        )
    elif kind == "instant":
        loaded.instants.append(
            InstantEvent(
                track=record["track"],
                name=record["name"],
                cycle=record["cycle"],
                args=_args_tuple(record.get("args")),
            )
        )
    # Unknown record types are skipped so the format can grow.

