"""Metrics registry: counters, gauges, histograms, and time series.

:mod:`repro.obs.core` collects *per-event* observability (spans, gap
records, raw counters); this module is the *aggregated* layer the
telemetry probe (:mod:`repro.obs.telemetry`) and the sweep executor
(:mod:`repro.exec.pool`) report into.  A :class:`MetricsRegistry`
holds four metric kinds:

* :class:`Counter` — monotonic counts (specs executed, cache hits),
* :class:`Gauge` — last-write-wins point values (worker utilization),
* :class:`Histogram` — fixed-bucket distributions with interpolated
  p50/p90/p99 (per-spec wall time),
* :class:`Series` — timestamped samples (windowed bandwidth, FIFO
  depth over time); timestamps are interface-clock cycles for
  simulation telemetry and seconds for executor metrics.

Metrics are identified by ``(name, labels)``; labels are free-form
key/value pairs (``bank="3"``, ``stream="x"``) so one logical metric
can fan out per bank or per stream without inventing name suffixes.

Three on-disk forms are supported (see :func:`to_prometheus`,
:func:`write_metrics_jsonl` / :func:`load_metrics_jsonl`, and
:func:`write_metrics_csv`); JSONL round-trips exactly, which
``repro-obs list``/``dump``/``plot`` rely on.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.errors import ObservabilityError

#: Label sets are stored canonically as sorted (key, value) tuples.
Labels = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds for wall-clock seconds
#: (log-spaced 1 ms .. 60 s); values above the last bound land in the
#: implicit overflow bucket.
DEFAULT_TIME_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def _canonical_labels(labels: Mapping[str, object]) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: Labels = (), help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self.value: Union[int, float] = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount

    def state(self) -> Dict[str, object]:
        return {"value": self.value}

    def restore(self, state: Mapping[str, object]) -> None:
        self.value = state["value"]  # type: ignore[assignment]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Counter):
            return NotImplemented
        return (self.name, self.labels, self.value) == (
            other.name, other.labels, other.value
        )


class Gauge:
    """A point-in-time value (last write wins)."""

    kind = "gauge"

    def __init__(self, name: str, labels: Labels = (), help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = value

    def state(self) -> Dict[str, object]:
        return {"value": self.value}

    def restore(self, state: Mapping[str, object]) -> None:
        self.value = state["value"]  # type: ignore[assignment]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gauge):
            return NotImplemented
        return (self.name, self.labels, self.value) == (
            other.name, other.labels, other.value
        )


class Histogram:
    """Fixed-bucket distribution with interpolated percentiles.

    Buckets are defined by ascending finite upper bounds; an implicit
    overflow bucket catches values above the last bound.  Percentiles
    are estimated by linear interpolation inside the bucket holding
    the target rank (the Prometheus ``histogram_quantile`` scheme),
    except that ranks landing in the overflow bucket report the
    maximum *observed* value rather than infinity.

    Args:
        name: Metric name.
        bounds: Ascending bucket upper bounds (inclusive).
        labels: Canonical label pairs.
        help: One-line description for exports.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        bounds: Iterable[float] = DEFAULT_TIME_BUCKETS,
        labels: Labels = (),
        help: str = "",
    ) -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        if not self.bounds:
            raise ObservabilityError(
                f"histogram {name!r} needs at least one bucket bound"
            )
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ObservabilityError(
                f"histogram {name!r} bounds must be strictly ascending: "
                f"{self.bounds}"
            )
        if not all(math.isfinite(b) for b in self.bounds):
            raise ObservabilityError(
                f"histogram {name!r} bounds must be finite (the overflow "
                "bucket is implicit)"
            )
        # One count per finite bound, plus the overflow bucket.
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation.

        The bucket is the first whose bound is ``>= value`` (found by
        bisection); values above every bound land in the overflow
        bucket.
        """
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def observe_counts(self, counts: Iterable[Tuple[float, int]]) -> None:
        """Record ``count`` observations of each ``(value, count)`` pair.

        The bulk form of :meth:`observe` for callers that tally values
        first (counts are positive): the state equals calling
        ``observe(value)`` ``count`` times per pair, in order, whenever
        the values are integers (each pair is added to :attr:`sum` as
        one product, which is exact while the sum stays below 2**53).
        """
        bounds = self.bounds
        bucket_counts = self.bucket_counts
        for value, count in counts:
            bucket_counts[bisect_left(bounds, value)] += count
            self.count += count
            self.sum += value * count
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` in [0, 1].

        Returns 0.0 for an empty histogram.  The estimate interpolates
        linearly within the bucket containing the target rank, using
        the previous bound (or the minimum observed value for the
        first occupied bucket) as the bucket's lower edge.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, bound in enumerate(self.bounds):
            in_bucket = self.bucket_counts[i]
            if cumulative + in_bucket >= rank and in_bucket > 0:
                lo = self.bounds[i - 1] if i > 0 else (
                    min(self.min or 0.0, bound)
                )
                fraction = (rank - cumulative) / in_bucket
                return lo + fraction * (bound - lo)
            cumulative += in_bucket
        # Rank lands in the overflow bucket: the best finite answer is
        # the largest value actually seen.
        return self.max if self.max is not None else self.bounds[-1]

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        return self.quantile(0.90)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def state(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    def restore(self, state: Mapping[str, object]) -> None:
        self.bucket_counts = list(state["bucket_counts"])  # type: ignore[arg-type]
        self.count = int(state["count"])  # type: ignore[arg-type]
        self.sum = float(state["sum"])  # type: ignore[arg-type]
        self.min = state["min"]  # type: ignore[assignment]
        self.max = state["max"]  # type: ignore[assignment]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.name, self.labels, self.bounds, self.bucket_counts,
            self.count, self.sum, self.min, self.max,
        ) == (
            other.name, other.labels, other.bounds, other.bucket_counts,
            other.count, other.sum, other.min, other.max,
        )


class Series:
    """Timestamped samples of one signal."""

    kind = "series"

    def __init__(self, name: str, labels: Labels = (), help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self.samples: List[Tuple[float, float]] = []

    def sample(self, t: float, value: float) -> None:
        """Append one (timestamp, value) sample."""
        self.samples.append((t, value))

    @property
    def last(self) -> Optional[float]:
        """Most recent sampled value, or None if empty."""
        return self.samples[-1][1] if self.samples else None

    def values(self) -> List[float]:
        return [value for _, value in self.samples]

    def total(self) -> float:
        """Sum of all sampled values (for windowed-rate reconciliation)."""
        return sum(value for _, value in self.samples)

    def state(self) -> Dict[str, object]:
        return {"samples": [[t, v] for t, v in self.samples]}

    def restore(self, state: Mapping[str, object]) -> None:
        self.samples = [
            (t, v) for t, v in state["samples"]  # type: ignore[union-attr]
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return (self.name, self.labels, self.samples) == (
            other.name, other.labels, other.samples
        )


Metric = Union[Counter, Gauge, Histogram, Series]

_KINDS = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
    "series": Series,
}


class MetricsRegistry:
    """Get-or-create registry of named, labeled metrics.

    Accessors are idempotent: asking for an existing ``(name, labels)``
    pair returns the same object, so hot paths can re-resolve by name
    without caching handles (though caching them is cheaper).  A name
    is bound to one metric kind; re-registering it as another kind
    raises :class:`~repro.errors.ObservabilityError`.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, Labels], Metric] = {}

    def counter(self, name: str, help: str = "", **labels: object) -> Counter:
        """The counter registered under ``(name, labels)``."""
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: object) -> Gauge:
        """The gauge registered under ``(name, labels)``."""
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        bounds: Iterable[float] = DEFAULT_TIME_BUCKETS,
        help: str = "",
        **labels: object,
    ) -> Histogram:
        """The histogram registered under ``(name, labels)``.

        ``bounds`` applies only on first registration; a later lookup
        with different bounds raises, since silently mixing bucket
        layouts would corrupt the distribution.
        """
        key = (name, _canonical_labels(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise ObservabilityError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            if tuple(float(b) for b in bounds) != existing.bounds:
                raise ObservabilityError(
                    f"histogram {name!r} already registered with bounds "
                    f"{existing.bounds}"
                )
            return existing
        metric = Histogram(name, bounds=bounds, labels=key[1], help=help)
        self._metrics[key] = metric
        return metric

    def series(self, name: str, help: str = "", **labels: object) -> Series:
        """The time series registered under ``(name, labels)``."""
        return self._get(Series, name, help, labels)

    def _get(self, cls, name: str, help: str, labels: Mapping[str, object]):
        key = (name, _canonical_labels(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ObservabilityError(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"not {cls.kind}"
                )
            return existing
        metric = cls(name, labels=key[1], help=help)
        self._metrics[key] = metric
        return metric

    def all(self) -> List[Metric]:
        """Every registered metric, sorted by (name, labels)."""
        return [self._metrics[key] for key in sorted(self._metrics)]

    def find(self, name: str) -> List[Metric]:
        """All metrics registered under ``name`` (any labels)."""
        return [m for m in self.all() if m.name == name]

    def names(self) -> List[str]:
        """Distinct metric names, sorted."""
        return sorted({name for name, _ in self._metrics})

    def __len__(self) -> int:
        return len(self._metrics)

    def __bool__(self) -> bool:
        # An empty registry is falsy but still a registry; explicit so
        # `if obs.metrics` reads as "has anything been recorded".
        return bool(self._metrics)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsRegistry):
            return NotImplemented
        return self._metrics == other._metrics


# ---------------------------------------------------------------------------
# Exporters


def _prom_name(name: str) -> str:
    """A Prometheus-safe metric name (dots and dashes to underscores)."""
    text = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    if text and text[0].isdigit():
        text = "_" + text
    return text


def _prom_escape(value: str) -> str:
    """Escape a label value per the text exposition format.

    Backslash first — escaping it later would double the marks the
    other two replacements introduce.
    """
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels: Labels, extra: Optional[Tuple[Tuple[str, str], ...]] = None) -> str:
    pairs = list(labels) + list(extra or ())
    if not pairs:
        return ""
    body = ",".join(
        f'{_prom_name(k)}="{_prom_escape(str(v))}"' for k, v in pairs
    )
    return "{" + body + "}"


def _prom_value(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    if value == math.inf:
        return "+Inf"
    return repr(float(value))


def to_prometheus(registry: MetricsRegistry, prefix: str = "repro") -> str:
    """Render the registry in the Prometheus text exposition format.

    Counters and gauges export directly; histograms export cumulative
    ``_bucket{le=...}`` lines plus ``_sum``/``_count``; a time series
    exports its *last* sample as a gauge (Prometheus scrapes are
    point-in-time — use the JSONL/CSV forms for full series).

    Args:
        registry: The metrics to render.
        prefix: Namespace prepended to every metric name.

    Returns:
        The exposition text, terminated by a newline (empty registry
        renders to an empty string).
    """
    lines: List[str] = []
    typed: Dict[str, str] = {}

    def header(metric: Metric, prom_type: str, full: str) -> None:
        if full in typed:
            if typed[full] != prom_type:
                raise ObservabilityError(
                    f"metric name {full!r} exported as both "
                    f"{typed[full]} and {prom_type}"
                )
            return
        typed[full] = prom_type
        if metric.help:
            lines.append(f"# HELP {full} {metric.help}")
        lines.append(f"# TYPE {full} {prom_type}")

    for metric in registry.all():
        full = f"{_prom_name(prefix)}_{_prom_name(metric.name)}" if prefix else _prom_name(metric.name)
        if isinstance(metric, Counter):
            header(metric, "counter", full)
            lines.append(
                f"{full}{_prom_labels(metric.labels)} "
                f"{_prom_value(metric.value)}"
            )
        elif isinstance(metric, Gauge):
            header(metric, "gauge", full)
            lines.append(
                f"{full}{_prom_labels(metric.labels)} "
                f"{_prom_value(metric.value)}"
            )
        elif isinstance(metric, Histogram):
            header(metric, "histogram", full)
            cumulative = 0
            for bound, count in zip(
                metric.bounds, metric.bucket_counts
            ):
                cumulative += count
                lines.append(
                    f"{full}_bucket"
                    f"{_prom_labels(metric.labels, (('le', _prom_value(float(bound))),))} "
                    f"{cumulative}"
                )
            lines.append(
                f"{full}_bucket"
                f"{_prom_labels(metric.labels, (('le', '+Inf'),))} "
                f"{metric.count}"
            )
            lines.append(
                f"{full}_sum{_prom_labels(metric.labels)} "
                f"{_prom_value(metric.sum)}"
            )
            lines.append(
                f"{full}_count{_prom_labels(metric.labels)} {metric.count}"
            )
        elif isinstance(metric, Series):
            header(metric, "gauge", full)
            last = metric.last
            if last is not None:
                lines.append(
                    f"{full}{_prom_labels(metric.labels)} "
                    f"{_prom_value(last)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def metrics_records(registry: MetricsRegistry) -> List[Dict[str, object]]:
    """The registry as JSON-safe records (one per metric)."""
    records: List[Dict[str, object]] = []
    for metric in registry.all():
        record: Dict[str, object] = {
            "type": metric.kind,
            "name": metric.name,
            "labels": dict(metric.labels),
        }
        if metric.help:
            record["help"] = metric.help
        record.update(metric.state())
        records.append(record)
    return records


def _restore_record(
    registry: MetricsRegistry, record: Mapping[str, object]
) -> None:
    kind = record.get("type")
    cls = _KINDS.get(str(kind))
    if cls is None:
        return  # unknown record types are skipped; format can grow
    name = str(record["name"])
    labels = {
        str(k): str(v)
        for k, v in (record.get("labels") or {}).items()  # type: ignore[union-attr]
    }
    help_text = str(record.get("help", ""))
    if cls is Histogram:
        metric = registry.histogram(
            name, bounds=record["bounds"], help=help_text, **labels  # type: ignore[arg-type]
        )
    elif cls is Counter:
        metric = registry.counter(name, help=help_text, **labels)
    elif cls is Gauge:
        metric = registry.gauge(name, help=help_text, **labels)
    else:
        metric = registry.series(name, help=help_text, **labels)
    metric.restore(record)


def write_metrics_jsonl(path: str, registry: MetricsRegistry) -> int:
    """Write one JSON object per metric; returns the record count.

    The inverse of :func:`load_metrics_jsonl`: every metric kind,
    including full series samples and histogram buckets, round-trips
    exactly.
    """
    records = metrics_records(registry)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
    except OSError as error:
        raise ObservabilityError(
            f"cannot write metrics file: {error}"
        ) from None
    return len(records)


def load_metrics_jsonl(path: str) -> MetricsRegistry:
    """Read a :func:`write_metrics_jsonl` file back into a registry.

    Raises:
        ObservabilityError: If the file cannot be read or a line is not
            a metrics record; the message names the file and line.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise ObservabilityError(
            f"cannot read metrics file: {error}"
        ) from None
    except UnicodeDecodeError as error:
        raise ObservabilityError.malformed(path, "text file", error) from None
    registry = MetricsRegistry()
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            _restore_record(registry, json.loads(line))
        except ObservabilityError.MALFORMED as error:
            raise ObservabilityError.malformed(
                f"{path}:{number}", "JSONL metrics record", error
            ) from None
    return registry


def write_metrics_csv(path: str, registry: MetricsRegistry) -> int:
    """Write the registry as flat CSV rows; returns the row count.

    Series emit one row per sample (``name,labels,t,value``); scalar
    metrics emit a single row with an empty timestamp; histograms emit
    one row per percentile plus count/sum.  Convenient for pandas or a
    spreadsheet; use JSONL for lossless round-trips.
    """
    rows: List[Tuple[str, str, str, str]] = []
    for metric in registry.all():
        label_text = ";".join(f"{k}={v}" for k, v in metric.labels)
        if isinstance(metric, Series):
            for t, value in metric.samples:
                rows.append((metric.name, label_text, repr(t), repr(value)))
        elif isinstance(metric, Histogram):
            for stat, value in (
                ("count", float(metric.count)),
                ("sum", metric.sum),
                ("p50", metric.p50),
                ("p90", metric.p90),
                ("p99", metric.p99),
            ):
                rows.append(
                    (f"{metric.name}.{stat}", label_text, "", repr(value))
                )
        else:
            rows.append((metric.name, label_text, "", repr(metric.value)))
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("metric,labels,t,value\n")
            for row in rows:
                handle.write(",".join(row) + "\n")
    except OSError as error:
        raise ObservabilityError(
            f"cannot write metrics file: {error}"
        ) from None
    return len(rows)
