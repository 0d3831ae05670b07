"""A small metrics registry: counters, gauges, and histograms.

The registry is the aggregate complement to :mod:`repro.obs.trace`:
spans answer *where a particular run spent its time*, metrics answer
*how much work happened overall* (evaluations, cache hits, chunk
latency distribution). Instruments are created on first use and keyed
by ``(name, labels)``, Prometheus-style::

    from repro.obs import metrics

    metrics.enable()
    reg = metrics.get_registry()
    reg.counter("focal_evaluations_total", "factory evaluations").inc(128)
    reg.gauge("focal_cache_hit_ratio").set(0.93)
    reg.histogram("focal_chunk_seconds").observe(0.0042)

Like tracing, the global registry is **disabled by default**; hot paths
check ``get_registry().enabled`` once and skip recording entirely, so
the disabled cost is a single attribute check per sweep or sampler
call. Exporters (JSON-lines and Prometheus text format) live in
:mod:`repro.obs.exporters` and are re-exported by
:mod:`repro.report.export`.
"""

from __future__ import annotations

from ..core.errors import ValidationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "get_registry",
    "enable",
    "disable",
    "reset",
    "count",
]

#: Default histogram bucket upper bounds (seconds-flavored); a final
#: +Inf bucket is implicit.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """Monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "help", "labels", "value")

    def __init__(self, name: str, help: str, labels: dict[str, str]) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ValidationError(f"counter increments must be >= 0, got {amount}")
        self.value += amount

    def snapshot(self) -> dict[str, object]:
        return {"value": self.value}


class Gauge:
    """A value that can go up and down (last write wins)."""

    kind = "gauge"
    __slots__ = ("name", "help", "labels", "value")

    def __init__(self, name: str, help: str, labels: dict[str, str]) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot(self) -> dict[str, object]:
        return {"value": self.value}


class Histogram:
    """Cumulative-bucket histogram of observed values.

    ``bucket_counts[i]`` counts observations ``<= buckets[i]``
    (cumulative, as Prometheus expects); the implicit +Inf bucket is
    :attr:`count`. :attr:`sum` accumulates raw observations so mean
    latency is recoverable.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "labels", "buckets", "bucket_counts", "sum", "count")

    def __init__(
        self,
        name: str,
        help: str,
        labels: dict[str, str],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValidationError(
                f"histogram buckets must be non-empty and ascending, got {buckets}"
            )
        self.name = name
        self.help = help
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self.bucket_counts = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                # Cumulative buckets: every bound at or above the value.
                for j in range(i, len(self.buckets)):
                    self.bucket_counts[j] += 1
                return

    def snapshot(self) -> dict[str, object]:
        return {
            "sum": self.sum,
            "count": self.count,
            "buckets": {
                repr(bound): count
                for bound, count in zip(self.buckets, self.bucket_counts)
            },
        }


def _labels_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """Creates and holds instruments, keyed by ``(name, labels)``.

    Re-requesting an instrument with the same name and labels returns
    the existing one; requesting a name that already exists with a
    different kind raises :class:`~repro.core.errors.ValidationError`
    (one name, one type — the Prometheus contract).
    """

    def __init__(self, *, enabled: bool = False) -> None:
        self.enabled = enabled
        self._instruments: dict[tuple, Counter | Gauge | Histogram] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self):
        """Instruments in creation order (stable export order)."""
        return iter(self._instruments.values())

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        """Drop every instrument."""
        self._instruments.clear()

    def _get(self, cls, name: str, help: str, labels: dict[str, str] | None, **kwargs):
        labels = dict(labels or {})
        key = (name, _labels_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            same_name = [m for m in self._instruments.values() if m.name == name]
            if same_name and not isinstance(same_name[0], cls):
                raise ValidationError(
                    f"metric {name!r} already registered as "
                    f"{same_name[0].kind}, requested {cls.kind}"
                )
            instrument = cls(name, help, labels, **kwargs)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise ValidationError(
                f"metric {name!r} already registered as "
                f"{instrument.kind}, requested {cls.kind}"
            )
        return instrument

    def counter(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ) -> Counter:
        """Get or create a counter."""
        return self._get(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ) -> Gauge:
        """Get or create a gauge."""
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: dict[str, str] | None = None,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create a histogram."""
        return self._get(Histogram, name, help, labels, buckets=buckets)

    def snapshot(self) -> list[dict[str, object]]:
        """Every instrument as a JSON-ready dict, creation order."""
        return [
            {
                "name": m.name,
                "kind": m.kind,
                "help": m.help,
                "labels": dict(m.labels),
                **m.snapshot(),
            }
            for m in self
        ]


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry used by all instrumentation."""
    return _REGISTRY


def enable() -> None:
    """Enable the global registry."""
    _REGISTRY.enable()


def disable() -> None:
    """Disable the global registry (instruments are kept)."""
    _REGISTRY.disable()


def reset() -> None:
    """Disable the global registry and drop every instrument."""
    _REGISTRY.disable()
    _REGISTRY.clear()


def count(
    name: str, help: str, n: float = 1, labels: dict[str, str] | None = None
) -> None:
    """Add *n* to a global counter — a no-op while the registry is
    disabled."""
    if _REGISTRY.enabled:
        _REGISTRY.counter(name, help, labels).inc(n)
