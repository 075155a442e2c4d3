"""Counters, gauges, fixed-bucket histograms, and the metrics registry.

The design optimizes for the *disabled* case, because every protocol hot
path is instrumented unconditionally.  Instrumented code asks the
current registry for its handles **once** (at construction or first
use), then increments them without branching:

* with metrics enabled (:func:`enable_metrics`), handles come from a
  shared :class:`Registry` keyed by dotted name — one histogram named
  ``"net.frame_bytes"`` aggregates across every connection that asked
  for it, and :meth:`Registry.snapshot` / the exposition layer can read
  everything;
* with metrics disabled (the default :class:`NullRegistry`), counter and
  gauge handles are fresh *detached* instances — real objects whose
  ``inc``/``set`` still work on the holder's handle, but that no snapshot
  sees (asking for a name again hands out a new one, reading 0) — and
  histogram handles are a shared no-op whose ``observe`` does nothing,
  because per-observation bucket search is the one place the cost would
  show.

Runtime counts the objects already keep as attributes are not pushed
here at all: :func:`repro.obs.health.deployment_counts` reads them and
:class:`~repro.obs.health.HealthMonitor` publishes them on refresh.

Histograms use fixed ascending bucket upper bounds (Prometheus-style
cumulative ``le`` buckets at exposition time) and answer quantiles by
nearest-rank over the buckets, so p50/p95/p99 cost O(buckets) to read
and O(log buckets) to write.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from math import ceil
from math import inf

from repro.common.errors import ConfigurationError

#: Latency bucket upper bounds — wide geometric ladder covering both the
#: simulator's virtual time units and TCP wall-clock seconds.
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
)

#: Size bucket upper bounds (bytes) — wire frames and WAL records.
SIZE_BUCKETS = (
    64, 128, 256, 512, 1024, 2048, 4096, 8192,
    16384, 65536, 262144, 1048576,
)

#: Small-cardinality bucket bounds — batch sizes, group-commit sizes.
COUNT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0

    def inc(self, by: int = 1) -> None:
        """Add ``by`` (default 1) to the count."""
        self._value += by

    @property
    def value(self) -> int:
        """The current count."""
        return self._value


class Gauge:
    """A point-in-time measurement that can move both ways."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self._value = value

    @property
    def value(self) -> float:
        """The last value set (0.0 before any ``set``)."""
        return self._value


class Histogram:
    """Fixed-bucket distribution with nearest-rank percentiles.

    ``bounds`` are strictly ascending bucket *upper* bounds; every
    observation above the last bound lands in an implicit overflow
    bucket.  The histogram keeps exact ``count``/``sum``/``max`` so
    means stay precise even though quantiles are bucket-resolution.
    """

    __slots__ = ("bounds", "_counts", "_count", "_sum", "_max")

    def __init__(self, bounds: tuple[float, ...] = LATENCY_BUCKETS) -> None:
        bounds = tuple(bounds)
        if not bounds or any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram bounds must be non-empty strictly ascending, "
                f"got {bounds!r}"
            )
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: overflow bucket
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._counts[bisect_left(self.bounds, value)] += 1
        self._count += 1
        self._sum += value
        if value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        """Total number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Exact sum of all observations."""
        return self._sum

    @property
    def max(self) -> float:
        """Largest observation seen (0.0 when empty)."""
        return self._max

    @property
    def mean(self) -> float:
        """Exact mean of all observations (0.0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank quantile ``q`` in [0, 1], at bucket resolution.

        Returns the upper bound of the bucket holding the rank (or the
        exact ``max`` for ranks in the overflow bucket); 0.0 when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q!r}")
        if not self._count:
            return 0.0
        # Nearest-rank definition: rank = ceil(q * n).  round()'s
        # half-even ties would sit one rank low at small counts (e.g.
        # p50 of 3 samples is rank ceil(1.5) == 2, not round(1.5) == 2
        # only by accident of parity — and round(0.5) == 0 underflows).
        rank = max(1, ceil(q * self._count))
        cumulative = 0
        for bound, bucket in zip(self.bounds, self._counts):
            cumulative += bucket
            if cumulative >= rank:
                return bound
        return self._max  # rank falls in the overflow bucket

    @property
    def p50(self) -> float:
        """Median (nearest-rank, bucket resolution)."""
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        """95th percentile (nearest-rank, bucket resolution)."""
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        """99th percentile (nearest-rank, bucket resolution)."""
        return self.percentile(0.99)

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, Prometheus-style.

        The final pair uses ``+inf`` as the bound and equals ``count``.
        """
        pairs: list[tuple[float, int]] = []
        cumulative = 0
        for bound, bucket in zip(self.bounds, self._counts):
            cumulative += bucket
            pairs.append((bound, cumulative))
        pairs.append((inf, self._count))
        return pairs

    def snapshot(self) -> dict:
        """Summary dict: count/sum/mean/max and the headline quantiles."""
        return {
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "max": self._max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


class _NullHistogram(Histogram):
    """Shared histogram whose ``observe`` is a no-op (disabled metrics)."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        """Discard the observation — this is the disabled-metrics sink."""


_NULL_HISTOGRAM = _NullHistogram()


class Registry:
    """Get-or-create instrument store, keyed by dotted metric name.

    Two callers asking for the same name share the same instrument —
    that is how per-connection and per-shard code aggregates into one
    system-wide view.  Asking for an existing name as a different kind
    (or a histogram with different bounds) is a loud
    :class:`~repro.common.errors.ConfigurationError` rather than a
    silently forked time series.
    """

    #: Real registries record; the :class:`NullRegistry` subclass flips this.
    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type, factory):
        found = self._instruments.get(name)
        if found is not None:
            if type(found) is not kind:
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{type(found).__name__}, not {kind.__name__}"
                )
            return found
        instrument = factory()
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        """The shared counter registered under ``name`` (created on first use)."""
        return self._get(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        """The shared gauge registered under ``name`` (created on first use)."""
        return self._get(name, Gauge, Gauge)

    def histogram(
        self, name: str, bounds: tuple[float, ...] = LATENCY_BUCKETS
    ) -> Histogram:
        """The shared histogram under ``name`` (bounds fixed at creation)."""
        found = self._get(name, Histogram, lambda: Histogram(bounds))
        if found.bounds != tuple(bounds):
            raise ConfigurationError(
                f"histogram {name!r} already registered with bounds "
                f"{found.bounds!r}, not {tuple(bounds)!r}"
            )
        return found

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        return sorted(self._instruments)

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        """The instrument registered under ``name``, or None."""
        return self._instruments.get(name)

    def snapshot(self) -> dict:
        """Every instrument's current value as a JSON-ready dict.

        Counters map to ints, gauges to floats, histograms to their
        summary dicts (count/sum/mean/max/p50/p95/p99).
        """
        out: dict = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                out[name] = instrument.snapshot()
            else:
                out[name] = instrument.value
        return out


class NullRegistry(Registry):
    """The disabled-metrics default: hands out instruments nobody reads.

    Counters and gauges are fresh *detached* instances per call — they
    still count on the handle that holds them, but belong to no
    snapshot.  Histograms are one shared no-op instance, because
    ``observe`` is the only per-event cost worth eliding.  ``snapshot()``
    is always empty.
    """

    enabled = False

    def counter(self, name: str) -> Counter:
        """A fresh detached counter (never snapshotted)."""
        return Counter()

    def gauge(self, name: str) -> Gauge:
        """A fresh detached gauge (never snapshotted)."""
        return Gauge()

    def histogram(
        self, name: str, bounds: tuple[float, ...] = LATENCY_BUCKETS
    ) -> Histogram:
        """The shared no-op histogram (``observe`` discards)."""
        return _NULL_HISTOGRAM


_current: Registry = NullRegistry()


def get_registry() -> Registry:
    """The process-wide current registry (a no-op one by default)."""
    return _current


def set_registry(registry: Registry) -> Registry:
    """Install ``registry`` as current; returns the one it replaced."""
    global _current
    previous = _current
    _current = registry
    return previous


def enable_metrics() -> Registry:
    """Install and return a fresh recording :class:`Registry`.

    The single switch a deployment flips (the CLI's ``--metrics`` family
    of flags does it) before building systems, so every seam constructed
    afterwards draws shared instruments from it.
    """
    registry = Registry()
    set_registry(registry)
    return registry


@contextmanager
def use_registry(registry: Registry):
    """Context manager scoping ``registry`` as current, then restoring.

    Tests and embedded runs use this to observe one system without
    leaking a recording registry into the rest of the process.
    """
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
