"""Labelled counters/gauges/histograms with a cheap no-op default.

:class:`MetricsRegistry` is the live-metrics side of the observability
layer: the runtime registers named instruments once (idempotently — two
components asking for the same counter share it) and updates them on the
hot path; :func:`repro.obs.prom.render_prometheus` turns a registry into
the text the ``/metrics`` endpoint serves.

The off switch is structural, not conditional: :class:`NullRegistry`
returns shared do-nothing instruments, so un-instrumented runs pay one
attribute access and a no-op call per update — no branching, no state, and
provably no effect on results (instrument updates only ever *read* the
values the runtime already computed).

Instruments
-----------
* :class:`Counter` — monotonically increasing float (``inc``).
* :class:`Gauge` — a settable level (``set``/``inc``/``dec``).
* histograms — plain :class:`~repro.obs.histo.LogHistogram` instances, so
  the registry's latency distributions share the stream metrics' bucket
  semantics and merge/checkpoint behavior.

Labels: pass ``labels=("phase",)`` at registration and
``family.labels("solve")`` per update.  Label values are positional and
cached, so the per-update cost after the first call is one dict lookup.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.obs.histo import LogHistogram

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
]

_KINDS = ("counter", "gauge", "histogram")


class Counter:
    """A monotonically increasing sample counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative — counters never go down)."""
        if amount < 0:
            raise ValueError(f"counters only increase, got inc({amount})")
        self.value += amount


class Gauge:
    """A settable instantaneous level."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Family:
    """One named metric family: its instruments, keyed by label values."""

    __slots__ = ("name", "help", "kind", "labelnames", "_children", "_options")

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: tuple[str, ...],
        options: Mapping[str, Any],
    ) -> None:
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = labelnames
        self._children: dict[tuple[str, ...], Any] = {}
        self._options = dict(options)

    def _make(self):
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return LogHistogram(**self._options)

    def labels(self, *values: str):
        """The instrument for one label-value tuple (created on demand)."""
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} has labels {self.labelnames}, "
                f"got {len(values)} value(s)"
            )
        key = tuple(str(value) for value in values)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make()
        return child

    def children(self) -> list[tuple[tuple[str, ...], Any]]:
        """(label values, instrument) pairs in deterministic sorted order."""
        return sorted(self._children.items())


class MetricsRegistry:
    """A process-local collection of named metric families."""

    enabled = True

    def __init__(self) -> None:
        self._families: dict[str, Family] = {}

    def _register(
        self,
        name: str,
        help_text: str,
        kind: str,
        labels: Sequence[str],
        options: Mapping[str, Any],
    ):
        family = self._families.get(name)
        if family is None:
            family = Family(name, help_text, kind, tuple(labels), options)
            instrument = family if family.labelnames else family.labels()
            # Published only once its child exists: a concurrent render never
            # sees a histogram family without buckets.
            self._families[name] = family
            return instrument
        if family.kind != kind or family.labelnames != tuple(labels):
            raise ValueError(
                f"metric {name!r} already registered as a {family.kind} with "
                f"labels {family.labelnames}; cannot re-register as a {kind} "
                f"with labels {tuple(labels)}"
            )
        return family if family.labelnames else family.labels()

    def counter(self, name: str, help_text: str = "", labels: Sequence[str] = ()):
        """Register (or fetch) a counter; returns the family when labelled."""
        return self._register(name, help_text, "counter", labels, {})

    def gauge(self, name: str, help_text: str = "", labels: Sequence[str] = ()):
        """Register (or fetch) a gauge; returns the family when labelled."""
        return self._register(name, help_text, "gauge", labels, {})

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        **options: Any,
    ):
        """Register (or fetch) a :class:`LogHistogram`-backed distribution.

        ``options`` are :class:`LogHistogram` constructor arguments —
        typically one of the shared configurations
        (:data:`~repro.obs.histo.SECONDS_HISTOGRAM`).
        """
        return self._register(name, help_text, "histogram", labels, options)

    def families(self) -> list[Family]:
        """All registered families, sorted by name (deterministic)."""
        return [self._families[name] for name in sorted(self._families)]

    def snapshot(self) -> dict[str, Any]:
        """A deterministic plain-dict view of every instrument's state.

        Counter/gauge children snapshot to their float value; histogram
        children to their :meth:`~repro.obs.histo.LogHistogram.state_dict`.
        Two registries fed the same updates in any order produce equal
        snapshots — pinned by the registry determinism tests.
        """
        out: dict[str, Any] = {}
        for family in self.families():
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "series": {
                    ",".join(key): (
                        child.state_dict()
                        if isinstance(child, LogHistogram)
                        else child.value
                    )
                    for key, child in family.children()
                },
            }
        return out


class _NullInstrument:
    """One do-nothing object standing in for every instrument kind."""

    __slots__ = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def record(self, value: float) -> None:
        pass

    def record_many(self, values) -> None:
        pass

    def labels(self, *values: str) -> "_NullInstrument":
        return self


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The off switch: every registration returns the shared no-op."""

    enabled = False

    def counter(self, name, help_text="", labels=()):
        return _NULL_INSTRUMENT

    def gauge(self, name, help_text="", labels=()):
        return _NULL_INSTRUMENT

    def histogram(self, name, help_text="", labels=(), **options):
        return _NULL_INSTRUMENT

    def families(self):
        return []

    def snapshot(self):
        return {}


#: Shared default used wherever no registry was configured.
NULL_REGISTRY = NullRegistry()
