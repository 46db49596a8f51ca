"""Metric cells and the registry that collects them.

The design splits *counting* from *collection* so instrumentation can be
left permanently in the hot paths without changing any simulated number:

* a **cell** (:class:`Counter`, :class:`Gauge`, :class:`Histogram`) is a
  tiny mutable value holder. Components own their cells and mutate them
  exactly like the plain attributes they replaced — ``cell.value += x``
  is the same int/float arithmetic, so porting an ad-hoc counter onto a
  cell is bit-identical;
* a :class:`MetricsRegistry` is a *roster* of cells. An enabled registry
  (one per :func:`repro.obs.session`) retains every cell created while it
  is active, in creation order, and :meth:`MetricsRegistry.snapshot`
  reads them all out. The disabled registry — the process default — hands
  out the same cells but retains nothing: that is the zero-overhead no-op
  recorder (nothing is ever scanned, exported, or kept alive).

Because the roster is a list, two cells may share a name (every fault
handler creates ``faults.hypervisor``); snapshots keep one entry per
cell, in creation order — which is deterministic under the serial
execution the trace mode enforces. Aggregation across same-named cells
is the consumer's job (``python -m repro.obs summary`` sums them).
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Union

Scalar = Union[int, float]


class _Cell:
    """Common shape of one metric cell."""

    kind = "cell"
    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels: Dict[str, Scalar]):
        self.name = name
        self.labels = labels

    def snapshot(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
            "value": self._value_json(),
        }

    def _value_json(self) -> object:
        raise NotImplementedError


class Counter(_Cell):
    """Monotonic-by-convention accumulator (int or float)."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, name: str, labels: Dict[str, Scalar], value: Scalar = 0):
        super().__init__(name, labels)
        self.value: Scalar = value

    def inc(self, amount: Scalar = 1) -> None:
        self.value += amount

    def _value_json(self) -> object:
        return self.value


class Gauge(_Cell):
    """Point-in-time value (last write wins)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self, name: str, labels: Dict[str, Scalar], value: Scalar = 0):
        super().__init__(name, labels)
        self.value: Scalar = value

    def set(self, value: Scalar) -> None:
        self.value = value

    def _value_json(self) -> object:
        return self.value


class Histogram(_Cell):
    """Streaming count/total/min/max summary of observed samples.

    Deliberately bucket-free: the trace consumers only need the moments,
    and fixed buckets would bake policy into the instrumentation.
    """

    kind = "histogram"
    __slots__ = ("count", "total", "min", "max")

    def __init__(self, name: str, labels: Dict[str, Scalar]):
        super().__init__(name, labels)
        self.count = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Scalar) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def _value_json(self) -> object:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }


def cell_attr(slot: str) -> property:
    """A plain-attribute view over the counter or gauge held in ``slot``.

    Reads return the cell's ``value`` and writes replace it, so
    ``obj.attr += x`` is the same arithmetic it was on the attribute the
    cell replaced.
    """

    def setter(self, value: Scalar) -> None:
        getattr(self, slot).value = value

    return property(operator.attrgetter(slot + ".value"), setter)


class MetricsRegistry:
    """Roster of metric cells (see the module docstring).

    Args:
        enabled: an enabled registry retains created cells for
            :meth:`snapshot`; a disabled one creates the same cells but
            forgets them immediately (the no-op recorder).
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._cells: List[_Cell] = []

    # ------------------------------------------------------------------
    # Cell construction

    def counter(self, name: str, value: Scalar = 0, **labels: Scalar) -> Counter:
        return self._retain(Counter(name, labels, value))

    def gauge(self, name: str, value: Scalar = 0, **labels: Scalar) -> Gauge:
        return self._retain(Gauge(name, labels, value))

    def histogram(self, name: str, **labels: Scalar) -> Histogram:
        return self._retain(Histogram(name, labels))

    def _retain(self, cell):
        if self.enabled:
            self._cells.append(cell)
        return cell

    # ------------------------------------------------------------------
    # Collection

    def __len__(self) -> int:
        return len(self._cells)

    def snapshot(self) -> List[Dict[str, object]]:
        """All retained cells, in creation order."""
        return [cell.snapshot() for cell in self._cells]
