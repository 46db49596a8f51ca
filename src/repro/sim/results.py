"""Run records produced by the simulation engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np


@dataclass
class EpochRecord:
    """Per-epoch measurements of one application run.

    Attributes:
        epoch: index.
        ops_done: operations completed this epoch (all threads).
        imbalance: relative std-dev of the app's per-node access counts.
        max_link_rho: utilisation of the app's most loaded link counting
            *only this run's* traffic (its contribution, the Table 1
            metric) — not the world total the run experiences, which the
            engine hands to policies via the epoch observation instead.
        local_fraction: node-local share of the app's accesses.
        policy_cost_seconds: overhead charged by the dynamic policy.
        migrations: pages moved by the dynamic policy this epoch.
    """

    epoch: int
    ops_done: float
    imbalance: float
    max_link_rho: float
    local_fraction: float
    policy_cost_seconds: float = 0.0
    migrations: int = 0


#: :class:`EpochRecord`'s fields in declaration order, each with the dtype
#: of its column in :class:`EpochRecords`.
COLUMNS: Tuple[Tuple[str, type], ...] = (
    ("epoch", np.int64),
    ("ops_done", np.float64),
    ("imbalance", np.float64),
    ("max_link_rho", np.float64),
    ("local_fraction", np.float64),
    ("policy_cost_seconds", np.float64),
    ("migrations", np.int64),
)
FIELDS: Tuple[str, ...] = tuple(name for name, _ in COLUMNS)
#: Row fields a JSON row may omit (older writers left the defaults out).
_ROW_DEFAULTS = {"policy_cost_seconds": 0.0, "migrations": 0}
#: Python types a JSON column of each dtype may hold (``bool`` is not a
#: number here, though Python counts it as an ``int``).
_JSON_TYPES = {np.int64: {int}, np.float64: {int, float}}


def _column(name: str, values: object, dtype: type) -> np.ndarray:
    """One decoded JSON list as a column of ``dtype``.

    Raises:
        TypeError: ``values`` is not a list of numbers of the column's kind.
        OverflowError: an integer does not fit the int64 column.
    """
    if type(values) is not list:
        raise TypeError(f"column {name!r} is not a list")
    stray = set(map(type, values)) - _JSON_TYPES[dtype]
    if stray:
        kinds = ", ".join(sorted(t.__name__ for t in stray))
        raise TypeError(f"column {name!r} holds {kinds}")
    return np.array(values, dtype=dtype)


class EpochRecords(Sequence[EpochRecord]):
    """A run's per-epoch records held as one column per field.

    The report, the summaries and the stores all read whole series, so
    the records never need to exist as per-epoch objects. Indexing and
    iteration still build :class:`EpochRecord` values with plain Python
    ``int``/``float`` fields, so scalar consumers read it like a list; a
    slice is again an :class:`EpochRecords`. It compares equal to any
    sequence of equal records, in either operand order.

    ``epoch`` and ``migrations`` are int64 columns, the other five
    float64; every column is frozen (``setflags(write=False)``).
    """

    __slots__ = FIELDS

    def __init__(self, records: Iterable[EpochRecord] = ()):
        records = list(records)
        self._freeze(
            np.array([getattr(r, name) for r in records], dtype=dtype)
            for name, dtype in COLUMNS
        )

    def _freeze(self, columns: Iterable[np.ndarray]) -> None:
        for name, column in zip(FIELDS, columns):
            column.setflags(write=False)
            setattr(self, name, column)

    @classmethod
    def _of(cls, columns: Iterable[np.ndarray]) -> "EpochRecords":
        """Wrap equally long columns given in :data:`FIELDS` order."""
        self = cls.__new__(cls)
        self._freeze(columns)
        return self

    @classmethod
    def from_columns(cls, columns: object) -> "EpochRecords":
        """Decode ``{field: [values...]}`` (the disk stores' form).

        Raises:
            TypeError, ValueError, OverflowError: ``columns`` is not an
                object holding exactly the seven fields as numeric lists
                of one length.
        """
        if type(columns) is not dict or columns.keys() != set(FIELDS):
            raise ValueError(f"epoch columns must be exactly {FIELDS}")
        decoded = [_column(name, columns[name], dtype) for name, dtype in COLUMNS]
        if len({len(column) for column in decoded}) > 1:
            raise ValueError("epoch columns disagree in length")
        return cls._of(decoded)

    @classmethod
    def from_rows(cls, rows: object) -> "EpochRecords":
        """Decode ``[{field: value}, ...]`` (the row form of ``to_json``).

        Raises:
            TypeError, KeyError, OverflowError: a row is not an object
                holding the record's numeric fields.
        """
        if type(rows) is not list or not all(type(row) is dict for row in rows):
            raise TypeError("epoch records must be a list of objects")
        columns = []
        for name, dtype in COLUMNS:
            if name in _ROW_DEFAULTS:
                default = _ROW_DEFAULTS[name]
                values = [row.get(name, default) for row in rows]
            else:
                values = [row[name] for row in rows]
            columns.append(_column(name, values, dtype))
        return cls._of(columns)

    def columns_json(self) -> Dict[str, list]:
        """``{field: [values...]}``, the inverse of :meth:`from_columns`."""
        return {name: getattr(self, name).tolist() for name in FIELDS}

    def rows_json(self) -> List[Dict[str, float]]:
        """One ``{field: value}`` dict per epoch, fields in declaration order.

        Python ints and floats, which ``json`` writes exactly (floats via
        the shortest round-trip repr), so :meth:`from_rows` restores the
        columns bit for bit.
        """
        return [
            {"epoch": epoch, "ops_done": ops, "imbalance": imbalance,
             "max_link_rho": rho, "local_fraction": local,
             "policy_cost_seconds": cost, "migrations": migrations}
            for epoch, ops, imbalance, rho, local, cost, migrations in self._value_rows()
        ]

    def _value_rows(self) -> Iterator[tuple]:
        """Per-epoch tuples of Python values (one bulk conversion per column)."""
        return zip(*(getattr(self, name).tolist() for name in FIELDS))

    def __len__(self) -> int:
        return len(self.epoch)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._of(getattr(self, name)[index] for name in FIELDS)
        return EpochRecord(*(getattr(self, name)[index].item() for name in FIELDS))

    def __iter__(self) -> Iterator[EpochRecord]:
        for values in self._value_rows():
            yield EpochRecord(*values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EpochRecords):
            return all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in FIELDS
            )
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __reduce__(self):
        return (self._of, (tuple(getattr(self, name) for name in FIELDS),))

    def __repr__(self) -> str:
        return f"EpochRecords({list(self)!r})"


@dataclass
class RunResult:
    """Outcome of one (application, environment, policy) run.

    Attributes:
        app: application name.
        environment: environment label ("linux", "xen", "xen+").
        policy: policy label ("First-Touch / Carrefour", ...).
        completion_seconds: simulated completion time.
        epochs: epochs simulated.
        records: per-epoch details; any sequence of :class:`EpochRecord`
            passed in is converted to :class:`EpochRecords`.
        stats: free-form counters (faults, hypercalls, migrations, ...).
        metrics: transient observability snapshot of the run's context
            (fault, queue, p2m and policy counters at completion), taken
            by the engine. Deliberately excluded from equality and from
            :meth:`to_json`: stored results, reports and cache keys are
            byte-identical with and without observability enabled.
    """

    app: str
    environment: str
    policy: str
    completion_seconds: float
    epochs: int
    records: EpochRecords = field(default_factory=EpochRecords)
    stats: Dict[str, float] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.records, EpochRecords):
            self.records = EpochRecords(self.records)

    @property
    def mean_imbalance(self) -> float:
        """Time-averaged access imbalance (the Table 1 metric)."""
        if not self.records:
            return 0.0
        return float(np.mean(self.records.imbalance))

    @property
    def mean_max_link_rho(self) -> float:
        """Time-averaged utilisation of the most loaded link (Table 1)."""
        if not self.records:
            return 0.0
        return float(np.mean(self.records.max_link_rho))

    @property
    def mean_local_fraction(self) -> float:
        if not self.records:
            return 1.0
        return float(np.mean(self.records.local_fraction))

    @property
    def total_migrations(self) -> int:
        # Python's exact left-to-right integer sum, as over the records.
        return sum(self.records.migrations.tolist())

    def to_json(self, columnar: bool = False) -> Dict:
        """JSON-serializable form that round-trips exactly via :meth:`from_json`.

        The per-epoch records are one dict per epoch under ``"records"``
        (the serve wire and the digests use this form), or with
        ``columnar`` one list per field under ``"columns"`` (the disk
        stores' form: smaller, and decoded a column at a time).
        """
        payload: Dict = {
            "app": self.app,
            "environment": self.environment,
            "policy": self.policy,
            "completion_seconds": self.completion_seconds,
            "epochs": self.epochs,
        }
        if columnar:
            payload["columns"] = self.records.columns_json()
        else:
            payload["records"] = self.records.rows_json()
        payload["stats"] = dict(self.stats)
        return payload

    @classmethod
    def from_json(cls, payload: object) -> "RunResult":
        """Rebuild a result from either form of :meth:`to_json`.

        Raises:
            KeyError, TypeError, ValueError, OverflowError: ``payload`` is
                not a result object of either form.
        """
        if type(payload) is not dict:
            raise TypeError("a run result must be a JSON object")
        if "columns" in payload:
            records = EpochRecords.from_columns(payload["columns"])
        else:
            records = EpochRecords.from_rows(payload.get("records", []))
        stats = payload.get("stats", {})
        if type(stats) is not dict:
            raise TypeError("run result stats must be a JSON object")
        return cls(
            app=payload["app"],
            environment=payload["environment"],
            policy=payload["policy"],
            completion_seconds=float(payload["completion_seconds"]),
            epochs=int(payload["epochs"]),
            records=records,
            stats={k: float(v) for k, v in stats.items()},
        )

    def summary(self) -> str:
        """One-line textual summary."""
        return (
            f"{self.app:>14s} [{self.environment}/{self.policy}] "
            f"T={self.completion_seconds:8.2f}s imb={self.mean_imbalance:5.2f} "
            f"link={self.mean_max_link_rho:4.2f} local={self.mean_local_fraction:4.2f}"
        )


def relative_overhead(result: RunResult, baseline: RunResult) -> float:
    """The paper's "relative overhead": T/T_base - 1 (Figures 1, 6, 10)."""
    return result.completion_seconds / baseline.completion_seconds - 1.0


def relative_improvement(result: RunResult, baseline: RunResult) -> float:
    """The paper's "relative improvement": T_base/T - 1 (Figures 2, 7-9)."""
    return baseline.completion_seconds / result.completion_seconds - 1.0
