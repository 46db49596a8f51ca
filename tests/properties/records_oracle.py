"""List-backed run records: the test oracle of the columnar ones.

This is ``RunResult`` as it stood before its records became an
:class:`~repro.sim.results.EpochRecords` column record — a plain list of
:class:`~repro.sim.results.EpochRecord` with the per-record JSON
conversion and the summaries computed over that list — kept (as
:class:`RowResult` plus two functions) so the property tests in
:mod:`tests.properties.test_epoch_records` can require the columnar
result to serialize, summarize and read back exactly like it. It is
test-only: nothing in ``src/`` can reach it.
"""

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.sim.results import EpochRecord


def record_to_json(record: EpochRecord) -> Dict[str, float]:
    """The per-epoch row dict of ``RunResult.to_json``."""
    return {
        "epoch": record.epoch,
        "ops_done": record.ops_done,
        "imbalance": record.imbalance,
        "max_link_rho": record.max_link_rho,
        "local_fraction": record.local_fraction,
        "policy_cost_seconds": record.policy_cost_seconds,
        "migrations": record.migrations,
    }


def record_from_json(payload: Dict[str, float]) -> EpochRecord:
    """One row dict back as a record (the old per-record decode)."""
    return EpochRecord(
        epoch=int(payload["epoch"]),
        ops_done=float(payload["ops_done"]),
        imbalance=float(payload["imbalance"]),
        max_link_rho=float(payload["max_link_rho"]),
        local_fraction=float(payload["local_fraction"]),
        policy_cost_seconds=float(payload.get("policy_cost_seconds", 0.0)),
        migrations=int(payload.get("migrations", 0)),
    )


@dataclass
class RowResult:
    """A run result whose records are a list, one object per epoch."""

    app: str
    environment: str
    policy: str
    completion_seconds: float
    epochs: int
    records: List[EpochRecord] = field(default_factory=list)
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def mean_imbalance(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.imbalance for r in self.records]))

    @property
    def mean_max_link_rho(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.max_link_rho for r in self.records]))

    @property
    def mean_local_fraction(self) -> float:
        if not self.records:
            return 1.0
        return float(np.mean([r.local_fraction for r in self.records]))

    @property
    def total_migrations(self) -> int:
        return int(sum(r.migrations for r in self.records))

    @property
    def throughput(self) -> float:
        """``repro.core.autoselect._throughput`` over the list."""
        if not self.records:
            return 0.0
        total_ops = sum(r.ops_done for r in self.records)
        return total_ops / max(1, len(self.records))

    def to_json(self) -> Dict:
        return {
            "app": self.app,
            "environment": self.environment,
            "policy": self.policy,
            "completion_seconds": self.completion_seconds,
            "epochs": self.epochs,
            "records": [record_to_json(r) for r in self.records],
            "stats": dict(self.stats),
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "RowResult":
        return cls(
            app=payload["app"],
            environment=payload["environment"],
            policy=payload["policy"],
            completion_seconds=float(payload["completion_seconds"]),
            epochs=int(payload["epochs"]),
            records=[record_from_json(r) for r in payload.get("records", [])],
            stats={k: float(v) for k, v in payload.get("stats", {}).items()},
        )
