"""Dataset containers and geographic splitting.

A :class:`DriveTestDataset` bundles a region, its simulator, and the
measurement records of a campaign, grouped by scenario.  Splitting follows
the paper's protocol (§6.1): train and test are non-overlapping **and**
geographically separated — a test trajectory must keep a minimum distance
from every training trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from ..radio.simulator import DriveTestRecord, DriveTestSimulator
from ..world.region import Region


@dataclass
class DriveTestDataset:
    """A measurement campaign over one region."""

    name: str
    region: Region
    simulator: DriveTestSimulator
    records: List[DriveTestRecord] = field(default_factory=list)

    def scenarios(self) -> List[str]:
        """Distinct scenario tags, in first-appearance order."""
        seen: List[str] = []
        for record in self.records:
            if record.scenario not in seen:
                seen.append(record.scenario)
        return seen

    def by_scenario(self, scenario: str) -> List[DriveTestRecord]:
        return [r for r in self.records if r.scenario == scenario]

    def total_samples(self) -> int:
        return sum(len(r) for r in self.records)

    def kpi_names(self) -> List[str]:
        return list(self.records[0].kpi.keys()) if self.records else []


@dataclass
class DatasetSplit:
    """Train/test partition of a dataset's records."""

    train: List[DriveTestRecord]
    test: List[DriveTestRecord]

    def summary(self) -> str:
        return (
            f"train: {len(self.train)} records / {sum(len(r) for r in self.train)} samples; "
            f"test: {len(self.test)} records / {sum(len(r) for r in self.test)} samples"
        )


def split_by_geography(
    records: Sequence[DriveTestRecord],
    test_fraction: float,
    min_distance_m: float,
    rng: np.random.Generator,
) -> DatasetSplit:
    """Greedy geographic split: test records keep their distance from train.

    Candidate test records are drawn at random; a candidate is accepted only
    if its trajectory stays at least ``min_distance_m`` from every remaining
    training trajectory.  Records that cannot satisfy the constraint stay in
    the training set, so the achieved test fraction may undershoot the
    request (never overshoot).
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    records = list(records)
    n_test_target = max(1, int(round(test_fraction * len(records))))
    order = rng.permutation(len(records))
    test_idx: List[int] = []
    for idx in order:
        if len(test_idx) >= n_test_target:
            break
        candidate = records[idx]
        train_pool = [records[i] for i in range(len(records)) if i != idx and i not in test_idx]
        if all(
            candidate.trajectory.min_distance_to(other.trajectory) >= min_distance_m
            for other in train_pool
        ):
            test_idx.append(int(idx))
    if not test_idx:
        # Fall back: take the single most isolated record as test.
        isolation = []
        for i, rec in enumerate(records):
            dists = [
                rec.trajectory.min_distance_to(other.trajectory)
                for j, other in enumerate(records)
                if j != i
            ]
            isolation.append(min(dists) if dists else np.inf)
        test_idx = [int(np.argmax(isolation))]
    train = [r for i, r in enumerate(records) if i not in test_idx]
    test = [records[i] for i in test_idx]
    return DatasetSplit(train=train, test=test)


def split_per_scenario(
    dataset: DriveTestDataset,
    test_fraction: float,
    min_distance_m: float,
    rng: np.random.Generator,
) -> DatasetSplit:
    """Geographic split applied independently within each scenario.

    Guarantees every scenario appears in both halves (the paper evaluates
    per-scenario on the test set while training one model on all scenarios).
    """
    train: List[DriveTestRecord] = []
    test: List[DriveTestRecord] = []
    for scenario in dataset.scenarios():
        subset = dataset.by_scenario(scenario)
        if len(subset) == 1:
            train.extend(subset)
            continue
        split = split_by_geography(subset, test_fraction, min_distance_m, rng)
        train.extend(split.train)
        test.extend(split.test)
    return DatasetSplit(train=train, test=test)
