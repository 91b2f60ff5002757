"""Fleet scenario — many concurrent training jobs (the intro's motivation).

Builds a representative mix of training jobs over the five Table I models
(production fleets skew toward the big models), sizes the minimum Disagg CPU
pool and PreSto SmartSSD pool that admit the whole mix, and compares
footprint, power, and 3-year cost — the paper's TCO argument at fleet scale
rather than per-node.

Also exercises admission control: with only half the required pool, both
systems reject jobs, and utilization stays high (first-fit packing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.cost import cost_breakdown
from repro.core.systems import DisaggCpuSystem, PreStoSystem
from repro.errors import ProvisioningError
from repro.experiments.common import (
    ExperimentResult,
    PaperClaim,
    format_table,
    register_experiment,
)
from repro.features.specs import get_model
from repro.hardware.calibration import CALIBRATION, Calibration

#: (model, number of 8-GPU jobs) — a production-leaning mix
DEFAULT_MIX: Tuple[Tuple[str, int], ...] = (
    ("RM1", 2),
    ("RM2", 3),
    ("RM3", 3),
    ("RM4", 3),
    ("RM5", 5),
)


def first_fit(demands: Sequence[int], capacity: int) -> Tuple[int, int]:
    """Admit jobs in order while the pool has room: ``(workers_used, rejected)``.

    A job that does not fit is skipped, not queued, so a later smaller job
    can still be admitted.
    """
    used = rejected = 0
    for demand in demands:
        if used + demand <= capacity:
            used += demand
        else:
            rejected += 1
    return used, rejected


@dataclass(frozen=True)
class MultiJobResult(ExperimentResult):
    """Fleet comparison: Disagg pool vs PreSto pool for the same job mix."""

    num_jobs: int
    disagg_pool: int  # cores needed for the full mix
    presto_pool: int  # SmartSSDs needed for the full mix
    disagg_power: float
    presto_power: float
    disagg_cost: float  # 3-year CapEx + OpEx
    presto_cost: float
    rejected_at_half_disagg: int
    rejected_at_half_presto: int
    half_pool_utilization_disagg: float
    half_pool_utilization_presto: float

    @property
    def power_ratio(self) -> float:
        return self.disagg_power / self.presto_power

    @property
    def cost_ratio(self) -> float:
        return self.disagg_cost / self.presto_cost

    def claims(self) -> List[PaperClaim]:
        return [
            # the fleet amortizes PreSto's storage-host orchestration share
            # across all jobs, so the ratio exceeds the per-node Fig. 15 one
            PaperClaim("fleet power ratio (Disagg/PreSto)", 25.0, self.power_ratio, 0.35),
            PaperClaim("fleet 3-year cost ratio", 5.0, self.cost_ratio, 0.35),
            PaperClaim(
                "half-pool rejects jobs in both systems",
                1.0,
                1.0
                if self.rejected_at_half_disagg > 0 and self.rejected_at_half_presto > 0
                else 0.0,
                0.0,
            ),
            PaperClaim(
                "half-pool first-fit packs densely (min utilization)",
                0.85,
                min(
                    self.half_pool_utilization_disagg,
                    self.half_pool_utilization_presto,
                ),
                0.20,
            ),
        ]

    def rows(self) -> List[Tuple]:
        return [
            ("pool size (workers)", self.disagg_pool, self.presto_pool),
            ("power (kW)", self.disagg_power / 1e3, self.presto_power / 1e3),
            ("3-year cost (k$)", self.disagg_cost / 1e3, self.presto_cost / 1e3),
            (
                "rejected @ half pool",
                self.rejected_at_half_disagg,
                self.rejected_at_half_presto,
            ),
        ]

    def columns(self) -> List[str]:
        return ["metric", "Disagg (CPU cores)", "PreSto (SmartSSDs)"]

    def render(self) -> str:
        table = format_table(
            self.columns(),
            self.rows(),
            title=f"Fleet scenario: {self.num_jobs} concurrent 8-GPU training jobs",
        )
        return table + "\n" + "\n".join(c.render() for c in self.claims())


@register_experiment("abl-fleet", title="Fleet: multi-job scheduling", kind="ablation", order=260)
def run(
    mix: Tuple[Tuple[str, int], ...] = DEFAULT_MIX,
    calibration: Calibration = CALIBRATION,
) -> MultiJobResult:
    """Size and compare the two fleets for one job mix."""
    counts = [(model, count) for model, count in mix if count > 0]
    if not counts:
        raise ProvisioningError("no jobs given")

    fields = {}
    for name, system_cls in (("disagg", DisaggCpuSystem), ("presto", PreStoSystem)):
        systems = {m: system_cls(get_model(m), calibration) for m, _ in counts}
        # a job's T/P demand depends only on its model: size each model once
        per_job = {m: s.provision_for(8).num_workers for m, s in systems.items()}
        demands = [per_job[m] for m, count in counts for _ in range(count)]
        pool = sum(demands)  # the smallest pool that admits every job
        half = max(pool // 2, 1)
        half_used, half_rejected = first_fit(demands, half)
        # the whole pool is priced by the first model's system
        reference = systems[counts[0][0]]
        power = reference.power(pool)
        fields.update({
            f"{name}_pool": pool,
            f"{name}_power": power,
            f"{name}_cost": cost_breakdown(
                reference.capex(pool), power, calibration=calibration
            ).total,
            f"rejected_at_half_{name}": half_rejected,
            f"half_pool_utilization_{name}": half_used / half,
        })
    return MultiJobResult(num_jobs=len(demands), **fields)
