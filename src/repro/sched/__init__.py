"""Multi-resource scheduling simulation (Section VII).

Implements the paper's scheduling experiment: a global FCFS queue over
the four Table I machines with EASY backfilling (Algorithm 1), four
machine-assignment strategies (Round-Robin, Random, User+RR, and the
Model-based strategy of Algorithm 2), and the two evaluation metrics
(makespan and average bounded slowdown).

Job runtimes come from observed per-system times in the MP-HPC dataset,
exactly as the paper does ("We use the observed run times on each
machine from the data set to determine how long the job would run").
"""

from repro.sched.job import Job
from repro.sched.machines import ClusterState, MachineState
from repro.sched.metrics import (
    average_bounded_slowdown,
    average_wait_time,
    completed_fraction,
    degraded_prediction_fraction,
    goodput,
    makespan,
    per_machine_job_counts,
    resilience_summary,
    retry_count,
    wasted_node_seconds,
)
from repro.sched.policies import (
    POLICIES,
    FCFSPolicy,
    LJFPolicy,
    SJFPolicy,
    SmallestFirstPolicy,
    WidestFirstPolicy,
    policy_by_name,
)
from repro.sched.simulator import ScheduleResult, Scheduler, SimStats
from repro.sched.strategies import (
    STRATEGIES,
    ModelBasedStrategy,
    OracleStrategy,
    RandomStrategy,
    RiskAwareStrategy,
    RoundRobinStrategy,
    UncertaintyAwareStrategy,
    UserRRStrategy,
    strategy_by_name,
)

__all__ = [
    "Job",
    "MachineState",
    "ClusterState",
    "Scheduler",
    "ScheduleResult",
    "SimStats",
    "RoundRobinStrategy",
    "RandomStrategy",
    "UserRRStrategy",
    "ModelBasedStrategy",
    "OracleStrategy",
    "UncertaintyAwareStrategy",
    "RiskAwareStrategy",
    "strategy_by_name",
    "FCFSPolicy",
    "SJFPolicy",
    "LJFPolicy",
    "WidestFirstPolicy",
    "SmallestFirstPolicy",
    "policy_by_name",
    "POLICIES",
    "STRATEGIES",
    "makespan",
    "average_bounded_slowdown",
    "average_wait_time",
    "per_machine_job_counts",
    "goodput",
    "wasted_node_seconds",
    "retry_count",
    "completed_fraction",
    "degraded_prediction_fraction",
    "resilience_summary",
]
