"""Design-space exploration: spaces, stores, strategies, runners, frontiers.

This package layers a general exploration engine over the fast
compile/simulate core:

* :mod:`~repro.dse.space` -- :class:`DesignSpace`, the declarative cross
  product of sweep axes, with validation, enumeration and stable point
  fingerprints.
* :mod:`~repro.dse.store` -- :class:`ExperimentStore`, an append-only JSONL
  store keyed by point fingerprint: dedup, resume-after-kill, shard merge.
* :mod:`~repro.dse.strategies` -- exhaustive grid, seeded random sampling,
  greedy coordinate descent and successive halving, all deterministic under
  a fixed seed for any worker count.
* :mod:`~repro.dse.runner` -- :class:`DSERunner`, which drives points through
  the parallel sweep executor with store replay, gate fan-out and
  ``--shard i/N`` support.
* :mod:`~repro.dse.pareto` -- best-point selection and fidelity-vs-runtime
  Pareto frontiers.
* :mod:`~repro.dse.dispatch` -- filesystem-coordinated distributed
  execution, grid or adaptive through one path: name-keyed lease ledgers
  (:class:`LeaseDir`: atomic claims, heartbeat renewal, expiry-based
  reclaim of dead workers; :class:`ShardLedger` for grid shards), the one
  worker loop :func:`run_worker` (``repro dse worker``), and the one
  :class:`Dispatcher` (``repro dse dispatch``) that runs local worker
  processes or prints remote launch commands and watches progress with a
  ``wall_s``-driven ETA.
* :mod:`~repro.dse.adaptive` -- model-based search: incremental surrogate
  regressors, expected-improvement/UCB batch proposers, a surrogate-ranked
  multi-fidelity ladder, and the distributed propose/evaluate protocol
  (a signed proposal ledger inside the store directory; ``repro dse
  dispatch --strategy bayes``, ``repro dse propose``).
* :mod:`~repro.dse.moo` -- multi-objective frontier search: named objective
  vectors, the incremental Pareto archive, exact 2-D/3-D hypervolume, and
  the EHVI/ParEGO proposers (``repro dse run|dispatch --strategy
  ehvi|parego --objectives fidelity,runtime``).

The paper's Figures 6-8 are expressed as design spaces and executed through
this engine (see :mod:`repro.toolflow.sweep`); ``python -m repro dse`` is the
command-line entry point for custom studies.
"""

from repro.dse.adaptive import (
    AdaptiveHalvingProposer,
    BayesProposer,
    ProposalLedger,
    run_proposer,
)
from repro.dse.dispatch import (
    DEFAULT_TTL_S,
    Dispatcher,
    LeaseDir,
    LeaseLost,
    ShardLedger,
    estimate_eta_s,
    read_manifest,
    run_worker,
    spawn_worker_process,
    write_manifest,
)
from repro.dse.pareto import (
    OBJECTIVES,
    best_record,
    frontier_rows,
    objective_value,
    pareto_frontier,
    per_app_frontiers,
)
from repro.dse.moo import (
    DEFAULT_OBJECTIVES,
    EHVIProposer,
    ParEGOProposer,
    ParetoArchive,
    cloud_rows,
    dominates,
    hypervolume,
    objective_vector,
    parse_objectives,
    record_frontier,
    records_hypervolume,
)
from repro.dse.runner import DSERunner, Shard
from repro.dse.space import AXES, DesignPoint, DesignSpace, point_from_spec
from repro.dse.store import (
    CachedRecord,
    CachedResult,
    ExperimentStore,
    StoreCorruptionWarning,
    record_to_row,
    row_to_record,
)
from repro.dse.strategies import (
    ADAPTIVE_STRATEGY_NAMES,
    MOO_STRATEGY_NAMES,
    STRATEGY_NAMES,
    AdaptiveHalving,
    BayesianOptimization,
    CoordinateDescent,
    EHVISearch,
    ExhaustiveGrid,
    ParEGOSearch,
    RandomSampling,
    Strategy,
    StrategyResult,
    SuccessiveHalving,
    make_strategy,
)

__all__ = [
    "ADAPTIVE_STRATEGY_NAMES",
    "AXES",
    "DEFAULT_OBJECTIVES",
    "DEFAULT_TTL_S",
    "MOO_STRATEGY_NAMES",
    "OBJECTIVES",
    "STRATEGY_NAMES",
    "AdaptiveHalving",
    "AdaptiveHalvingProposer",
    "BayesProposer",
    "BayesianOptimization",
    "CachedRecord",
    "CachedResult",
    "CoordinateDescent",
    "DSERunner",
    "DesignPoint",
    "DesignSpace",
    "Dispatcher",
    "EHVIProposer",
    "EHVISearch",
    "ExhaustiveGrid",
    "ExperimentStore",
    "LeaseDir",
    "LeaseLost",
    "ParEGOProposer",
    "ParEGOSearch",
    "ParetoArchive",
    "ProposalLedger",
    "RandomSampling",
    "Shard",
    "ShardLedger",
    "StoreCorruptionWarning",
    "Strategy",
    "StrategyResult",
    "SuccessiveHalving",
    "best_record",
    "cloud_rows",
    "dominates",
    "estimate_eta_s",
    "frontier_rows",
    "hypervolume",
    "make_strategy",
    "objective_value",
    "objective_vector",
    "parse_objectives",
    "pareto_frontier",
    "per_app_frontiers",
    "point_from_spec",
    "read_manifest",
    "record_frontier",
    "record_to_row",
    "records_hypervolume",
    "row_to_record",
    "run_proposer",
    "run_worker",
    "spawn_worker_process",
    "write_manifest",
]
