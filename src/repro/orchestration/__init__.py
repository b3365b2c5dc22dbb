"""Search orchestration: checkpointable, sharded, resumable campaigns.

The layer that turns single search runs into durable fleets:

* checkpoint/resume itself lives on the search loops
  (:meth:`repro.core.search.Search.resume`) with its serialization
  substrate in :mod:`repro.core.serialization`;
* :mod:`repro.orchestration.shards` defines the unit of distribution --
  a :class:`ShardSpec` is a thin wrapper over a serialized single-search
  :class:`~repro.plans.RunPlan`, plain data from which any process can
  rebuild the exact search -- and the grid expansion
  (:func:`plan_shards` from a sweep plan's scenario, :func:`shard_grid`
  as its kwarg spelling);
* :mod:`repro.orchestration.campaign` fans shard grids across a process
  pool, re-queues shards whose workers die (resuming from their last
  checkpoints), and merges everything into a campaign-level result with
  an accuracy-latency Pareto frontier.

Exposed via the ``repro sweep`` CLI verb and any
:class:`~repro.plans.RunPlan` whose
:class:`~repro.plans.ExecutionPolicy` sets a checkpoint directory or
``shard_workers > 1``.
"""

from repro.orchestration.campaign import (
    Campaign,
    CampaignResult,
    merge_outcomes,
    run_campaign,
    save_campaign_result,
)
from repro.orchestration.shards import (
    FNAS_KIND,
    NAS_KIND,
    ShardOutcome,
    ShardSpec,
    build_search,
    plan_shards,
    run_shard,
    shard_grid,
)

__all__ = [
    "Campaign",
    "CampaignResult",
    "FNAS_KIND",
    "NAS_KIND",
    "ShardOutcome",
    "ShardSpec",
    "build_search",
    "merge_outcomes",
    "plan_shards",
    "run_campaign",
    "run_shard",
    "save_campaign_result",
    "shard_grid",
]
