"""Adaptive, model-based design-space search.

This package layers surrogate-guided optimization over the exploration
engine of :mod:`repro.dse`: instead of fixing every evaluated point up
front (grid, random, halving ladders), an adaptive run alternates between
*proposing* a small batch of candidate points -- chosen by a surrogate
model trained on every result seen so far -- and *evaluating* that batch
through the ordinary compile/simulate pipeline and experiment store.

* :mod:`~repro.dse.adaptive.model` -- pure-python incremental surrogate
  regressors over encoded design points: random-Fourier-feature ridge
  regression (:class:`RFFSurrogate`) and a bagged regression-tree ensemble
  with predictive variance (:class:`TreeEnsembleSurrogate`), both
  bit-deterministic under a fixed seed.
* :mod:`~repro.dse.adaptive.propose` -- expected-improvement and UCB
  acquisition, the :class:`BayesProposer` batch proposer, and the
  :class:`AdaptiveHalvingProposer` multi-fidelity scheduler that promotes
  points through the scaled-proxy ladder on surrogate rank instead of a
  fixed eta.
* :mod:`~repro.dse.adaptive.protocol` -- the proposal side of an
  adaptive dispatch: the proposer writes signed proposal batches into a
  ``proposals/`` ledger inside the store directory and ingests their
  results incrementally to emit the next batch; :class:`ProposalLedger`
  leases the batch parts (the lease discipline of the grid's shard ledger)
  to the one worker loop, :func:`repro.dse.dispatch.run_worker`.  A killed
  proposer or worker is recoverable from the ledger alone.

The ``bayes`` and ``adaptive-halving`` strategies of
:mod:`repro.dse.strategies` drive these proposers single-process through
:class:`~repro.dse.runner.DSERunner`; ``repro dse dispatch --strategy
bayes`` (the one :class:`~repro.dse.dispatch.Dispatcher`, given a
strategy) and ``repro dse propose`` drive them across a worker fleet.
Either way the proposal sequence depends only on (space, strategy, seed)
and the deterministic evaluation results, so serial, ``--jobs N`` and
dispatched runs -- even with workers killed mid-batch -- explore the same
points and report the same best.
"""

from repro.dse.adaptive.model import (
    PointEncoder,
    RFFSurrogate,
    TreeEnsembleSurrogate,
    make_surrogate,
)
from repro.dse.adaptive.propose import (
    AdaptiveHalvingProposer,
    BayesProposer,
    ProposalBatch,
    default_max_evals,
    expected_improvement,
    make_proposer,
    upper_confidence_bound,
)
from repro.dse.adaptive.protocol import ProposalLedger, run_proposer

__all__ = [
    "AdaptiveHalvingProposer",
    "BayesProposer",
    "PointEncoder",
    "ProposalBatch",
    "ProposalLedger",
    "RFFSurrogate",
    "TreeEnsembleSurrogate",
    "default_max_evals",
    "expected_improvement",
    "make_proposer",
    "make_surrogate",
    "run_proposer",
    "upper_confidence_bound",
]
