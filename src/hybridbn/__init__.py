"""Hybrid Bayesian-network structure learning for categorical data.

Constraint-based local discovery caps conditioning sets at size 2, a
score-based hill climb with TABU search refines the resulting skeleton,
and a label-powerset decomposition turns the learned structure into a
multi-label classifier.

Names are imported from the submodules (hybridbn.data, hybridbn.graphs,
hybridbn.independence, hybridbn.skeleton, hybridbn.scoring,
hybridbn.network, hybridbn.metrics, hybridbn.multilabel,
hybridbn.parallel, hybridbn.synthetic); the package itself re-exports
nothing.
"""

__version__ = "0.1.0"
