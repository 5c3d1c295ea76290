"""Hybrid Bayesian-network structure learning for categorical data.

The learner is hybridbn.skeleton.h2pc. Constraint-based local discovery
builds the skeleton: two filtering passes with conditioning sets of size
at most 1 (de_pcs) and 2 (de_sps), then FDR-IAPC, whose subset search
conditions on up to max_condset variables (unbounded by default). A
score-based hill climb with TABU search refines the skeleton, and a
label-powerset decomposition turns the learned structure into a
multi-label classifier.

Names are imported from the submodules (hybridbn.data, hybridbn.graphs,
hybridbn.independence, hybridbn.skeleton, hybridbn.scoring,
hybridbn.network, hybridbn.metrics, hybridbn.multilabel,
hybridbn.parallel, hybridbn.synthetic); the package itself re-exports
nothing.
"""

__version__ = "0.1.0"
