"""
Hybrid structure learning end to end
====================================

h2pc runs both phases. Constraint phase first: local discovery around
every node, mutual edges kept. Score phase second: hill climbing with a
tabu list, restricted to the skeleton. The learned equivalence class is
then compared against the generating one and scored on held-out data.
"""

from hybridbn.graphs import Dag
from hybridbn.independence import DataIndependenceSource
from hybridbn.metrics import dag_to_cpdag, holdout_scores, shd
from hybridbn.network import forward_sample
from hybridbn.skeleton import h2pc
from hybridbn.synthetic import recovery_network

net = recovery_network()
train = forward_sample(net, 20000, seed=[2026, 0])
holdout = forward_sample(net, 10000, seed=[2026, 1])

run = h2pc(DataIndependenceSource(train))
print(f"constraint phase: {len(run.skeleton.edges)} candidate edges, "
      f"{run.ci_tests} CI tests")

result = run.search
print(f"score phase: {result.moves} moves, "
      f"{result.dag.edge_count()} directed edges")
print(f"BDeu (train): {result.score:.1f} vs empty {result.empty_score:.1f}")

# compare equivalence classes, not raw edge directions
distance = shd(dag_to_cpdag(result.dag), dag_to_cpdag(net.graph))
print(f"SHD to the generating class: {distance}")

scores = holdout_scores(holdout, {"learned": result.dag, "truth": net.graph,
                                  "empty": Dag(net.graph.d)})
print(f"BDeu (holdout): learned {scores['learned']['bdeu']:.1f}, "
      f"truth {scores['truth']['bdeu']:.1f}, "
      f"empty {scores['empty']['bdeu']:.1f}")

print()
print("learned edges (by name):")
names = net.names
for u, v in sorted(result.dag.edges()):
    print(f"  {names[u]} -> {names[v]}")
