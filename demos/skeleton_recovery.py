"""
Skeleton recovery as the sample size grows
==========================================

Draws datasets of increasing size from a fixed 10-node, 12-edge network,
runs the constraint phase alone, and tabulates how the learned undirected
skeleton converges to the generating one.
"""

from hybridbn.independence import DataIndependenceSource
from hybridbn.metrics import skeleton_metrics
from hybridbn.network import forward_sample
from hybridbn.skeleton import Skeleton, build_skeleton
from hybridbn.synthetic import recovery_network

net = recovery_network()
g = net.graph

# undirected view of the generating DAG; Skeleton orders each pair
truth = Skeleton(g.d, frozenset(g.edges()))
print(f"generating network: {g.d} nodes, {len(truth.edges)} skeleton edges")
print()
print(f"{'n':>7}  {'edges':>5}  {'tp':>3}  {'fp':>3}  {'fn':>3}  "
      f"{'precision':>9}  {'recall':>6}")

for n in (60, 100, 250, 1000, 5000, 20000):
    data = forward_sample(net, n, seed=[n, 0])
    skel = build_skeleton(DataIndependenceSource(data))
    m = skeleton_metrics(skel, truth)
    print(f"{n:>7}  {len(skel.edges):>5}  {m.tp:>3}  {m.fp:>3}  {m.fn:>3}  "
          f"{m.precision:>9.3f}  {m.recall:>6.3f}")

print()
print("at the smallest sizes the power rule and the FDR filter hold back")
print("weakly supported edges, so recall climbs with n while false")
print("positives stay rare: an edge needs both endpoints to nominate each")
print("other before it enters the skeleton.")
