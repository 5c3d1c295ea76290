"""
Minimal label powersets for multi-label classification
======================================================

Six labels in two independent clusters of three. Decomposing p(Y|X) into
its irreducible label blocks lets each block be modeled jointly while the
blocks stay separate, which is cheaper than the full powerset and captures
dependence that one-classifier-per-label misses.
"""

from hybridbn.multilabel import MlcConfig, minimal_label_powersets, run_scenarios
from hybridbn.network import forward_sample
from hybridbn.synthetic import two_cluster_network

net = two_cluster_network()
labels = list(range(8, 14))
names = net.names

blocks = minimal_label_powersets(net.graph, labels)
print("decomposition in the generating graph:")
for b in blocks:
    print("  block:", ", ".join(names[y] for y in b))

data = forward_sample(net, 3000, seed=7)
cfg = MlcConfig(folds=5, seed=7)

print()
print("5-fold cross-validation, exact-match accuracy over all six labels:")
reports = run_scenarios(data, labels, ["br", "mlp", "mlp+mb"], cfg)
for scenario, rep in reports.items():
    print(f"  {scenario:<7} accuracy {rep['accuracy_mean']:.3f} "
          f"(sd {rep['accuracy_sd']:.3f}), "
          f"blocks per fold {rep['n_blocks']['median']:.0f}")

fold = reports["mlp+mb"]["folds"][0]
print()
print("fold 0 under mlp+mb:")
for block, size in zip(fold["blocks"], fold["boundary_sizes"]):
    print(f"  {{{', '.join(block)}}} predicted from {size} features")

print()
print("br treats labels independently, so exact-match accuracy pays for")
print("every within-cluster dependence it ignores; mlp+mb keeps the joint")
print("blocks and trims each one down to its Markov boundary.")
