"""Why the skip connection cannot hurt: the loss-bound machinery, numerically.

The downstream supervised loss of a contrastively trained encoder is
bounded by alpha * L_un(f) + eta * Gen_M + eps. The skip-connection
argument compares L_un under the identity map f_I against the doubled map
2*f_I (an identity residual branch plus the identity path): doubling
multiplies every triplet margin x^T(x+ - x-) by 4, and the logistic loss is
monotonically decreasing, so wherever margins are nonnegative the loss can
only drop. This demo samples triplets from a labeled embedding, measures
how often the margin condition holds, and evaluates every bound term.

Run:  python3 demos/03_skip_connection_theory.py
"""

import numpy as np

import simskip as ss
from simskip.theory import bound_report

# classes in orthogonal directions away from the origin: dot-product
# margins need directional separation, not just distance
C, dim, sep = 8, 16, 10.0
means = np.zeros((C, dim))
means[np.arange(C), np.arange(C)] = sep
spec = ss.MixtureSpec(C, dim, 50, class_separation=sep, cluster_sigma=1.0, seed=7)
dataset = ss.generate_gaussian_mixture(spec, means)

print(f"dataset: {dataset.count} points, {C} classes in orthogonal directions")
triplets = ss.sample_triplets(dataset, k=1, count=2000, seed=3)

report = ss.skip_inequality_check(dataset, triplets)
print()
print("-- skip inequality -------------------------------------------------")
print(f"fraction of nonnegative margins:      {report['nonneg_margin_fraction']:.3f}")
print(f"L_un(identity map):                   {report['L_un_identity']:.4f}")
print(f"L_un(doubled map, margins x4):        {report['L_un_doubled']:.4f}")
print(f"ordering holds on nonneg subset:      {report['holds']} "
      f"({report['nonneg_triplet_count']}/{report['triplet_count']} triplets)")

print()
print("-- single-margin intuition ------------------------------------------")
for u in (0.25, 0.5, 1.0, 2.0):
    print(f"  margin {u:4.2f}: logistic(u) = {ss.logistic_loss([u]):.4f}   "
          f"logistic(4u) = {ss.logistic_loss([4 * u]):.4f}")

print()
print("-- generalization term Gen_M ----------------------------------------")
print("   M      Gen_M   (R=1, k=1, Rademacher=1, delta=0.05)")
for m in (10, 100, 1000, 10_000):
    g = ss.gen_m(1.0, m, 1)
    print(f"  {m:5d}   {g:.5f}")

print()
print("-- assembled bound right-hand side ----------------------------------")
# the bound as `simskip theory` reports it: R is the embedding's largest row
# norm, M and k come from the triplets, the other constants are fixed
bound = bound_report(dataset, triplets)
c = bound["config"]
print(f"R = largest row norm = {c['R']:.4f}, M = {c['M']}, k = {c['k']}: "
      f"Gen_M = {bound['gen_m']:.4f}")
print(f"alpha * L_un + eta * Gen_M + eps = "
      f"{c['alpha']} * {bound['L_un_identity']:.4f} + {c['eta']} * {bound['gen_m']:.4f} + "
      f"{c['eps_slack']} = {bound['bound_rhs']:.4f}")
