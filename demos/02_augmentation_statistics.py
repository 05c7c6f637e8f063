"""The two embedding-space augmentations and their statistics.

Positive pairs are built by masking random coordinates (probability 0.2 in
the experiments) or adding Gaussian noise (variance 0.13), or both, mask
first. `make_positive_pairs` draws the pairs of a whole batch; a single input
is the one-row batch. This demo shows the identity limits and checks the
sample statistics against the configured values by Monte Carlo.

Run:  python3 demos/02_augmentation_statistics.py
"""

import numpy as np

import simskip as ss

rng = np.random.default_rng(0)
x = rng.standard_normal(8).round(3)

print("input vector:", x)
print()
print("-- identity limits ------------------------------------------------")
print("mask_prob=0:   ", ss.random_mask(x, 0.0, rng))
print("noise_scale=0: ", ss.gaussian_noise(x, 0.0, rng))

print()
print("-- one masked view (mask_prob=0.2) --------------------------------")
print(ss.random_mask(x, 0.2, np.random.default_rng(1)))

print()
print("-- a positive pair under mask+gaussian -----------------------------")
cfg = ss.AugmentConfig(mask_prob=0.2)  # masking, then the default noise
# one input is the one-row batch: rows 0 and 1 of the (2, 8) result are its pair
view_a, view_b = ss.make_positive_pairs(x[None], cfg, np.random.default_rng(3))
print("view a:", view_a.round(3))
print("view b:", view_b.round(3))

print()
print("-- Monte-Carlo statistics over 10^5 draws ---------------------------")
draws = ss.random_mask(np.ones((100_000, 32)), 0.2, np.random.default_rng(4))
print(f"masked fraction: {(draws == 0).mean():.4f}   (target 0.2)")

noise = ss.gaussian_noise(np.zeros((100_000, 8)), ss.DEFAULT_NOISE_SCALE,
                          np.random.default_rng(5))
print(f"noise mean:      {noise.mean():+.5f}  (target 0)")
print(f"noise variance:  {noise.var():.4f}   (target 0.13)")
