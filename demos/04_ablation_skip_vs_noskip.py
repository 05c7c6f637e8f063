"""Ablation: what the skip connection buys during refinement.

Train two refiners on the same degraded embedding with the same config,
one with the skip path and one without (`simskip refine` and `simskip
ablate`), and probe the outputs. With the skip path the residual head starts
at zero, so training starts from the input itself; without it the encoder
starts from a random map and must rediscover the input's structure.

Run:  python3 demos/04_ablation_skip_vs_noskip.py   (about a minute)
"""

import simskip as ss

spec = ss.MixtureSpec(num_classes=2, dim=16, points_per_class=500,
                      class_separation=10.0, cluster_sigma=1.0, seed=7)
mixed = ss.apply_class_mixing(ss.generate_gaussian_mixture(spec), 0.4, seed=11)
print(f"input: mixed two-class embedding, probe accuracy "
      f"{ss.evaluate_embeddings(mixed)['probe_accuracy']:.3f}")
print()

header = f"{'seed':>4}  {'with skip':>10}  {'no skip':>10}  {'delta':>7}"
print(header)
print("-" * len(header))
for seed in range(3):
    acc = {}
    for skip in (True, False):
        cfg = ss.TrainConfig(learning_rate=0.001, batch_size=256, epochs=60,
                             tau=0.5, seed=seed, skip_enabled=skip)
        params, _ = ss.train(mixed, cfg)
        _, refined = ss.compare_embeddings(mixed, ss.refine(params, mixed))
        acc[skip] = refined["probe_accuracy"]
    print(f"{seed:>4}  {acc[True]:>10.3f}  {acc[False]:>10.3f}  "
          f"{acc[True] - acc[False]:>+7.3f}")

print()
print("The no-skip variant is the same graph with the additive identity")
print("path removed; its refined embeddings track the input less closely,")
print("and the downstream probe typically pays for it.")
