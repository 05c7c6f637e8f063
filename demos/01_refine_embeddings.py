"""End-to-end walkthrough: refine a degraded embedding and measure the gain.

We synthesize a well-separated two-class embedding, corrupt it by blending
each vector with a random row (the "classes mixed together" failure mode a
bad encoder produces), then train the skip-connection refiner on the
corrupted data and compare downstream quality before and after.

Run:  python3 demos/01_refine_embeddings.py
"""

import numpy as np

import simskip as ss

print("=" * 70)
print("1. Synthesize data: 2 classes, dim 16, 200 points per class")
print("=" * 70)
spec = ss.MixtureSpec(num_classes=2, dim=16, points_per_class=200,
                      class_separation=10.0, cluster_sigma=1.0, seed=7)
clean = ss.generate_gaussian_mixture(spec)
mixed = ss.apply_class_mixing(clean, mix_strength=0.4, seed=11)
print(f"clean probe accuracy:  {ss.evaluate_embeddings(clean)['probe_accuracy']:.3f}")
print(f"mixed probe accuracy:  {ss.evaluate_embeddings(mixed)['probe_accuracy']:.3f}")

print()
print("=" * 70)
print("2. The refiner starts as the exact identity map")
print("=" * 70)
params = ss.init_params(d=16, seed=0)
refined_at_init = ss.refine(params, mixed)
print("refine(init_params, data) == data:",
      np.array_equal(refined_at_init.vectors, mixed.vectors))

print()
print("=" * 70)
print("3. Train with the contrastive objective (Gaussian-noise pairs)")
print("=" * 70)
cfg = ss.TrainConfig(learning_rate=0.001, epochs=100, tau=0.5, seed=0)
params, losses = ss.train(mixed, cfg)
print(f"epochs: {len(losses)}, loss {losses[0]:.4f} -> {losses[-1]:.4f}")
for i in range(0, len(losses), 20):
    bar = "#" * int(40 * (losses[i] - 4.0) / (losses[0] - 4.0 + 1e-9))
    print(f"  epoch {i:3d}  {losses[i]:.4f}  {bar}")

print()
print("=" * 70)
print("4. Compare original vs refined under one shared split")
print("=" * 70)
refined = ss.refine(params, mixed)
before, after = ss.compare_embeddings(mixed, refined)
print(f"kNN same-label score: {before['knn_score']:.3f} -> "
      f"{after['knn_score']:.3f}  (delta {after['deltas']['knn_score']:+.3f})")
print(f"linear probe accuracy: {before['probe_accuracy']:.3f} -> "
      f"{after['probe_accuracy']:.3f}  (delta {after['deltas']['probe_accuracy']:+.3f})")

print()
print("=" * 70)
print("5. Persistence: EMBF datasets and SSKP checkpoints of the encoder round-trip")
print("=" * 70)
import tempfile
from pathlib import Path

with tempfile.TemporaryDirectory() as tmp:
    emb_path = Path(tmp) / "refined.embf"
    ckpt_path = Path(tmp) / "model.sskp"
    ss.save_embeddings(refined, emb_path)
    ss.save_checkpoint(params, ckpt_path)
    back = ss.load_embeddings(emb_path)
    reloaded = ss.load_checkpoint(ckpt_path)
    print(f"EMBF file: {emb_path.stat().st_size} bytes, "
          f"reload matches at storage precision: "
          f"{np.array_equal(back.vectors, refined.vectors.astype(np.float32).astype(np.float64))}")
    print(f"SSKP file: {ckpt_path.stat().st_size} bytes, the encoder alone "
          f"(the projector only fed the loss)")
    again = ss.refine(reloaded, mixed)
    print("checkpoint reproduces the refined embedding:",
          np.array_equal(again.vectors, refined.vectors))
