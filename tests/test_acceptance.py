"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; a failing assertion marks the criterion failed.
"""

import math

import numpy as np
import pytest

from helpers import (
    brute_force_nt_xent,
    drawn_head_params,
    grad_check,
    hinge_loss,
    orthogonal_class_means,
)
from simskip.augment import gaussian_noise, random_mask
from simskip.embedding_store import EmbeddingDataset, load_embeddings, save_embeddings
from simskip.evaluate import compare_embeddings
from simskip.losses import logistic_loss, nt_xent
from simskip.model import (
    arena_views,
    contrastive_loss_and_grads,
    init_params,
    load_checkpoint,
    refine,
    save_checkpoint,
)
from simskip.nn_core import (
    batchnorm_apply,
    batchnorm_backward,
    dropout_apply,
    dropout_backward,
    linear_apply,
    linear_backward,
    linear_init,
    relu_apply,
    relu_backward,
)
from simskip.synth_data import MixtureSpec, apply_class_mixing, generate_gaussian_mixture
from simskip.theory import gen_m, sample_triplets, skip_inequality_check
from simskip.trainer import TrainConfig, train

H = 1e-5
STANDARD_MIXTURE = MixtureSpec(2, 16, 200, class_separation=10.0, cluster_sigma=1.0, seed=7)


def _passed(n, text):
    print(f"PASS criterion {n}: {text}")


def test_c01_gradient_correctness():
    rng = np.random.default_rng(0)

    # linear layer
    weight, bias = np.empty((2, 3)), np.empty(2)
    linear_init(weight, bias, rng)
    x = rng.standard_normal((4, 3))
    r = rng.standard_normal((4, 2))
    arrays = {"w": weight, "b": bias, "x": x}

    def linear_loss():
        out, cache = linear_apply(x, weight, bias)
        dw, db = np.empty_like(weight), np.empty_like(bias)
        dx = linear_backward(cache, r, dw, db)
        return float((out * r).sum()), {"w": dw, "b": db, "x": dx}

    err_linear = grad_check(linear_loss, arrays, h=H)
    assert err_linear < 1e-6

    # batch norm through train-mode batch statistics
    xb = rng.standard_normal((5, 3)) * 2.0
    rb = rng.standard_normal((5, 3))
    gamma = rng.uniform(0.5, 1.5, 3)
    beta = rng.standard_normal(3)
    bn_arrays = {"gamma": gamma, "beta": beta, "x": xb}

    def bn_loss():
        out, cache = batchnorm_apply(xb, gamma, beta, np.zeros(3), np.ones(3), train=True)
        dgamma, dbeta = np.empty(3), np.empty(3)
        dx = batchnorm_backward(cache, rb, dgamma, dbeta)
        return float((out * rb).sum()), {"gamma": dgamma, "beta": dbeta, "x": dx}

    err_bn = grad_check(bn_loss, bn_arrays, h=H)
    assert err_bn < 1e-6

    # relu away from the kink
    xr = rng.standard_normal((4, 3))
    xr[np.abs(xr) < 0.1] = 0.5
    rr = rng.standard_normal((4, 3))

    def relu_loss():
        y, cache = relu_apply(xr)
        return float((y * rr).sum()), {"x": relu_backward(cache, rr)}

    err_relu = grad_check(relu_loss, {"x": xr}, h=H)
    assert err_relu < 1e-6

    # dropout with a deterministic mask (fresh seeded rng each evaluation)
    xd = rng.standard_normal((4, 3))
    rd = rng.standard_normal((4, 3))

    def dropout_loss():
        y, cache = dropout_apply(xd, 0.4, np.random.default_rng(123))
        return float((y * rd).sum()), {"x": dropout_backward(cache, rd)}

    err_drop = grad_check(dropout_loss, {"x": xd}, h=H)
    assert err_drop < 1e-6

    # full encoder + projector + contrastive loss graph, d=8, B=4, eval mode
    params = drawn_head_params(8, 1)
    params.tensors["layer1.running_mean"] += 0.1 * rng.standard_normal(4)
    params.tensors["layer1.running_var"] += 0.5 * rng.random(4)
    params.tensors["layer2.running_mean"] += 0.1 * rng.standard_normal(8)
    params.tensors["layer2.running_var"] += 0.5 * rng.random(8)
    pairs = rng.standard_normal((8, 8))
    grad = np.empty_like(params.flat)
    grads = arena_views(grad, 8)

    def full_loss():
        loss, dx = contrastive_loss_and_grads(params, pairs, 0.5, grads)
        return loss, {"params": grad, "input": dx}

    err_full = grad_check(full_loss, {"params": params.flat, "input": pairs}, h=H)
    assert err_full < 1e-4

    _passed(1, f"gradients match finite differences "
               f"(layers {max(err_linear, err_bn, err_relu, err_drop):.2e}, "
               f"full graph {err_full:.2e})")


def test_c02_nt_xent_oracle_equivalence():
    rng = np.random.default_rng(2)
    checked = 0
    worst = 0.0
    for n in range(2, 9):
        for tau in (0.07, 0.5, 1.0):
            for _ in range(5):
                z = rng.standard_normal((2 * n, 6))
                delta = abs(nt_xent(z, tau)[0] - brute_force_nt_xent(z, tau))
                worst = max(worst, delta)
                assert delta < 1e-10
                checked += 1
    assert checked >= 100
    _passed(2, f"optimized loss matches brute force on {checked} inputs "
               f"(worst |delta| {worst:.1e})")


def test_c03_closed_form_loss_values():
    z_same = np.tile([0.6, 0.8], (4, 1))
    assert abs(nt_xent(z_same, 0.5)[0] - math.log(3.0)) < 1e-12
    z_orth = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    assert abs(nt_xent(z_orth, 1.0)[0] - math.log(1.0 + 2.0 / math.e)) < 1e-12
    _passed(3, "ln 3 and ln(1 + 2/e) closed forms reproduced to 1e-12")


def test_c04_identity_at_init_safety(tmp_path):
    for d, count, seed in ((8, 500, 0), (32, 2000, 1), (64, 10_000, 2)):
        rng = np.random.default_rng(seed)
        raw = EmbeddingDataset(rng.standard_normal((count, d)) * 3.0,
                               rng.integers(0, 4, count))
        path = tmp_path / f"d{d}.embf"
        save_embeddings(raw, path)
        stored = load_embeddings(path)  # values now exactly float32-representable
        refined = refine(init_params(d, seed=seed), stored)
        assert np.array_equal(refined.vectors, stored.vectors)
        assert np.array_equal(refined.labels, stored.labels)
        out_path = tmp_path / f"r{d}.embf"
        save_embeddings(refined, out_path)
        assert out_path.read_bytes() == path.read_bytes()
    _passed(4, "zero-residual init refines to the input bit-exactly up to d=64, n=10^4")


def test_c05_augmentation_statistics():
    rng = np.random.default_rng(5)
    masked = random_mask(np.ones((100_000, 32)), 0.2, rng)
    frac = float((masked == 0.0).mean())
    assert abs(frac - 0.2) < 0.01

    noise = gaussian_noise(np.zeros((100_000, 8)), math.sqrt(0.13), rng)
    var = noise.var(axis=0)
    assert np.all(np.abs(var - 0.13) < 0.05 * 0.13)
    _passed(5, f"masked fraction {frac:.4f} ~ 0.2, noise variance "
               f"{var.mean():.4f} ~ 0.13")


def test_c06_refinement_no_worse():
    dataset = generate_gaussian_mixture(STANDARD_MIXTURE)  # 400 points, d=16
    for seed in range(5):
        cfg = TrainConfig(learning_rate=0.001, epochs=100, tau=0.5, seed=seed)
        params, losses = train(dataset, cfg)
        refined = refine(params, dataset)
        orig, ref = compare_embeddings(dataset, refined)
        assert ref["probe_accuracy"] >= orig["probe_accuracy"] - 0.02, (
            f"seed {seed}: refined {ref['probe_accuracy']} vs "
            f"original {orig['probe_accuracy']}"
        )
        assert losses[-1] < losses[0]
    _passed(6, "refined linear-probe accuracy within 0.02 of original on 5 seeds")


def test_c07_ablation_direction():
    # the two variants the CLI runs, `refine` and `ablate`: one config, and only
    # the skip flag differs (with the skip path the residual head starts at zero,
    # so that arm starts as the identity; without it the head is drawn)
    spec = MixtureSpec(2, 16, 500, class_separation=10.0, cluster_sigma=1.0, seed=7)
    mixed = apply_class_mixing(generate_gaussian_mixture(spec), 0.4, seed=11)
    wins = 0
    margins = []
    for seed in range(5):
        acc = {}
        for skip in (True, False):
            cfg = TrainConfig(learning_rate=0.001, batch_size=256, epochs=60,
                              tau=0.5, seed=seed, skip_enabled=skip)
            params, _ = train(mixed, cfg)
            _, refined = compare_embeddings(mixed, refine(params, mixed))
            acc[skip] = refined["probe_accuracy"]
        wins += acc[False] <= acc[True]
        margins.append(round(acc[True] - acc[False], 4))
    assert wins >= 4, f"skip beat no-skip in only {wins}/5 seeds (margins {margins})"
    _passed(7, f"skip >= no-skip in {wins}/5 seeds (margins {margins})")


def test_c08_theory_inequality():
    rng = np.random.default_rng(8)
    violations = 0
    for _ in range(10_000):
        u = rng.uniform(0.0, 10.0, size=rng.integers(1, 9))
        if logistic_loss(4 * u) > logistic_loss(u) or hinge_loss(4 * u) > hinge_loss(u):
            violations += 1
    assert violations == 0

    spec = MixtureSpec(8, 16, 50, class_separation=10.0, seed=7)
    dataset = generate_gaussian_mixture(spec, orthogonal_class_means(8, 16, 10.0))
    triplets = sample_triplets(dataset, k=1, count=1000, seed=3)
    report = skip_inequality_check(dataset, triplets)
    assert report["holds"] is True
    _passed(8, f"0 violations in 10^4 margin vectors; mixture check holds "
               f"(nonneg fraction {report['nonneg_margin_fraction']:.3f})")


def test_c09_bound_calculator():
    value = gen_m(1.0, 100, 1)
    assert abs(value - 0.18309) < 1e-5
    series = [gen_m(1.0, m, 1) for m in (10, 100, 1000)]
    assert series[0] > series[1] > series[2]
    _passed(9, f"gen_m = {value:.6f} (oracle 0.18309 +- 1e-5), decreasing in M")


def test_c10_persistence_and_determinism(tmp_path):
    # EMBF bit-exactness through a save/load/save cycle
    rng = np.random.default_rng(10)
    ds = EmbeddingDataset(rng.standard_normal((64, 8)), rng.integers(0, 3, 64))
    p1, p2 = tmp_path / "a.embf", tmp_path / "b.embf"
    save_embeddings(ds, p1)
    save_embeddings(load_embeddings(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()

    # identical (config, seed) training runs: identical losses and checkpoints
    dataset = generate_gaussian_mixture(MixtureSpec(2, 8, 32, seed=3))
    cfg = TrainConfig(learning_rate=0.001, batch_size=32, epochs=5, seed=4)
    ckpts = []
    losses = []
    for tag in ("x", "y"):
        params, epoch_losses = train(dataset, cfg)
        path = tmp_path / f"{tag}.sskp"
        save_checkpoint(params, path)
        ckpts.append(path.read_bytes())
        losses.append(epoch_losses)
    assert losses[0] == losses[1]
    assert ckpts[0] == ckpts[1]

    # SSKP round trip is bit-exact
    params = load_checkpoint(tmp_path / "x.sskp")
    save_checkpoint(params, tmp_path / "z.sskp")
    assert (tmp_path / "z.sskp").read_bytes() == ckpts[0]
    _passed(10, "EMBF/SSKP round trips bit-exact; training bitwise reproducible")
