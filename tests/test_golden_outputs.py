"""Golden sha256 digests of every file the CLI pipeline writes.

Each case runs `gen-synth -> refine -> ablate -> eval -> theory -> augment
-> inspect` in process through `cli.parse_and_run`, inside a temporary
working directory with relative file names, so the paths the reports
record are the same on every run. A change that keeps the outputs
byte-identical leaves every digest here unchanged; there is no tolerance.

The digests pin the float64 results with this platform's NumPy/BLAS build
(x86-64, NumPy 2.x), like the SSKP digests in `test_model.py`.
"""

import hashlib

import pytest

from simskip import utils
from simskip.cli import parse_and_run

# name -> (classes, per_class, dim, batch_size, hidden_dim, triplets, k, seed)
CASES = {
    # the eval-theory benchmark workload's stage arguments: 8 x 200 rows, d = 32
    "eval-theory": (8, 200, 32, 64, 16, 10000, 4, 11),
    # 1024 rows at d = 256 and batch 256: refine's 512-row blocks and nt_xent's
    # 256-row blocks over the 512 rows of a paired batch each run twice
    "blocked": (4, 256, 256, 256, 16, 1000, 1, 12),
}

GOLDEN = {
    "eval-theory": {
        "data.embf":
            "cf11521c0bb4a205ebfa9527d1c258b164b6c53c7c9cb0815b5a3bbe67e2db4e",
        "refined.embf":
            "cff4731714a09c21ae013e8f9bb602c909d32336c171337ab0dae5aada0a9624",
        "refined.sskp":
            "811682a9e753b825ee840dbcc5bcf8270c1e8d6a083c3695f640bae226f3561b",
        "train.json":
            "0bb8a344f9c60d9776d0052167b85277f7e9edffd59039a5d617fbd9b23c03a5",
        "ablated.embf":
            "1d913e2125583474fd23ebc768ae202f2c62f9f8e98eed5f7a7c94f411d91f59",
        "ablate.json":
            "29467834f84baf137d957d279e9c7a80c179fc50a06a0b7f57b946cbbd379644",
        "eval.json":
            "ad8f5aa624ba7d315938db72920e2d16c11cb93472162f7599899f336982fff5",
        "theory.json":
            "0c22a6d598eb8379102dbb931248c949db6beb01ca716d2b60bceaf674a5f339",
        "augment.json":
            "61dca75a367b3f051a9f1961760f61f2c7f5441688f7fac4ededd3ee392b3cc3",
        "inspect_embf.json":
            "2573967c453b2f95d693c8944389b828a678c351d4e52f79dfafb6fb59bcfb3a",
        "inspect_sskp.json":
            "e580ee9050b1301e87e680ef0ebdfcbab63a5cf4432c8c98cbdfb300fffe47fb",
    },
    "blocked": {
        "data.embf":
            "1ea1d006ab8bb0486f96b412b06ca9494c4b48ae3438dffe10a25be32080989d",
        "refined.embf":
            "b151ca11c14e60beaf2682bf358ae5f959e945ff9ba7accd6af196e638f9adf4",
        "refined.sskp":
            "4cdf9edefaed839dc9c8ed452695b031701005006f0e62e63ec06bde15160531",
        "train.json":
            "54c290b534da04ee1703e28add7bc3471cdde7a3bb8fbef5bfcec091c7cc6e7c",
        "ablated.embf":
            "b43972cec75f179fea33254044601561fe886d68d679625e2133498c2510a790",
        "ablate.json":
            "4b47031ac65e8f1adec54f17adc0d249ecd5c770023b5a76dc519691a5dc9200",
        "eval.json":
            "2fcbad42f164a0fed2920ee721d1e394560617fc0f62166210008637dae4c675",
        "theory.json":
            "bab7e706f4e02dad9dbfced1eca264f30f33b13c4820976b58149e1d35a9bd50",
        "augment.json":
            "5682cedf9be1843df7bbc8cc2854d98f639abb7670a87ed7c084fdc6dccd6c80",
        "inspect_embf.json":
            "9ccf726424300d77c49452e0a3b2251227d9d20d9ce45b94d9eb5c965b771a40",
        "inspect_sskp.json":
            "405a524f678513da907129d7d422f48458361f2f0d667fdc33dde77b2aa82181",
    },
}


def _pipeline(classes, per_class, dim, batch, hidden_dim, triplets, k, seed):
    """The pipeline's argv lists, in run order."""
    return [
        ["gen-synth", "--classes", classes, "--dim", dim, "--per-class", per_class,
         "--seed", seed, "--mix-strength", 0.4, "--out", "data.embf"],
        ["refine", "--in", "data.embf", "--config", "train.cfg", "--out", "refined.embf",
         "--checkpoint", "refined.sskp", "--report", "train.json"],
        ["ablate", "--in", "data.embf", "--config", "train.cfg", "--out", "ablated.embf",
         "--report", "ablate.json"],
        ["eval", "--original", "data.embf", "--refined", "refined.embf", "ablated.embf",
         "--hidden-dim", hidden_dim, "--train-fraction", 0.5, "--report", "eval.json"],
        ["theory", "--in", "refined.embf", "--triplets", triplets, "--k", k,
         "--seed", seed, "--report", "theory.json"],
        ["augment", "--in", "data.embf", "--mask-prob", 0.2, "--rows", 3,
         "--seed", seed, "--report", "augment.json"],
        ["inspect", "--in", "refined.embf", "--report", "inspect_embf.json"],
        ["inspect", "--in", "refined.sskp", "--report", "inspect_sskp.json"],
    ]


@pytest.mark.parametrize("case", sorted(CASES))
def test_pipeline_outputs_match_golden_digests(case, tmp_path, monkeypatch):
    classes, per_class, dim, batch, *_, seed = CASES[case]
    if case == "blocked":
        rows, pair_rows = classes * per_class, 2 * batch
        assert utils.block_rows(8 * dim, rows) < rows
        assert utils.block_rows(8 * pair_rows, pair_rows) < pair_rows
    monkeypatch.chdir(tmp_path)
    (tmp_path / "train.cfg").write_text(f"batch_size = {batch}\nepochs = 1\nseed = {seed}\n")
    for argv in _pipeline(*CASES[case]):
        assert parse_and_run([str(a) for a in argv]) == 0, argv
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN[case]}
    written = {p.name for p in tmp_path.iterdir()} - {"train.cfg"}
    assert written == set(GOLDEN[case])
    changed = sorted(name for name, digest in GOLDEN[case].items() if got[name] != digest)
    assert not changed, f"outputs whose digest changed: {changed}; now {got}"
