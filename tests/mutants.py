"""Mutation score of the tests under `tests/` over a committed mutant table, stdlib only.

Run from anywhere:  python tests/mutants.py

A mutant is a one-line text edit of `src/simskip` that a good test suite
should catch ("kill"). Each one runs in its own temporary copy of `src/`,
`tests/` and `pyproject.toml`, outside the checkout, under
`pytest -x` over the mutated module's tests (`tests/test_<module>.py`, or
the test file its row names), then `test_golden_outputs.py` and
`test_acceptance.py`; a failed test kills it. The script prints each
verdict and `mutants_killed k/n`. Before any mutant runs it checks that
every old text occurs exactly once in its file and that an unmutated copy
passes all those tests. It exits 1 when either check fails, on a mutant
whose run ends in a pytest error other than a failed test, on a survivor
that `EQUIVALENT` does not list, and on an `EQUIVALENT` entry that names
no surviving mutant.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "simskip"

# (file in src/simskip, old text, new text, what the edit breaks[, its test file in tests/])
MUTANTS = [
    ("nn_core.py", "ADAM_EPS = 0.9, 0.999, 1e-8", "ADAM_EPS = 0.9, 0.999, 1e-7",
     "Adam's epsilon, which every update divides by", "test_trainer.py"),
    ("evaluate.py", "np.cumsum(ties, axis=1) > kept", "np.cumsum(ties, axis=1) >= kept",
     "kNN's tie-break at the k-th distance drops one tie too many"),
    ("theory.py", "rng.integers(1, sizes[c])", "rng.integers(0, sizes[c])",
     "a triplet's positive may be its own anchor"),
    ("nn_core.py", "BN_EPS = 1e-5", "BN_EPS = 1e-3", "batch norm's variance floor"),
    ("augment.py", "keep = rng.random(x.shape) >= mask_prob",
     "keep = rng.random(x.shape) > mask_prob",
     "random_mask zeroes a coordinate whose draw equals mask_prob"),
    ("evaluate.py", "train.vectors.std(axis=0), 1e-12)", "train.vectors.std(axis=0), 1e-6)",
     "the probe's feature-scale floor flattens near-constant columns"),
    ("theory.py", "math.sqrt(k) * RADEMACHER / M", "math.sqrt(k) * RADEMACHER / (M + 1)",
     "Gen_M's first term divides by the wrong sample size"),
    ("theory.py", "EPS_SLACK = 1.0, 0.05, 1.0, 1.0, 0.0",
     "EPS_SLACK = 1.0, 0.1, 1.0, 1.0, 0.0", "the bound's confidence delta"),
    ("theory.py", "EPS_SLACK = 1.0, 0.05, 1.0, 1.0, 0.0",
     "EPS_SLACK = 1.0, 0.05, 1.0, 1.0, 0.1", "the bound's slack epsilon"),
    ("evaluate.py", '@np.errstate(under="ignore")  # tiny squared distances',
     "# tiny squared distances", "kNN faults on underflow under a caller's all-raise state"),
    ("cli.py", "if out.is_dir():", "if False:",
     "an output path naming a directory is not rejected before the run"),
    ("utils.py", "tmp.unlink(missing_ok=True)", "pass",
     "a failed atomic write leaves its temporary file behind"),
    ("embedding_store.py", "if reserved != 0:", "if reserved > 1:",
     "EMBF reserved header bytes equal to 1 are accepted"),
    ("model.py", "if flags & ~1:", "if flags & ~3:", "SSKP flag bit 1 is accepted as known"),
    ("losses.py", "return (m + np.log(s)) / LN2", "return m + np.log(s)",
     "the logistic loss in nats, not bits"),
    ("losses.py", "s[local, local + r0]", "s[local, local]",
     "NT-Xent masks the wrong column of a row block, not each row's self-similarity"),
    ("theory.py", "top >= embedded.shape[0]", "top > embedded.shape[0]",
     "a triplet index one past the last row is not rejected"),
    ("nn_core.py", "1 - ADAM_BETA1**t", "1 - ADAM_BETA1**(t + 1)",
     "Adam's first-moment bias correction is one step off", "test_trainer.py"),
    ("nn_core.py", "dx -= var_term", "pass",
     "batch norm's backward drops the gradient through the variance"),
    ("embedding_store.py", "- base[c]), c)", "- base[c]), -c)",
     "split hands a tied remainder's extra row to the higher class id"),
    ("embedding_store.py", "-(train_fraction", "(train_fraction",
     "split hands the extra rows to the smallest remainders"),
    ("embedding_store.py", "short = max(n_train - sum(base.values()), 0)",
     "short = n_train - sum(base.values())",
     "split's train part overshoots when float rounding lifts a class's share"),
    ("evaluate.py", "ref[key] - orig[key]", "orig[key] - ref[key]",
     "a comparison's deltas are the original's scores minus the refined ones"),
    ("cli.py", "except (MemoryError, OverflowError, ValueError)",
     "except (OverflowError, ValueError)", "an array too large to allocate ends in a traceback"),
    ("nn_core.py", "dx = keep / (1.0 - rate)", "dx = keep / 1.0",
     "dropout's backward drops the survivors' 1/(1-rate) scale"),
    ("cli.py", "from . import __version__", "from . import __version__, augment",
     "every CLI start loads the augmentation module, gen-synth's included"),
]

# (file, old text, new text) of a mutant no test can kill -> why its edit changes no result
EQUIVALENT = {}


def pytest_code(work: Path, tests: list[str], edit: tuple[str, str, str] | None = None) -> int:
    """pytest's exit code over `tests` in a fresh copy under `work`, with the
    (file, old text, new text) `edit` applied when one is given."""
    copy = work / "copy"
    shutil.rmtree(copy, ignore_errors=True)
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, copy / part, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", copy)
    if edit:
        name, old, new = edit
        target = copy / "src" / "simskip" / name
        target.write_text(target.read_text().replace(old, new))
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=copy, env=env, capture_output=True).returncode


def tests_of(name: str, test: str | None = None) -> list[str]:
    """The tests a mutant of `name` runs: its own (`test`, when its row names
    one), then the golden outputs and the acceptance criteria."""
    return [f"tests/{test or f'test_{Path(name).stem}.py'}", "tests/test_golden_outputs.py",
            "tests/test_acceptance.py"]


def main() -> int:
    failed = False
    for name, old, *_ in MUTANTS:
        count = (PACKAGE / name).read_text().count(old)
        if count != 1:
            print(f"{name}: old text occurs {count} times, not once: {old!r}")
            failed = True
    if failed:
        return 1
    killed, survivors = 0, set()
    with tempfile.TemporaryDirectory() as tmp:
        # a kill means something only if the unmutated copy passes the same tests
        every = sorted({test for row in MUTANTS for test in tests_of(row[0], *row[4:])})
        if code := pytest_code(Path(tmp), every):
            print(f"the unmutated copy fails its tests (pytest exit {code})")
            return 1
        for name, old, new, why, *test in MUTANTS:
            start = time.perf_counter()
            code = pytest_code(Path(tmp), tests_of(name, *test), (name, old, new))
            killed += code == 1
            reason = EQUIVALENT.get((name, old, new))
            if code == 0:
                survivors.add((name, old, new))
                verdict = f"survived [equivalent: {reason}]" if reason else "SURVIVED"
            else:
                verdict = "killed" if code == 1 else f"ERROR (pytest exit {code})"
                failed |= code != 1
            print(f"  {verdict}  {name}: {old!r} -> {new!r} ({why}; "
                  f"{time.perf_counter() - start:.1f} s)")
    print(f"mutants_killed {killed}/{len(MUTANTS)}")
    for key in sorted(EQUIVALENT.keys() - survivors):
        print(f"  equivalent but not surviving: {key}")
        failed = True
    return int(failed or bool(survivors - EQUIVALENT.keys()))


if __name__ == "__main__":
    sys.exit(main())
