"""Fixtures built once per program version, before any timed run.

A fixture directory holds what no timed phase may pay for: the warm
shard cache, the production model trained by the real ``repro train
--run-dir`` into the registry ``repro serve`` loads, the compiled native
kernel, and bytecode for the whole source tree.  It is keyed by a
digest of ``src/repro``, so a change to training serves its own model,
never a stale one.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

#: Bump when the recipe below changes, so old fixtures are rebuilt.
RECIPE = "1"
#: Inputs per application of every generated dataset (the ``repro
#: train`` default, so the production model and fig7 share one).
INPUTS_PER_APP = 12
#: Dataset seed of the production model (``repro train`` default).
PRODUCTION_SEED = 0
#: Datasets one train-warm op trains on.  The trees a dataset grows
#: differ in size by seed (3000-3800 nodes in ten rounds), so an op over
#: several keeps a run's time from following the one dataset a seed
#: picks.
TRAIN_DATASETS = 4
CACHE_DIRNAME = ".perfledger-cache"
#: Complete fixture directories kept (about 180 MB each): the running
#: version and the two used most recently before it.
KEEP_VERSIONS = 3
HERE = Path(__file__).resolve().parent

#: Thread pools pinned to one thread in every process the benchmark
#: starts, so BLAS-level parallelism cannot change what a run measures.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def src_digest(src: Path) -> str:
    """SHA-256 over every source file under *src* (bytecode excluded)."""
    h = hashlib.sha256(RECIPE.encode())
    for path in sorted(src.rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts \
                or path.suffix == ".pyc":
            continue
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


class Fixtures:
    """Paths of one fixture directory under the checkout *root*."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.dir = root / CACHE_DIRNAME / src_digest(self.src / "repro")[:16]
        self.registry = self.dir / "registry"
        self.shards = self.dir / "shards"

    def env(self, fixture_dir: Path | None = None) -> dict:
        """Environment of every process the benchmark starts."""
        env = dict(os.environ)
        env.update({var: "1" for var in THREAD_VARS})
        env["PYTHONPATH"] = os.pathsep.join([str(self.src), str(self.root)])
        env["PYTHONHASHSEED"] = "0"
        env["REPRO_NATIVE_CACHE"] = str((fixture_dir or self.dir) / "native")
        return env

    def ensure(self) -> None:
        """Build the fixture directory unless it is already complete.

        Builds into a temporary sibling and renames it into place.
        Fixtures (and cross-run records) of other source versions are
        kept, so runs that alternate a parent and a change reuse each
        side's; only the least recently used beyond
        :data:`KEEP_VERSIONS` and leftovers of dead builds are removed.
        """
        ready = self.dir / "READY"
        if ready.is_file():
            os.utime(ready)
            return
        parent = self.dir.parent
        parent.mkdir(exist_ok=True)
        evict(parent, KEEP_VERSIONS - 1)
        tmp = parent / f"{self.dir.name}.tmp{os.getpid()}"
        try:
            self._build(tmp)
            os.replace(tmp, self.dir)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def _build(self, tmp: Path) -> None:
        print(f"building fixtures in {self.dir}", file=sys.stderr)
        env = self.env(tmp)
        _python(env, "-m", "compileall", "-q", str(self.src / "repro"),
                str(HERE))
        _python(env, "-c", "from repro import native\n"
                "print('native kernel:', native.kernel_info())")
        _python(env, "-m", "repro.cli", "train",
                "--inputs-per-app", str(INPUTS_PER_APP),
                "--seed", str(PRODUCTION_SEED),
                "--run-dir", str(tmp / "registry"),
                "--output", str(tmp / "predictor.pkl"))
        self.prefill([PRODUCTION_SEED], tmp)
        (tmp / "READY").write_text(self.dir.name + "\n")

    def prefill(self, seeds: list[int],
                fixture_dir: Path | None = None) -> None:
        """Fill the shard cache for the datasets of *seeds* (untimed)."""
        fixture_dir = fixture_dir or self.dir
        for seed in seeds:
            marker = fixture_dir / "shards" / f"seed-{seed}.filled"
            if marker.is_file():
                continue
            _python(self.env(fixture_dir), str(HERE / "worker.py"),
                    "prefill", "--seed", str(seed),
                    "--fixtures", str(fixture_dir))
            marker.write_text("")


def dataset_seeds(seed: int) -> list[int]:
    """Seeds of the datasets a train-warm run of *seed* trains on."""
    return [seed * TRAIN_DATASETS + k for k in range(TRAIN_DATASETS)]


def evict(parent: Path, keep: int) -> None:
    """Remove build directories of dead processes, and all but the
    *keep* most recently used complete fixture directories."""
    complete = []
    for path in parent.iterdir():
        _, tmp, pid = path.name.partition(".tmp")
        if tmp:
            if not (pid.isdigit() and _alive(int(pid))):
                shutil.rmtree(path, ignore_errors=True)
        elif (path / "READY").is_file():
            complete.append(path)
    complete.sort(key=lambda path: (path / "READY").stat().st_mtime)
    for stale in complete[:max(len(complete) - keep, 0)]:
        shutil.rmtree(stale, ignore_errors=True)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def model_path(fixture_dir: Path) -> Path:
    """The production predictor inside its registry run."""
    found = sorted((fixture_dir / "registry").glob("train-*/*.pkl"))
    if len(found) != 1:
        raise RuntimeError(f"expected one model under {fixture_dir}, "
                           f"found {len(found)}")
    return found[0]


def _python(env: dict, *args: str) -> None:
    subprocess.run([sys.executable, *args], env=env, check=True,
                   stdout=sys.stderr, timeout=600)
