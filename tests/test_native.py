"""First-use compilation of the native kernels: compiler fallback,
temp-file hygiene, and concurrent builders sharing one cache."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import native

SRC = Path(native.__file__).resolve().parents[1]


@pytest.fixture
def fresh_native(monkeypatch, tmp_path):
    """An empty kernel cache and an unresolved kernel state; the
    process-wide state is restored afterwards."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    saved = native._state
    native._state = None
    yield cache
    native._state = saved


def test_gcc_is_tried_when_cc_is_missing(fresh_native, monkeypatch,
                                         tmp_path):
    gcc, assembler = shutil.which("gcc"), shutil.which("as")
    if gcc is None or assembler is None:
        pytest.skip("needs gcc and binutils")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "gcc").symlink_to(gcc)
    monkeypatch.setenv("PATH", str(bin_dir))
    # gcc finds as/ld through COMPILER_PATH, so PATH holds only gcc.
    monkeypatch.setenv("COMPILER_PATH", os.path.dirname(assembler))
    assert native.available(), native.kernel_info()
    assert [p.name for p in fresh_native.iterdir()] == [
        Path(native.kernel_info()).name]


def test_failed_compile_leaves_no_temp_files(fresh_native, monkeypatch,
                                             tmp_path):
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    assert not native.available()
    info = native.kernel_info()
    assert "cc:" in info and "gcc:" in info
    assert list(fresh_native.iterdir()) == []


def test_concurrent_first_use_compiles_one_kernel(tmp_path):
    if shutil.which("cc") is None and shutil.which("gcc") is None:
        pytest.skip("no C compiler")
    cache, go = tmp_path / "cache", tmp_path / "go"
    env = {**os.environ, "REPRO_NATIVE_CACHE": str(cache),
           "PYTHONPATH": str(SRC)}
    env.pop("REPRO_NATIVE", None)
    # Both children import first, then spin until the go file exists,
    # so their available() calls start together.
    script = (
        "import os, time\n"
        "from repro import native\n"
        f"while not os.path.exists({str(go)!r}):\n"
        "    time.sleep(0.001)\n"
        "print(native.available(), native.kernel_info())\n"
    )
    procs = [subprocess.Popen([sys.executable, "-c", script], env=env,
                              stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    time.sleep(1.0)
    go.touch()
    outputs = [proc.communicate(timeout=300)[0] for proc in procs]
    assert all(out.startswith("True ") for out in outputs), outputs
    files = [p.name for p in cache.iterdir()]
    assert len(files) == 1 and files[0].startswith("kernels-") \
        and files[0].endswith(".so"), files


def _run(script, cache):
    env = {**os.environ, "REPRO_NATIVE_CACHE": str(cache),
           "PYTHONPATH": str(SRC)}
    env.pop("REPRO_NATIVE", None)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_path_compiles_nothing(tmp_path):
    # Kernels compile at first use; importing the package's entry
    # layers must not get that far, or every process start pays for it.
    cache = tmp_path / "cache"
    out = _run(
        "import repro.core, repro.dataset, repro.serve, repro.cli\n"
        "from repro import native\n"
        "print(native._state is None)\n",
        cache,
    )
    assert out.split() == ["True"]
    assert not cache.exists()


def test_first_fit_on_two_threads_compiles_one_kernel(tmp_path):
    if shutil.which("cc") is None and shutil.which("gcc") is None:
        pytest.skip("no C compiler")
    cache = tmp_path / "cache"
    # Both threads wait at the barrier, so their first grow_tree calls
    # (and kernel loads) start together.
    out = _run(
        "import threading\n"
        "import numpy as np\n"
        "from repro import native\n"
        "from repro.ml.boosting import GradientBoostedTrees\n"
        "from repro.ml.serialization import model_to_dict\n"
        "assert native._state is None\n"
        "rng = np.random.default_rng(0)\n"
        "X, Y = rng.normal(size=(200, 5)), rng.normal(size=(200, 2))\n"
        "barrier = threading.Barrier(2)\n"
        "fits = []\n"
        "def fit():\n"
        "    barrier.wait()\n"
        "    fits.append(model_to_dict(GradientBoostedTrees(\n"
        "        n_estimators=3, max_depth=3, random_state=0).fit(X, Y)))\n"
        "threads = [threading.Thread(target=fit) for _ in range(2)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join()\n"
        "assert len(fits) == 2 and fits[0] == fits[1]\n"
        "print(native.available(), native.kernel_info())\n",
        cache,
    )
    assert out.startswith("True "), out
    files = [p.name for p in cache.iterdir()]
    assert len(files) == 1 and files[0].startswith("kernels-") \
        and files[0].endswith(".so"), files
