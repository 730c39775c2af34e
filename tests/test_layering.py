"""The spine modules must not import higher layers (no import cycles).

Mirrors the CI guard (tools/check_layering.py) inside tier-1, so a
layering regression fails the ordinary test run too.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "check_layering.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("check_layering", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spine_modules_import_no_higher_layers():
    assert _load_tool().violations() == []


def test_tool_runs_clean_as_a_script():
    proc = subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "layering OK" in proc.stdout


def test_tool_detects_a_planted_violation(tmp_path, monkeypatch):
    tool = _load_tool()
    src = tmp_path / "src"
    (src / "repro").mkdir(parents=True)
    (src / "repro" / "errors.py").write_text(
        "from repro.sched import Scheduler\n"
    )
    (src / "repro" / "registry.py").write_text(
        "from repro.errors import UnknownNameError\n"
    )
    (src / "repro" / "config.py").write_text(
        "import repro.registry\nimport repro.ml\n"
    )
    monkeypatch.setattr(tool, "SRC", src)
    problems = tool.violations()
    assert len(problems) == 2
    assert any("repro.errors" in p and "repro.sched" in p for p in problems)
    assert any("repro.config" in p and "repro.ml" in p for p in problems)


def test_tool_detects_serve_featurizing_records_itself(tmp_path,
                                                       monkeypatch):
    # Screening and featurizing records is the degradation chain's
    # decision; a serve module importing the feature pipeline would
    # regrow a second tier policy beside it.
    tool = _load_tool()
    serve = tmp_path / "src" / "repro" / "serve"
    serve.mkdir(parents=True)
    (serve / "__init__.py").write_text("")
    (serve / "server.py").write_text(
        "from repro.dataset.features import featurize_record\n"
        "from repro.resilience.degrade import ResilientPredictor\n"
    )
    (serve / "protocol.py").write_text("import repro.dataset.features\n")
    monkeypatch.setattr(tool, "SRC", tmp_path / "src")
    problems = tool.violations()
    assert len(problems) == 2
    for module in ("server", "protocol"):
        assert any(p.startswith(f"repro.serve.{module} ")
                   and "imports repro.dataset.features" in p
                   for p in problems)


def test_tool_detects_an_engine_importing_the_frozen_oracle(
        tmp_path, monkeypatch):
    # The equivalence suite compares the engine with the frozen
    # reference under tests/; any package module reaching into tests/
    # (in any import spelling) would let it compare the engine with
    # itself, and would ship a dependency on the test suite.
    tool = _load_tool()
    sched = tmp_path / "src" / "repro" / "sched"
    sched.mkdir(parents=True)
    (sched / "__init__.py").write_text("")
    (sched / "simulator.py").write_text(
        "from tests.sched_reference import ReferenceScheduler\n"
    )
    (sched / "strategies.py").write_text("import tests.sched_reference\n")
    (sched / "metrics.py").write_text("from tests import sched_reference\n")
    (sched / "job.py").write_text("from repro.sched import simulator\n")
    # The flight ring is fed through telemetry.event only: a layer
    # importing the recorder module would regrow a second event
    # vocabulary beside the counter names.
    (sched / "policies.py").write_text(
        "from repro.telemetry import flightrec\n"
    )
    monkeypatch.setattr(tool, "SRC", tmp_path / "src")
    problems = tool.violations()
    assert len(problems) == 4
    for module in ("simulator", "strategies", "metrics"):
        assert any(p.startswith(f"repro.sched.{module} ")
                   and "tests" in p and "no repro module" in p
                   for p in problems)
    assert any(p.startswith("repro.sched.policies ")
               and "repro.telemetry.flightrec" in p
               and "only repro.telemetry may import" in p
               for p in problems)


def test_tool_detects_a_planted_scipy_import(tmp_path, monkeypatch):
    # numpy is the only runtime dependency: a SciPy import anywhere
    # under src, even a lazy one inside a function, is refused.
    tool = _load_tool()
    ml = tmp_path / "src" / "repro" / "ml"
    ml.mkdir(parents=True)
    (ml / "__init__.py").write_text("import numpy as np\n")
    (ml / "neighbors.py").write_text(
        "from scipy.spatial import cKDTree\n"
    )
    (ml / "linear.py").write_text(
        "def solve(a, b):\n"
        "    import scipy.linalg\n"
        "    return scipy.linalg.solve(a, b)\n"
    )
    (ml / "metrics.py").write_text("from scipy import stats\n")
    monkeypatch.setattr(tool, "SRC", tmp_path / "src")
    problems = tool.violations()
    assert len(problems) == 3
    for module, line in (("neighbors", 1), ("linear", 2), ("metrics", 1)):
        assert any(p.startswith(f"repro.ml.{module} (line {line}) ")
                   and "no repro module may import scipy" in p
                   for p in problems)


def test_cli_and_serve_import_nothing_but_numpy():
    # Every process start pays for the import path, so the CLI and the
    # service load no third-party package except numpy.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import repro.cli, repro.serve\n"
        "main = sys.modules['__main__']\n"
        "new = {name.partition('.')[0] for name, module in "
        "sys.modules.items() if name not in before and module is not main}\n"
        "print(' '.join(sorted(new - set(sys.stdlib_module_names))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["numpy", "repro"]
