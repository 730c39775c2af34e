#!/usr/bin/env python
"""Import-cycle guard for the experiment spine.

The spine modules must stay at the bottom of the layer graph so that
every other layer can depend on them without cycles:

* ``repro.errors``    may import nothing from ``repro``;
* ``repro.ioutils``   may import nothing from ``repro`` (crash-safe
  write primitives used by every artifact writer);
* ``repro.native``    may import nothing from ``repro`` (optional C
  kernels with numpy fallback; imported from the ml hot loops, so it
  must sit below everything);
* ``repro.perf``      may import nothing from ``repro`` (the
  deterministic self-profiler profiles arbitrary callables, so keeping
  it import-free means any layer can be profiled without cycles), and
  — enforced by the reverse check below — may itself be imported only
  by the CLI (benchmarks/tests live outside ``src`` and are free);
* ``repro.registry``  may import only ``repro.errors``;
* ``repro.config``    may import only ``repro.errors`` /
  ``repro.registry`` / ``repro.ioutils``;
* ``repro.telemetry`` (and its submodules) may import only
  ``repro.errors`` and each other — it is instrumented *into* every
  layer, so it must depend on none of them;
* ``repro.telemetry.flightrec`` may be imported only from inside
  ``repro.telemetry`` (reverse check below): instrumented layers feed
  the flight ring through ``telemetry.event``, so a boundary names each
  event once, under its counter name, never in a second vocabulary;
* ``repro.sweep``     (and its submodules) may import only the spine
  plus ``repro.artifacts``, ``repro.parallel``, and the retry policy —
  cells are executed through the CLI replay path, so the sweep layer
  must never import ``repro.ml``/``repro.sched``/``repro.dataset``
  directly.  Sole exception: ``repro.sweep.runner`` may import
  ``repro.cli`` *inside the worker process* (the worker is an
  execution sandbox; the import is lazy, so no cycle exists at import
  time);
* ``repro.serve``     (and its submodules) may import the library
  layers it composes (artifacts, resilience, sched, profiler, ...) but
  never ``repro.cli`` or ``repro.sweep`` — the service is a library the
  CLI wraps, not the other way round — and never
  ``repro.dataset.features``: records reach features only through the
  degradation chain, which decides every answer's tier.
* ``tests`` — the test suite and its oracles (e.g. the frozen
  scheduler the equivalence suite compares the engine against) — may
  be imported by no module under ``src`` (reverse check below): an
  oracle helper shared with the engine would let the suite compare the
  engine with itself, and the shipped package must not need its tests.

This script walks each module's AST (no imports are executed, so it is
safe to run on a broken tree) and fails with one line per violation.
Run from the repo root::

    python tools/check_layering.py

Wired into CI (the lint job) and into tier-1 via tests/test_layering.py.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Telemetry-internal modules: each may import errors + its siblings.
_TELEMETRY_DEPS = {
    "repro.errors",
    "repro.telemetry",
    "repro.telemetry.metrics",
    "repro.telemetry.spans",
    "repro.telemetry.export",
    "repro.telemetry.report",
    "repro.telemetry.slo",
    "repro.telemetry.flightrec",
}

#: Sweep-layer modules: spine + artifact store + parallel/retry + each
#: other.  Conspicuously absent: repro.ml / repro.sched / repro.dataset
#: — sweep cells execute through the CLI replay path, never by direct
#: library import.
_SWEEP_DEPS = {
    "repro.errors",
    "repro.ioutils",
    "repro.registry",
    "repro.config",
    "repro.artifacts",
    "repro.telemetry",
    "repro.parallel",
    "repro.parallel.executor",
    "repro.parallel.seeding",
    "repro.resilience.retry",
    "repro.sweep",
    "repro.sweep.spec",
    "repro.sweep.journal",
    "repro.sweep.planner",
    "repro.sweep.chaos",
    "repro.sweep.runner",
    "repro.sweep.report",
}

#: Serve-layer modules: the online service sits above the libraries
#: (model, resilience, sched, profiler) and *below* the CLI — it may
#: import any of them, but never ``repro.cli`` (which imports serve:
#: allowing the reverse edge would be a cycle), never ``repro.sweep``
#: (batch orchestration has no business inside a request handler), and
#: never ``repro.dataset.features``: screening and featurizing a record
#: is the degradation chain's decision (``repro.resilience.degrade``),
#: so the service cannot grow a second tier policy beside it.
_SERVE_DEPS = {
    "repro",  # `from repro import telemetry` (the instrumented-layer idiom)
    "repro.errors",
    "repro.ioutils",
    "repro.registry",
    "repro.config",
    "repro.artifacts",
    "repro.telemetry",
    "repro.frame",
    "repro.apps",
    "repro.arch",
    "repro.perfsim.config",
    "repro.profiler",
    "repro.hatchet_lite",
    "repro.dataset.schema",
    "repro.arch.descriptor",
    "repro.arch.machines",
    "repro.core.predictor",
    "repro.core.zeroshot",
    "repro.ml",
    "repro.resilience.degrade",
    "repro.sched.job",
    "repro.sched.machines",
    "repro.sched.strategies",
    "repro.workloads",
    "repro.serve",
    "repro.serve.protocol",
    "repro.serve.coalescer",
    "repro.serve.model_manager",
    "repro.serve.admission",
    "repro.serve.server",
    "repro.serve.loadgen",
}

#: module -> repro modules it may import (itself is always allowed).
ALLOWED = {
    "repro.errors": set(),
    "repro.ioutils": set(),
    "repro.native": set(),
    "repro.perf": set(),
    "repro.registry": {"repro.errors"},
    "repro.config": {"repro.errors", "repro.registry", "repro.ioutils"},
    "repro.telemetry": _TELEMETRY_DEPS,
    "repro.telemetry.metrics": _TELEMETRY_DEPS,
    "repro.telemetry.spans": _TELEMETRY_DEPS,
    "repro.telemetry.export": _TELEMETRY_DEPS,
    "repro.telemetry.report": _TELEMETRY_DEPS,
    "repro.telemetry.slo": _TELEMETRY_DEPS,
    "repro.telemetry.flightrec": _TELEMETRY_DEPS,
    # Descriptor plumbing: the canonical machine descriptor sits just
    # above hardware/config, and the machine registry may reach *down*
    # into config only to install the digest resolver (dependency
    # inversion — config itself still imports nothing from arch).
    "repro.arch.descriptor": {
        "repro.arch.hardware", "repro.config", "repro.errors",
    },
    "repro.arch.machines": {
        "repro.arch.hardware", "repro.arch.descriptor", "repro.config",
        "repro.registry",
    },
    # The schema-v2 long-format builder and the zero-shot head compose
    # dataset + arch layers; neither may touch sched/serve/cli.
    "repro.dataset.longform": {
        "repro.arch.descriptor", "repro.arch.machines",
        "repro.dataset.features", "repro.dataset.generate",
        "repro.dataset.schema", "repro.errors", "repro.frame",
    },
    "repro.core.zeroshot": {
        "repro.arch.descriptor", "repro.arch.machines",
        "repro.dataset.features", "repro.dataset.longform",
        "repro.dataset.schema", "repro.frame", "repro.ml",
    },
    "repro.sweep": _SWEEP_DEPS,
    "repro.sweep.spec": _SWEEP_DEPS,
    "repro.sweep.journal": _SWEEP_DEPS,
    "repro.sweep.planner": _SWEEP_DEPS,
    "repro.sweep.chaos": _SWEEP_DEPS,
    # The runner's worker function re-enters the CLI replay path; the
    # import is function-local (lazy), so no import-time cycle exists.
    "repro.sweep.runner": _SWEEP_DEPS | {"repro.cli"},
    "repro.sweep.report": _SWEEP_DEPS,
    "repro.serve": _SERVE_DEPS,
    "repro.serve.protocol": _SERVE_DEPS,
    "repro.serve.coalescer": _SERVE_DEPS,
    "repro.serve.model_manager": _SERVE_DEPS,
    "repro.serve.admission": _SERVE_DEPS,
    "repro.serve.server": _SERVE_DEPS,
    "repro.serve.loadgen": _SERVE_DEPS,
}


def _module_path(module: str) -> Path:
    parts = module.split(".")
    candidate = SRC.joinpath(*parts).with_suffix(".py")
    if candidate.is_file():
        return candidate
    return SRC.joinpath(*parts) / "__init__.py"


def _under(name: str, packages) -> bool:
    """Whether module *name* is one of *packages* or inside one."""
    return any(name == pkg or name.startswith(pkg + ".") for pkg in packages)


def repro_imports(module: str, submodules: bool = False,
                  roots: tuple[str, ...] = ("repro",)
                  ) -> list[tuple[int, str]]:
    """Every ``repro.*`` module imported by *module*: (lineno, name).

    *roots* names the top-level packages whose imports are reported
    (by default only ``repro``).

    Relative imports are resolved against *module*'s package.  With
    *submodules*, ``from pkg import name`` also reports ``pkg.name``,
    which is the module imported when *name* is a submodule.

    A module absent from SRC contributes nothing (so the guard can run
    against partial trees, e.g. the planted-violation test fixture).
    """
    path = _module_path(module)
    if not path.is_file():
        return []
    tree = ast.parse(path.read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _under(alias.name, roots):
                    found.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level:
                package = module.split(".")
                if path.name != "__init__.py":
                    package.pop()
                del package[len(package) - node.level + 1:]
                name = ".".join(package + ([name] if name else []))
            if _under(name, roots):
                found.append((node.lineno, name))
                if submodules:
                    found.extend((node.lineno, f"{name}.{alias.name}")
                                 for alias in node.names)
    return found


#: package -> the only repro packages allowed to import it or anything
#: inside it.  The forward check above constrains a module's *outgoing*
#: edges; this constrains *incoming* ones, for tools that must never
#: leak into the library layers (the self-profiler is operational
#: tooling the CLI exposes, not a dependency science code may grow) and
#: for the test suite and its oracles, which nothing in the package may
#: import, and for the flight ring's module, which the layers reach only
#: through ``telemetry.event``/``telemetry.flight``.  An importer
#: matches if it equals an entry or lives under an entry's package.
RESTRICTED_IMPORTERS = {
    "repro.perf": {"repro.cli"},
    "repro.telemetry.flightrec": {"repro.telemetry"},
    "tests": set(),
}


def _all_modules() -> list[str]:
    """Every repro module under SRC, as dotted names."""
    modules = []
    for path in (SRC / "repro").rglob("*.py"):
        rel = path.relative_to(SRC).with_suffix("")
        parts = list(rel.parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules.append(".".join(parts))
    return modules


def violations() -> list[str]:
    problems = []
    for module, allowed in ALLOWED.items():
        for lineno, imported in repro_imports(module):
            if imported == module or imported in allowed:
                continue
            problems.append(
                f"{module} (line {lineno}) imports {imported}; allowed: "
                f"{', '.join(sorted(allowed)) or 'nothing from repro'}"
            )
    roots = ("repro", *RESTRICTED_IMPORTERS)
    for module in _all_modules():
        flagged = set()
        for lineno, imported in repro_imports(module, submodules=True,
                                              roots=roots):
            pkg = next((pkg for pkg in RESTRICTED_IMPORTERS
                        if _under(imported, (pkg,))), None)
            if pkg is None or (lineno, pkg) in flagged:
                continue
            allowed_importers = RESTRICTED_IMPORTERS[pkg]
            if _under(module, (pkg, *allowed_importers)):
                continue
            flagged.add((lineno, pkg))
            who = (f"only {', '.join(sorted(allowed_importers))}"
                   if allowed_importers else "no repro module")
            problems.append(
                f"{module} (line {lineno}) imports {imported}, which "
                f"{who} may import"
            )
    return problems


def main() -> int:
    problems = violations()
    for problem in problems:
        print(f"layering violation: {problem}", file=sys.stderr)
    if not problems:
        print(f"layering OK: {', '.join(ALLOWED)} stay at the bottom")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
