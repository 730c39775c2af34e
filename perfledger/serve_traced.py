"""``repro serve`` with the serve-side layer wrappers installed.

``serve_traced.py LEDGER_OUT serve --registry ...`` installs the
wrappers, runs the unmodified ``repro`` CLI, and writes the ledger to
LEDGER_OUT (JSON) when the server has shut down.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfledger import layers  # noqa: E402
from perfledger.ledger import Ledger  # noqa: E402


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    ledger = Ledger()
    layers.install_serve(ledger)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        out.write_text(json.dumps(ledger.to_dict()))


if __name__ == "__main__":
    sys.exit(main())
