"""Per-layer performance ledger: the repository's benchmark.

Run ``python3 perfledger/run.py --workload <name> --seed <n> --seconds
<s> --trace <0|1>`` from the repository root; see ``perfledger/README.md``.
"""
