"""Self-test of the benchmark: its reference checks are not vacuous.

    python3 perfbench/selftest.py

Each workload runs one pass at the default seed with ``matrix_rank_in_degree``
wrapped to return rank - 1 on the first cell of the pass whose rank is at
least 1.  Every workload that computes ranks must then report failed ops;
``class_identities`` computes none, so it must stay correct and its traced
run must record ``polyalg.rank_cells`` = 0.  Exits 1 if any of this fails.
"""

import sys

from run import measure
from workloads import DEFAULT_SEED


def main() -> int:
    ok = True
    for workload in ("koszul_table", "excess_selfint", "corpus_sweep"):
        result = measure(workload, DEFAULT_SEED, 0, trace=False, inject_wrong_rank=True)
        frac = result["failed"] / result["attempted"]
        passed = frac > 0
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {workload}: wrong rank injected, "
              f"ops_failed_frac = {frac:.4f} (must be > 0)")
    result = measure("class_identities", DEFAULT_SEED, 0, trace=True, inject_wrong_rank=True)
    cells = result["metrics"]["polyalg.rank_cells"]["value"]
    passed = cells == 0 and result["failed"] == 0
    ok &= passed
    print(f"{'ok  ' if passed else 'FAIL'} class_identities: wrong rank injected, "
          f"polyalg.rank_cells = {cells}, failed = {result['failed']} (both must be 0)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
