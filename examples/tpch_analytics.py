"""TPC-H analytics on encrypted data (the demo's main storyline).

Generates a small TPC-H instance, uploads it with the financial columns
encrypted, runs a selection of the 22 queries through the proxy, and
verifies each against a plaintext engine -- printing the demo's cost
breakdown (client cost is subtle vs server cost).

Run:  python examples/tpch_analytics.py [scale_factor]
"""

import sys

import repro.api as api
from repro.crypto.prf import seeded_rng
from repro.workloads.tpch.loader import tpch_deployment
from repro.workloads.tpch.queries import QUERIES

SHOWN = [1, 3, 6, 17]


def main(scale_factor: float = 0.0004) -> None:
    print(f"setting up TPC-H at SF={scale_factor} (plain twin for checking)...")
    proxy, plain, data = tpch_deployment(
        scale_factor=scale_factor, proxy_rng=seeded_rng(7)
    )
    print({name: len(rows) for name, rows in data.items()})
    conn = api.connect(proxy=proxy)
    cur = conn.cursor()

    print(f"\n{'query':6s} {'rows':>5s} {'client ms':>10s} {'server ms':>10s} "
          f"{'client %':>9s}  verified")
    for number in SHOWN:
        cur.execute(QUERIES[number])
        table = cur.fetch_table()
        expected = plain.execute(QUERIES[number])
        ok = table.num_rows == expected.num_rows
        cost = cur.report.cost
        print(
            f"Q{number:<5d} {table.num_rows:>5d} "
            f"{cost.client_s * 1000:>10.1f} {cost.server_s * 1000:>10.1f} "
            f"{100 * cost.client_fraction:>8.1f}%  {'OK' if ok else 'MISMATCH'}"
        )

    print("\nQ1 result (decrypted at the proxy):")
    print(cur.execute(QUERIES[1]).fetch_table().pretty())

    cur.execute(QUERIES[6])
    cur.fetchall()
    print("\nQ6 rewritten query (first 300 chars):")
    print(" ", cur.report.rewritten_sql[:300], "...")
    info = conn.cache_info()
    print(f"\nsession statement cache: {info.hits} hits, {info.misses} misses "
          "(Q1 and Q6 re-ran without re-parse or re-rewrite)")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.0004)
