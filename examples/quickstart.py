"""Quickstart: encrypt a table, query it, inspect what the server saw.

Walks the paper's Section 2.2 example: the application asks for
``SELECT A * B`` and the proxy rewrites it to ``sdb_mul(Ae, Be, n)`` with
the row id added for decryption.

Run:  python examples/quickstart.py
"""

import repro.api as api
from repro.core.meta import ValueType
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng


def main() -> None:
    # the service provider: an unmodified engine + the SDB UDFs
    server = SDBServer()
    # the data owner's session: proxy (key store, rewriter, decryptor)
    # wrapped in a DB-API connection
    conn = api.connect(server=server, modulus_bits=512, value_bits=64,
                       rng=seeded_rng(1))
    proxy = conn.proxy

    # -- demo step 1: choose sensitive columns and upload -------------------
    columns = [
        ("item", ValueType.string(16)),
        ("a", ValueType.int_()),          # paper's column A (sensitive)
        ("b", ValueType.decimal(2)),      # paper's column B (sensitive)
    ]
    rows = [
        ("widget", 2, 19.99),
        ("gadget", 4, 7.50),
        ("sprocket", 3, 2.25),
    ]
    proxy.create_table("t", columns, rows, sensitive=["a", "b"], rng=seeded_rng(2))
    print(f"key store size: {proxy.key_store_bytes()} bytes (O(#columns))")

    # what the SP actually stores: shares, not values
    stored = server.catalog.get("t")
    print("\nSP-stored row 0 (shares are big ring elements):")
    for name, value in zip(stored.schema.names, stored.row(0)):
        print(f"  {name:10s} = {str(value)[:60]}")

    # -- demo step 2: query through a cursor --------------------------------
    cur = conn.cursor()
    cur.execute("SELECT item, a * b AS c FROM t WHERE a * b > ?", [20])
    print("\nrewritten query sent to the SP:")
    print(" ", cur.report.rewritten_sql[:200], "...")
    print("\ndecrypted result (streamed through the cursor):")
    print(cur.fetch_table().pretty())
    cost = cur.report.cost
    print("\ncost breakdown:",
          f"client {cost.client_s * 1000:.2f} ms,",
          f"server {cost.server_s * 1000:.2f} ms")
    print("declared leakage:", list(cur.report.leakage))

    # re-executing with a different bound value reuses the cached plan:
    # no re-parse, no re-rewrite -- just new deferred ring literals
    cur.execute("SELECT item, a * b AS c FROM t WHERE a * b > ?", [6])
    print("\nsame statement, new parameter (cache hit, "
          f"rewrite {cur.report.cost.rewrite_s * 1000:.3f} ms):")
    print(cur.fetch_table().pretty())


if __name__ == "__main__":
    main()
