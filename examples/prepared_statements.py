"""Prepared statements: connect -> prepare -> bind -> fetch.

The proxy's cost breakdown (demo step 2) blames the client share of a
query on parse + rewrite + decrypt.  A prepared statement amortizes the
first two: the SQL is parsed once, the rewritten query and decryption
plan are cached per parameter type signature, and every further execution
only *binds* -- a few modular multiplications turning parameter values
into the masked ring literals the rewritten query expects.

This walkthrough runs the same parameterized Q6-style revenue query both
ways and prints the per-execution cost breakdown before and after the
plan cache warms up.

Run:  python examples/prepared_statements.py
"""

import repro.api as api
from repro.core.meta import ValueType
from repro.crypto.prf import seeded_rng


def load(proxy) -> None:
    rows = [
        (
            i,
            float((i * 37) % 90 + 10) + 0.99,      # extendedprice
            ((i * 7) % 9) / 100.0,                 # discount: 0.00 .. 0.08
            (i * 13) % 49 + 1,                     # quantity
        )
        for i in range(1, 121)
    ]
    proxy.create_table(
        "lineitem",
        [
            ("l_orderkey", ValueType.int_()),
            ("l_extendedprice", ValueType.decimal(2)),
            ("l_discount", ValueType.decimal(2)),
            ("l_quantity", ValueType.int_()),
        ],
        rows,
        sensitive=["l_extendedprice", "l_discount", "l_quantity"],
        rng=seeded_rng(42),
    )


Q6 = (
    "SELECT SUM(l_extendedprice * l_discount) AS revenue "
    "FROM lineitem "
    "WHERE l_discount BETWEEN ? AND ? AND l_quantity < ?"
)


def fmt(cost) -> str:
    return (
        f"parse {cost.parse_s * 1000:7.2f} ms | "
        f"rewrite {cost.rewrite_s * 1000:7.2f} ms | "
        f"server {cost.server_s * 1000:7.2f} ms | "
        f"decrypt {cost.decrypt_s * 1000:7.2f} ms"
    )


def main() -> None:
    conn = api.connect(modulus_bits=512, value_bits=64, rng=seeded_rng(41))
    load(conn.proxy)
    cur = conn.cursor()

    # -- prepare once -------------------------------------------------------
    q6 = conn.prepare(Q6)
    print(f"prepared: {q6.kind} with {q6.num_params} parameters\n")

    # -- bind many ----------------------------------------------------------
    workload = [
        (0.02, 0.04, 24),
        (0.03, 0.05, 25),
        (0.01, 0.03, 30),
        (0.05, 0.07, 24),
        (0.02, 0.04, 24),
    ]
    print("execution                          cost breakdown")
    for i, params in enumerate(workload):
        cur.execute(q6, params)
        revenue = cur.fetchone()[0]
        label = "first (parse+rewrite charged)" if i == 0 else "re-bind only"
        print(f"{str(params):20s} {label:>14s}  {fmt(cur.report.cost)}")
        assert revenue is not None

    print(f"\nplan variants held by the statement: {q6.plan_variants} "
          "(one per parameter type signature)")

    # -- the string path for contrast ---------------------------------------
    # formatting values into SQL text gives a different string every time:
    # the session cache cannot help, so every call re-parses and re-rewrites
    print("\nsame workload as ad-hoc SQL strings (no amortization):")
    for low, high, qty in workload[:2]:
        sql = (
            "SELECT SUM(l_extendedprice * l_discount) AS revenue "
            f"FROM lineitem WHERE l_discount BETWEEN {low} AND {high} "
            f"AND l_quantity < {qty}"
        )
        result = conn.proxy.query(sql)
        print(f"({low}, {high}, {qty}){'':14s}  {fmt(result.cost)}")

    info = conn.cache_info()
    print(f"\nsession statement cache: {info.hits} hits, {info.misses} misses")


if __name__ == "__main__":
    main()
