"""Data interoperability: one query chaining every operator family.

The paper's point against onion systems: SDB operator outputs feed other
operators because everything stays in one share space.  This example runs
a single query whose expression chains multiply -> add -> compare ->
aggregate -> having -> order, then shows that the CryptDB capability model
rejects the very same query while the MONOMI planner must fall back to
client-side work.

Run:  python examples/interop_pipeline.py
"""

import repro.api as api
from repro.baselines.cryptdb import CryptDBCapabilityModel
from repro.baselines.monomi import MonomiPlanner
from repro.core.meta import ValueType
from repro.crypto.prf import seeded_rng
from repro.sql.parser import parse

COLUMNS = [
    ("region", ValueType.string(8)),
    ("price", ValueType.decimal(2)),
    ("qty", ValueType.int_()),
    ("rebate", ValueType.decimal(2)),
]
ROWS = [
    ("east", 19.99, 10, 0.10),
    ("east", 7.50, 5, 0.00),
    ("west", 19.99, 3, 0.05),
    ("west", 2.25, 12, 0.20),
    ("north", 7.50, 7, 0.15),
    ("north", 21.00, 1, 0.00),
]

# multiply (price*qty), multiply again by (1-rebate), compare the computed
# value, SUM the computed value, compare the SUM in HAVING, order by it:
# five operator families, each consuming the previous one's output.
QUERY = """
SELECT region, SUM(price * qty * (1 - rebate)) AS net
FROM sales
WHERE price * qty * (1 - rebate) > 10
GROUP BY region
HAVING SUM(price * qty * (1 - rebate)) > 50
ORDER BY net DESC
"""


def main() -> None:
    conn = api.connect(modulus_bits=512, value_bits=64, rng=seeded_rng(11))
    conn.proxy.create_table("sales", COLUMNS, ROWS,
                            sensitive=["price", "qty", "rebate"],
                            rng=seeded_rng(12))

    cur = conn.execute(QUERY)
    print("SDB result (operators chained entirely at the SP):")
    print(cur.fetch_table().pretty())
    print("\noperator chain visible in the rewritten query:")
    rewritten = cur.report.rewritten_sql
    for udf in ("sdb_mul(", "sdb_add(", "sdb_keyupdate(", "sdb_sign(",
                "sdb_agg_sum(", "sdb_signed("):
        print(f"  {udf:16s} x{rewritten.count(udf)}")

    tables = {"sales": COLUMNS}

    def sensitive(t, c):
        return c in ("price", "qty", "rebate")
    verdict = CryptDBCapabilityModel(tables, sensitive=sensitive).analyze(parse(QUERY))
    print(f"\nCryptDB native support for the same query: {verdict.supported}")
    for violation in verdict.violations[:4]:
        print("  blocked:", violation)

    plan = MonomiPlanner(tables, sensitive=sensitive, precomputations=[]).plan(
        parse(QUERY)
    )
    print(f"\nMONOMI (no precomputation) plan mode: {plan.mode}")
    print("  -> the interoperability gap the SDB paper is about")


if __name__ == "__main__":
    main()
