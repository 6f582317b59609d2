"""Two-machine deployment: the proxy talks to the SP over TCP.

The demo runs the SDB proxy on machine MDO and Spark SQL on machine MSP.
This example reproduces that split with the networked SP daemon: a
localhost TCP server plays MSP, and ``SDBProxy`` is pointed at it through
``RemoteServer`` -- the proxy code is identical to the in-process case.

Run:  python examples/remote_deployment.py
"""

import datetime

import repro.api as api
from repro.core.meta import ValueType
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng
from repro.net import RemoteServer, start_server


def main() -> None:
    # -- machine MSP: the service provider daemon ---------------------------
    sdb_server = SDBServer()
    net_server, _ = start_server(sdb_server=sdb_server)  # port 0 = pick free
    print(f"[MSP] sdb-server listening on 127.0.0.1:{net_server.port}")

    # -- machine MDO: the data owner's session ------------------------------
    remote = RemoteServer.connect("127.0.0.1", net_server.port)
    conn = api.connect(server=remote, modulus_bits=512, value_bits=64,
                       rng=seeded_rng(7))
    proxy = conn.proxy
    print(f"[MDO] connected; ping -> {remote.ping()}")

    proxy.create_table(
        "payroll",
        [
            ("emp_id", ValueType.int_()),
            ("team", ValueType.string(10)),
            ("salary", ValueType.decimal(2)),
            ("hired", ValueType.date()),
        ],
        [
            (1, "database", 3200.00, datetime.date(2018, 4, 2)),
            (2, "database", 2800.50, datetime.date(2020, 7, 15)),
            (3, "systems", 3550.25, datetime.date(2017, 1, 20)),
            (4, "systems", 2100.00, datetime.date(2022, 9, 1)),
            (5, "crypto", 4100.75, datetime.date(2016, 3, 8)),
        ],
        sensitive=["salary"],
        rng=seeded_rng(8),
    )
    print(f"[MDO] uploaded payroll; wire bytes sent so far: {remote.bytes_sent}")

    # everything the wire carried for the salary column was ciphertext
    stored = sdb_server.catalog.get("payroll")
    print("\n[MSP] stored salary cells (shares):")
    for share in stored.column("salary")[:3]:
        print(f"   {str(share)[:64]}...")

    cur = conn.cursor()
    cur.execute(
        "SELECT team, COUNT(*) AS heads, SUM(salary) AS payroll "
        "FROM payroll GROUP BY team ORDER BY payroll DESC"
    )
    print("\n[MDO] decrypted result:")
    print(cur.fetch_table().pretty())
    cost = cur.report.cost
    print(f"\n[MDO] client {cost.client_s * 1000:.1f} ms, "
          f"server {cost.server_s * 1000:.1f} ms, "
          f"wire total {remote.bytes_sent} bytes sent")

    # -- prepared statements amortize the wire itself -----------------------
    # PREPARE ships the rewritten SQL once; each EXECUTE then carries only
    # the parameter bindings (a handful of masked ring values).
    threshold = conn.prepare(
        "SELECT COUNT(*) AS senior FROM payroll WHERE salary > ?"
    )
    cur.execute(threshold, [3000.0])          # PREPARE + EXECUTE
    first_cost = remote.bytes_sent
    cur.fetchone()
    for bound in (2500.0, 3500.0, 4000.0):    # EXECUTE only
        cur.execute(threshold, [bound])
        print(f"[MDO] salaries above {bound:7.2f}: {cur.fetchone()[0]}")
    per_execute = (remote.bytes_sent - first_cost) // 3
    print(f"[MDO] bytes per re-execution: ~{per_execute} "
          "(the rewritten query never travels again)")

    # DML works over the wire too: the raise happens entirely at the SP.
    # (A flat raise stays at the column's decimal scale; `* 1.10` would
    # raise the share's scale to 4, and ring arithmetic cannot round back.)
    cur.execute(
        "UPDATE payroll SET salary = salary + ? WHERE team = ?",
        [300.00, "database"],
    )
    print(f"\n[MDO] flat raise for team database: {cur.rowcount} rows, "
          f"re-keyed at the SP")
    cur.execute("SELECT SUM(salary) AS total FROM payroll")
    print(f"[MDO] new total payroll: {cur.fetchone()[0]:.2f}")

    remote.close()
    net_server.shutdown()
    net_server.server_close()
    print("\n[MSP] daemon stopped")


if __name__ == "__main__":
    main()
