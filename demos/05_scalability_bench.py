"""How the runtime grows with data size and deployment shape.

The benchmark protocol: grow the row count in fixed steps (duplicating
rows when the table runs out, so the largest step is reachable), run a
fixed iteration budget per cell so timing measures throughput rather
than convergence luck, and repeat per deployment.  This demo runs that
protocol through ``mrfcm bench`` on a scaled-down schedule; the real
protocols differ only in their flags:

    mrfcm bench --input forest.csv --bench-sizes 100000,...,600000
    mrfcm bench --input wave.csv   --bench-sizes 200000,...,2000000

Writes the table to bench_demo/table.csv and the timings to
bench_demo/bench.csv, in gnuplot-friendly columns
instances,mappers,reducers,seconds.
"""
import os

from mrfcm import cli, datasets

TOTAL_ROWS = 58_000           # stands in for 581,012
SIZES = [10_000, 20_000, 30_000, 40_000, 50_000, 60_000]  # last one needs duplication
DEPLOYMENTS = ["50x25", "100x50", "150x75"]
OUT_DIR = "bench_demo"

os.makedirs(OUT_DIR, exist_ok=True)
table = datasets.write_csv(os.path.join(OUT_DIR, "table.csv"),
                           datasets.clustered_categorical_rows(TOTAL_ROWS, 10, seed=17),
                           header=[f"a{j}" for j in range(10)])
print(f"table: {TOTAL_ROWS} rows x 10 columns in {table}")
print(f"size schedule: {SIZES} (the last exceeds n, so rows get duplicated)\n")

code = cli.main(["bench", "--input", table, "--c", "3", "--seed", "5", "--fixed-iters", "10",
                 "--bench-sizes", ",".join(map(str, SIZES)),
                 "--bench-deployments", ",".join(DEPLOYMENTS), "--out-dir", OUT_DIR])
if code != 0:
    raise SystemExit(code)

with open(os.path.join(OUT_DIR, "bench.csv"), encoding="utf-8") as fh:
    rows = [line.strip().split(",") for line in fh.readlines()[1:]]
seconds = {(int(size), f"{mappers}x{reducers}"): float(t) for size, mappers, reducers, t in rows}

print(f"\n{'size':>8} | " + " | ".join(DEPLOYMENTS))
for size in SIZES:
    print(f"{size:>8} | " + " | ".join(f"{seconds[size, d]:5.2f}" for d in DEPLOYMENTS))

widest = DEPLOYMENTS[-1]
ratio = seconds[SIZES[-1], widest] / seconds[SIZES[2], widest]
print(f"\nt(60k)/t(30k) at the widest deployment: {ratio:.2f} "
      f"(near-linear growth; cores available: {os.cpu_count()})")
print(f"wrote {os.path.join(OUT_DIR, 'bench.csv')}")
