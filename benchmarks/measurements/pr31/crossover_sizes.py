"""Fine-scan vs coarse re-evaluation at edge counts between the sizes
``benchmarks/test_coarse_fallback.py`` records, best of five each, with
that test's service (16 standing queries on ``synthetic:240``) and its
never-matching events.  Three passes, one line each, as
``edges: fine ms / coarse ms``.

    python3 crossover_sizes.py CHECKOUT
"""
import pathlib
import sys

checkout = pathlib.Path(sys.argv[1]).resolve()
sys.path.insert(0, str(checkout / "benchmarks"))
sys.path.insert(0, str(checkout / "src"))
import test_coarse_fallback as fallback  # noqa: E402

service = fallback._service()
for _ in range(3):
    row = []
    for edges in (32, 64, 96, 128, 160, 192, 256):
        fine = fallback._measure_regime(service, edges, coarse=False)
        coarse = fallback._measure_regime(service, edges, coarse=True)
        row.append("%d: %.2f/%.2f" % (edges, fine * 1e3, coarse * 1e3))
    print("  ".join(row), flush=True)
