"""The two ratios of ``benchmarks/test_fig_subscriptions.py``'s ``perf``
check, measured at its largest size, one line per run.

    python3 fig_ratio.py CHECKOUT [RUNS]

Each run calls that test's ``_measure(LARGEST)`` in a fresh process of
CHECKOUT's code (default 5 runs) and prints evaluate-per-op with seeding
off over subscriptions (the asserted ratio, ≥ 3), seeded evaluate-per-op
over subscriptions (recorded), and the decision counts.
"""
import pathlib
import subprocess
import sys

SNIPPET = """
import sys
sys.path.insert(0, 'benchmarks'); sys.path.insert(0, 'src')
import test_fig_subscriptions as fig
m = fig._measure(fig.LARGEST)
subs = max(m['subscriptions'], 1e-9)
print('n_c %d: unseeded/subs %.2f  seeded/subs %.2f  skips %d  full %d' % (
    fig.LARGEST, m['evaluate_per_op'] / subs,
    m['evaluate_per_op_seeded'] / subs, m['skips'], m['full_refreshes']))
"""

checkout = pathlib.Path(sys.argv[1]).resolve()
runs = int(sys.argv[2]) if len(sys.argv) > 2 else 5
for _ in range(runs):
    done = subprocess.run([sys.executable, "-c", SNIPPET], cwd=checkout,
                          capture_output=True, text=True, check=True)
    print(done.stdout.strip().splitlines()[-1], flush=True)
