#!/bin/sh
# Two mutants of a throwaway copy of the change; tests/test_layers.py must
# fail on each.   sh mutation_checks.sh COPY   (COPY holds src/, tests/, docs/)
cd "$1" || exit 1
run() { PYTHONPATH=src python3 -m pytest -q -p no:cacheprovider tests/test_layers.py 2>&1 | grep "^E  *AssertionError\|passed\|failed"; }
cp src/repro/core/topo.py topo.orig
printf '\n\ndef _mutant():\n    from repro.service import facade\n    return facade\n' >> src/repro/core/topo.py
echo "== a function-local upward import (core.topo -> service.facade)"; run
mv topo.orig src/repro/core/topo.py
cp src/repro/changefeed/buffer.py buffer.orig
echo "from repro.changefeed.hub import ChangefeedHub  # noqa" >> src/repro/changefeed/buffer.py
echo "== a cycle inside one layer (changefeed.buffer <-> changefeed.hub)"; run
mv buffer.orig src/repro/changefeed/buffer.py
