#!/bin/sh
# Do the new tests fail at the parent commit?
#   sh new_tests_at_parent.sh PARENT CHANGE
# PARENT: a throwaway copy of the parent commit's files (its tests/ is
# overwritten); CHANGE: the change's tree.  Copies the test modules the
# change added or extended into PARENT and runs only the new cases.
set -u
PARENT=$1 CHANGE=$2
for f in test_paper_cli.py test_workloads.py test_workload_gen.py test_apply_cli.py test_layers.py; do
    cp "$CHANGE/tests/$f" "$PARENT/tests/$f"
done
cd "$PARENT" || exit 1
PYTHONPATH=src python -m pytest -q -p no:cacheprovider -rfE \
    tests/test_paper_cli.py \
    "tests/test_workload_gen.py::TestCLI::test_unbuildable_workload_exits_2_before_writing" \
    "tests/test_apply_cli.py::TestMain::test_unbuildable_workload_exits_2" \
    "tests/test_workloads.py::TestNamedWorkload::test_unbuildable_size_rejected" \
    "tests/test_workloads.py::TestNamedWorkload::test_builders_reject_unbuildable_sizes" \
    "tests/test_workloads.py::TestNamedWorkload::test_one_synthetic_name_parser" \
    "tests/test_layers.py::test_every_product_module_has_a_product_caller" \
    2>&1 | grep -E "^(FAILED|ERROR|PASSED)|passed|failed"
