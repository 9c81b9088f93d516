#!/bin/sh
# Does tests/test_layers.py's caller rule bite?
#   sh caller_rule_mutations.sh COPY
# COPY: a throwaway copy of the change's tree (it is edited in place).
# Each mutation re-adds a module under src/repro/relview/ that only a
# test imports, then runs the rule; every mutation must fail it.
set -u
COPY=$1
cd "$COPY" || exit 1
run() {
    printf '== %s\n' "$1"
    PYTHONPATH=src python -m pytest -q -p no:cacheprovider \
        "tests/test_layers.py::test_every_product_module_has_a_product_caller" \
        tests/test_orphan_mutation.py 2>&1 | grep -E "^E .*NO_PRODUCT_CALLER|passed|failed"
}
printf '"""A module only a test imports."""\n\n\ndef orphan():\n    return 1\n' \
    > src/repro/relview/orphan.py
printf 'from repro.relview.orphan import orphan\n\n\ndef test_orphan():\n    assert orphan() == 1\n' \
    > tests/test_orphan_mutation.py
run "relview/orphan.py, imported by a test only"
cp src/repro/relview/__init__.py relview_init.orig
printf 'from repro.relview.orphan import orphan  # noqa: F401\n' >> src/repro/relview/__init__.py
run "... and re-exported by relview/__init__ (an __init__ that only re-exports is not a caller)"
cp relview_init.orig src/repro/relview/__init__.py
printf 'from repro.relview import orphan\n' > examples/orphan_caller.py
run "... imported by an example (a product caller: the rule passes)"
rm -f relview_init.orig examples/orphan_caller.py src/repro/relview/orphan.py tests/test_orphan_mutation.py
