"""Store calls in the plan of a sharing insert, against one checkout.

    python3 work_bound.py CHECKOUT

Builds the synthetic chain views of
``tests/test_sharing_insert.py::test_sharing_insert_plan_is_independent_of_subtree_and_depth``
(this repository's test, run against CHECKOUT's ``src/``) and prints the
``children_of`` / ``parents_of`` calls ``plan()`` makes for
``//cnode[key=100]/sub`` <- the existing cnode 200, at the base shape,
with a 4x larger ``ST`` (nodes) and under a 4x longer chain of cnode
ancestors.  The test
asserts the three counts are equal.
"""
import pathlib
import sys

checkout = pathlib.Path(sys.argv[1]).resolve()
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[3] / "tests"))
sys.path.insert(0, str(checkout / "src"))

import test_sharing_insert as shapes  # noqa: E402

print(f"checkout {checkout.name}")
for label, ancestors, st_cnodes in (
    ("base (2 cnode ancestors, |ST| 12)", 2, 3),
    ("4x |ST| (2 cnode ancestors, |ST| 48)", 2, 12),
    ("4x depth (8 cnode ancestors, |ST| 12)", 8, 3),
):
    calls = shapes._plan_store_calls(ancestors, st_cnodes)
    print(f"   {label:40s} {calls:>5d} calls")
