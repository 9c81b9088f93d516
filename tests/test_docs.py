"""The documentation is part of the contract: links resolve, examples run.

Two checks over ``README.md`` and every ``docs/*.md``:

- **link check** — every relative markdown link points at a file that
  exists in the repository (external ``http(s)``/``mailto`` links are
  skipped: CI must not depend on the network);
- **doctests** — every ``>>>`` example embedded in the markdown runs
  and produces exactly its documented output (``docs/event-schema.md``
  is the *normative* event spec, so its examples double as conformance
  tests for the frozen wire format).

CI additionally runs ``python -m doctest`` on the same files directly,
so the examples stay runnable outside pytest too.
"""

from __future__ import annotations

import doctest
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
DOC_FILES = sorted(
    [REPO / "README.md", *(REPO / "docs").glob("*.md")],
    key=lambda p: p.name,
)

#: ``[text](target)`` — good enough for the markdown we write; images
#: (``![...]``) match too, which is what we want.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Fenced code blocks, to exclude their contents from link checking
#: (code samples legitimately contain ``[index](expr)``-shaped text).
FENCE = re.compile(r"```.*?```", re.DOTALL)


def doc_files():
    assert DOC_FILES, "no documentation files found"
    return DOC_FILES


@pytest.mark.parametrize("path", doc_files(), ids=lambda p: p.name)
def test_relative_links_resolve(path):
    text = FENCE.sub("", path.read_text(encoding="utf-8"))
    missing = []
    for target in LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        target = target.split("#", 1)[0]  # drop same/other-file anchors
        if not target:
            continue  # pure in-page anchor
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            missing.append(target)
    assert not missing, (
        f"{path.relative_to(REPO)} links to missing file(s): {missing}"
    )


@pytest.mark.parametrize("path", doc_files(), ids=lambda p: p.name)
def test_embedded_examples_run(path):
    results = doctest.testfile(
        str(path),
        module_relative=False,
        optionflags=doctest.ELLIPSIS,
        verbose=False,
    )
    assert results.failed == 0, (
        f"{results.failed} doctest example(s) failed in "
        f"{path.relative_to(REPO)}"
    )


def test_event_schema_examples_exist():
    """The normative spec must actually exercise the wire format —
    an edit that drops its examples silently would unfreeze the schema."""
    spec = (REPO / "docs" / "event-schema.md").read_text(encoding="utf-8")
    parser = doctest.DocTestParser()
    examples = parser.get_examples(spec)
    assert len(examples) >= 6
    sources = "".join(example.source for example in examples)
    for needle in ("to_dict", "to_json", "from_json", "from_dict",
                   "SCHEMA_VERSION", "delta()"):
        assert needle in sources, f"spec lost its {needle} example"


#: A metric-catalog row: ``| `repro_name` | type | ...``.
CATALOG_ROW = re.compile(r"^\| `(repro_\w+)` \| (\w+) \|", re.MULTILINE)


def test_metric_catalog_matches_the_registry(tmp_path):
    """The catalog in ``docs/observability.md`` lists exactly the
    families (name, type) a WAL-backed service exposes — a metric added,
    renamed or retyped without its row fails here."""
    from repro import ViewConfig, open_view
    from repro.workloads.registrar import build_registrar

    doc = (REPO / "docs" / "observability.md").read_text(encoding="utf-8")
    documented = set(CATALOG_ROW.findall(doc))
    service = open_view(
        *build_registrar(), config=ViewConfig(wal_dir=str(tmp_path / "wal"))
    )
    try:
        service.metrics()  # gauges register at the first scrape
        live = {
            (family.name, family.type)
            for family in service.metrics_registry.families()
        }
    finally:
        service.close()
    assert documented == live
