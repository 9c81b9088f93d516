"""Datasets, ATGs and update workloads.

- :mod:`repro.workloads.registrar` — the paper's running example
  (Example 1: registrar database, ATG σ0, Fig. 1 view);
- :mod:`repro.workloads.synthetic` — the evaluation dataset of Section 5
  (relations ``C``, ``F``, ``H``, ``CU`` with a recursive C hierarchy);
- :mod:`repro.workloads.bom` — a bill-of-materials domain exercising the
  public API on a second recursive schema;
- :mod:`repro.workloads.queries` — the W1/W2/W3 update workload
  generators of Section 5, emitting the typed ops of :mod:`repro.ops`.

:func:`named_workload` resolves a workload name from the command line
(``python -m repro.apply --workload NAME``) to an ``(atg, db)`` pair;
:func:`synthetic_config` is its one parser of ``synthetic[:n_c[:seed]]``,
which the workload generator shares.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.workloads.bom import build_bom
from repro.workloads.chains import build_chain
from repro.workloads.queries import (
    REGISTRAR_QUERIES,
    make_query_set,
    make_workload,
    registrar_op_stream,
)
from repro.workloads.registrar import build_registrar, registrar_atg
from repro.workloads.synthetic import SyntheticConfig, build_synthetic


def _parts(name: str) -> tuple[str, list[str]]:
    head, _, rest = name.partition(":")
    return head, [part for part in rest.split(":") if part]


def _number(name: str, args: list[str], index: int, default: int) -> int:
    try:
        return int(args[index]) if len(args) > index else default
    except ValueError:
        raise ReproError(
            f"bad numeric parameter in workload name {name!r}"
        ) from None


def synthetic_config(name: str) -> SyntheticConfig:
    """The :class:`SyntheticConfig` a ``synthetic[:n_c[:seed]]`` name asks for.

    Raises :class:`ReproError` on any other name, on a part that is not
    an integer, and on a size the generator cannot build.
    """
    head, args = _parts(name)
    if head != "synthetic" or len(args) > 2:
        raise ReproError(
            f"not a synthetic workload name: {name!r} "
            "(expected synthetic[:n_c[:seed]])"
        )
    return SyntheticConfig(
        n_c=_number(name, args, 0, 300), seed=_number(name, args, 1, 42)
    )


def named_workload(name: str):
    """Resolve a workload name to ``(atg, db)``.

    Formats: ``registrar``, ``bom``, ``synthetic[:n_c[:seed]]``,
    ``chain[:depth]`` — e.g. ``synthetic:300`` or ``chain:80``.
    """
    head, args = _parts(name)
    if head == "registrar" and not args:
        return build_registrar()
    if head == "bom" and not args:
        return build_bom()
    if head == "synthetic":
        dataset = build_synthetic(synthetic_config(name))
        return dataset.atg, dataset.db
    if head == "chain" and len(args) <= 1:
        return build_chain(depth=_number(name, args, 0, 50))
    raise ReproError(
        f"unknown workload {name!r}; expected registrar, bom, "
        "synthetic[:n_c[:seed]] or chain[:depth]"
    )


__all__ = [
    "build_registrar",
    "registrar_atg",
    "SyntheticConfig",
    "build_synthetic",
    "build_bom",
    "build_chain",
    "make_workload",
    "make_query_set",
    "registrar_op_stream",
    "REGISTRAR_QUERIES",
    "named_workload",
    "synthetic_config",
]
