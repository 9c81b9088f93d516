"""The paper's figures and tables, regenerated from a checkout.

:mod:`benchmarks.paper.experiments` has one function per paper artifact
(Fig. 10(b), Fig. 11(a)–(h), Table 1) plus the ablations; each returns
structured rows and can print them in the paper's layout.  The
``benchmarks/test_*`` modules assert their shapes under pytest;
``python -m benchmarks.paper [--quick] [--csv DIR]`` runs them all and
prints the report (run it from the repository root, with ``repro``
installed or ``PYTHONPATH=src``).
"""
