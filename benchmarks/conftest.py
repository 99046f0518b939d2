"""Fixtures for the benchmark harness.

Each ``bench_*`` file regenerates one table or figure of the paper (the
README's "Running the benchmarks" section lists them) and prints the
measured rows next to the paper's published values.  Run from the repo
root with::

    python -m pytest benchmarks/ -s

(``benchmarks/pytest.ini`` wires up collection and ``pythonpath``; no
environment variables needed.)

Sizes are scaled down from the paper's full runs (hundreds instead of tens
of thousands of samples) so the whole harness finishes in minutes; the
*shape* criteria in each module's docstring are unaffected by the scale.

Only fixtures live here — importable helpers are in ``_bench_utils.py`` so
that this conftest never shadows ``tests/conftest.py`` (both are imported
under the bare module name ``conftest``).
"""

import numpy as np
import pytest

from _bench_utils import FrontendCache


@pytest.fixture(scope="session")
def frontends():
    return FrontendCache()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)
