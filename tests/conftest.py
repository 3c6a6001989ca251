"""Shared test environment.

BLAS thread pools are pinned to one thread before numpy loads so that the
timed acceptance criteria measure single-core behavior.  Dataset synthesis
always runs serially.
"""

import os

import pytest

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _uses_chain(item) -> bool:
    return "chain" in getattr(item, "fixturenames", ())


def pytest_collection_modifyitems(items):
    """Run the tests that share the desk-scale ``chain`` fixture last, and
    mark them ``chain``.

    That fixture trains both autoencoders and every GAN mode (about half an
    hour on one core), so ordering it after everything else lets a run that
    is cut short still report every other test, and ``-m "not chain"``
    selects everything else.
    """
    for item in items:
        if _uses_chain(item):
            item.add_marker(pytest.mark.chain)
    items.sort(key=_uses_chain)
