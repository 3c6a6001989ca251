"""Shared test environment.

BLAS thread pools are pinned to one thread before numpy loads so that the
timed acceptance criteria measure single-core behavior.  Dataset synthesis
runs serially unless a test sets SCANMEND_THREADS itself.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def pytest_collection_modifyitems(items):
    """Run the tests that share the desk-scale ``chain`` fixture last.

    That fixture trains both autoencoders and every GAN mode (about half an
    hour on one core), so ordering it after everything else lets a run that
    is cut short still report every other test.
    """
    items.sort(key=lambda item: "chain" in getattr(item, "fixturenames", ()))
