"""Suite-wide pytest hooks."""

import gc


def pytest_collection_finish(session):
    """Move everything collection built into the collector's permanent
    generation.

    ``Network.run()`` starts every trial with a full ``gc.collect()``.
    Frozen, pytest's own ~150 k objects (modules, fixtures, collected items)
    are not traversed again by each of those collections.
    """
    gc.collect()
    gc.freeze()
