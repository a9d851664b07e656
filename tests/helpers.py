"""Helpers shared by the test modules."""


def clear_caches():
    """Empty the two caches of the package, the unit state of each degree
    and the oracle's last grid LP, so that the next call starts cold as in
    a new process."""
    from slopedesign import designs, oracle
    designs._unit_state.cache_clear()
    oracle._grid_lp.cache_clear()
