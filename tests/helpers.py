"""Helpers shared by the test modules."""


def clear_caches():
    """Empty the three caches of the package, the unit state of each degree,
    the oracle's last grid LP and the factor of its last support, so that
    the next call starts cold as in a new process."""
    from slopedesign import designs, oracle
    designs._unit_state.cache_clear()
    oracle._grid_lp.cache_clear()
    oracle._support_factor.cache_clear()
