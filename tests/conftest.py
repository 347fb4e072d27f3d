import pytest

from fraclab import diagnostics, extension, grids


@pytest.fixture
def clear_caches():
    """A function that clears every functools.lru_cache of fraclab.diagnostics,
    fraclab.extension and fraclab.grids, found by introspection so that no cache
    escapes a cold/warm comparison, and returns them."""
    def clear():
        caches = {id(obj): obj for mod in (diagnostics, extension, grids)
                  for obj in vars(mod).values() if hasattr(obj, "cache_clear")}
        assert len(caches) >= 2
        for cache in caches.values():
            cache.cache_clear()
        return list(caches.values())
    return clear
