"""A dict bounded at CACHE_MAX entries, for the point caches: theta jets,
chi primitives, sheets, frames, the psi sheet blocks of ``ClassicalSystem``,
and the Bergman legs of ``RecursionEngine``, where a point held shallower
than a read asks is read again to the deepest level the engine stores."""

from __future__ import annotations

# entries kept per cache; past this the oldest entry is evicted
CACHE_MAX = 1024


class BoundedCache(dict):
    """dict whose inserts evict the oldest entry once CACHE_MAX are held;
    storing an existing key again makes it the newest."""

    def __setitem__(self, key, value):
        self.pop(key, None)
        if len(self) >= CACHE_MAX:
            del self[next(iter(self))]
        super().__setitem__(key, value)
