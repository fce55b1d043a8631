"""One registry for the package's memos.

`cached` puts `functools.lru_cache(maxsize=None)` on a function, so its
`cache_info` and `cache_clear` work as usual, and records it in
`REGISTRY` under its module and name.  A `guard`, if given, runs on the
arguments of every call before the memo is looked up: a bound read from
the environment, such as `NCLAG_MAX_DEGREE`, then refuses a hit as it
refuses a miss.

Memoized results are shared and immutable by convention, like every
cached element of the package; the one exception is the series of
`lagrange._series`, which grows in place under that module's lock.
`clear_caches` empties every registered memo.
"""

from __future__ import annotations

import functools

REGISTRY = {}


def cached(fn=None, *, guard=None):
    """Memoize `fn` without bound and register it; with `guard`, call
    guard(*args, **kwargs) first on every call, so the guard's parameters
    are named as fn's."""
    if fn is None:
        return functools.partial(cached, guard=guard)
    memo = functools.lru_cache(maxsize=None)(fn)
    if guard is not None:
        lookup = memo

        @functools.wraps(fn)
        def memo(*args, **kwargs):
            guard(*args, **kwargs)
            return lookup(*args, **kwargs)

        memo.cache_info, memo.cache_clear = lookup.cache_info, lookup.cache_clear
    REGISTRY[f"{fn.__module__}.{fn.__qualname__}"] = memo
    return memo


def clear_caches():
    """Empty every registered memo."""
    for memo in REGISTRY.values():
        memo.cache_clear()
