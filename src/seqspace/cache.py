"""One bounded cache for everything seqspace computes more than once.

Matrices resolved from specs, transfer matrices, dense float tables, the
features records read from rows (two row traces each, with the limit
analyses of those traces and of the sampled columns, and the last complete
row), condition reports, oracle images, their limit analyses and oracle
probes all live in one least-recently-used store, capped in bytes by
:data:`CAP_BYTES`.  Every entry is charged its ``nbytes`` (zero for values
without arrays) plus :data:`ENTRY_OVERHEAD`, so small values cannot pile up
without bound either.  Past the cap the least recently used entries go,
one at a time.  A value whose charge alone is over the cap is returned but
not held, and nothing is evicted for it.

Dense tables are working memory, not contents: a few neighbouring checks
read one, while the small entries (matrices, features records, reports,
images, probes, batteries) serve many.  So a ``("table", matrix key,
size)`` entry, once held, evicts every other held table, and a stream of
new matrices holds one table at a time, not as many as the cap takes.
Room for a table is made only once it is built, so while it builds the
cache may hold the cap plus that table.

Keys are tuples whose second item is a matrix key (``InfiniteMatrix.key``):
the canonical spec for matrices resolved from specs (``"euler:1/2"``), the
factors' keys for products and inverses (a product that reads as its factor
has the factor's key, and its matrix entry adds its name), ``("row-dual",
matrix key, row, domain key)`` for the dual triangle of a paired row, and a
serial number for every other matrix.  Limit analyses are held in the
features record of their traces and per image target.  Serial numbers are
never reused, so two matrices that happen to share a label never share an
entry, and the entries of a serial-keyed matrix are dropped once the
matrix is gone.  No cached value refers back to a matrix that refers to
the cache, so an evicted table is freed at once.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from itertools import count

#: Bytes the cache may hold, room for the working set of an acceptance-grid
#: pass at the default n = 600.  Its small entries (1,159, of them 62 features
#: records of two row traces and a last row each) charge 7.2 MiB, and the
#: one table it builds, E_{1/2}'s, 2.75 MiB: every product streams its rows,
#: a nested transfer such as sigma*(E*B^-1), E an Euler mean, through E's
#: table.  The pass ends holding 10.0 MiB and evicts nothing.
#: A reader of many rows builds no table over a third of the cap (n >= 783,
#: :func:`is_large`): it reads the rows in chunks.  Below that line tables
#: pay: a cold grid pass at n = 800 takes 0.96 s CPU, against 0.79 s when a
#: 19 MiB cap held its tables (medians of 24 passes on a shared 2-CPU
#: machine).
CAP_BYTES = 14 * 2 ** 20
#: Bytes charged to every entry on top of its arrays.
ENTRY_OVERHEAD = 4096

_entries: OrderedDict = OrderedDict()   # key -> (value, charged bytes)
_counts = {"hits": 0, "misses": 0, "evictions": 0}
_held = 0
_serials = count(1)
_by_serial: dict = {}   # serial -> keys of the entries naming it
_dead: list = []        # serials whose matrices are gone


def serial_key(owner) -> tuple:
    """A key for ``owner`` that no other object has or will have.  Once
    ``owner`` is gone, the entries keyed by it are dropped."""
    serial = next(_serials)
    # Only a note here: the callback may run in the middle of a lookup.
    weakref.finalize(owner, _dead.append, serial)
    return ("serial", serial)


def lookup(key: tuple, build):
    """The cached value for ``key``, made by ``build()`` on a miss."""
    _drop_dead()
    got = _get(key)
    if got is not None:
        return got[0]
    value = build()
    _put(key, value)
    return value


def lookup_many(keys: list, build) -> list:
    """The cached values for ``keys``, the missing ones made together by
    ``build(missing)``: it takes the positions of the missing keys and
    returns their values in that order."""
    _drop_dead()
    got = [_get(key) for key in keys]
    missing = [i for i, held in enumerate(got) if held is None]
    values = [None if held is None else held[0] for held in got]
    if missing:
        for i, value in zip(missing, build(missing)):
            values[i] = value
            _put(keys[i], value)
    return values


def _drop_dead() -> None:
    while _dead:
        for gone in _by_serial.pop(_dead.pop(), ()):
            _forget(gone)


def _get(key):
    """The held (value, charge) for ``key``, now the most recent, or None;
    counted as a hit or a miss."""
    got = _entries.get(key)
    if got is None:
        _counts["misses"] += 1
        return None
    _entries.move_to_end(key)
    _counts["hits"] += 1
    return got


def _put(key, value) -> None:
    """Hold ``value`` and evict the least recently used entries down to the
    cap, unless it is over the cap.  A table held first evicts every other
    table."""
    global _held
    charge = ENTRY_OVERHEAD + int(getattr(value, "nbytes", 0))
    if charge > CAP_BYTES:
        return
    if key[0] == "table":
        for other in [k for k in _entries if k[0] == "table"]:
            _evict(other)
    _entries[key] = (value, charge)
    _held += charge
    for serial in _serials_in(key):
        _by_serial.setdefault(serial, set()).add(key)
    while _held > CAP_BYTES:
        _evict(next(iter(_entries)))


def is_large(nbytes: int) -> bool:
    """Whether a table of ``nbytes`` is past the streaming line, over a third
    of the cap: its matrix's rows are then read in chunks without it."""
    return nbytes > CAP_BYTES // 3


def _serials_in(key) -> set:
    """The serial numbers of the serial keys in ``key`` or nested in it."""
    if not isinstance(key, tuple):
        return set()
    if len(key) == 2 and key[0] == "serial":
        return {key[1]}
    return set().union(*map(_serials_in, key))


def _evict(key) -> None:
    _forget(key)
    _counts["evictions"] += 1


def _forget(key) -> None:
    global _held
    got = _entries.pop(key, None)
    if got is None:
        return
    _held -= got[1]
    for serial in _serials_in(key):
        keys = _by_serial.get(serial)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del _by_serial[serial]


def stats() -> dict:
    """Hits, misses and evictions since the last :func:`clear`, and the
    bytes charged to and the number of the entries held now.  Entries dropped
    with their serial-keyed matrix are not evictions."""
    return dict(_counts, bytes=_held, entries=len(_entries))


def clear() -> None:
    """Drop every entry and reset the counters."""
    global _held
    _entries.clear()
    _by_serial.clear()
    _held = 0
    _counts.update(hits=0, misses=0, evictions=0)
