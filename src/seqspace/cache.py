"""One bounded cache for everything seqspace computes more than once.

Matrices resolved from specs, transfer matrices, dense float tables, the
features records read from rows (two row traces each), the limit analyses
of traces, condition reports, oracle images and oracle probes all live in
one least-recently-used store, capped in bytes by :data:`CAP_BYTES`.  Every
entry is charged its ``nbytes`` (zero for values without arrays) plus
:data:`ENTRY_OVERHEAD`, so small values cannot pile up without bound either.

Dense tables are working memory, not contents: a few neighbouring checks
read one, while the small entries it would push out (matrices, features
records, reports, images, probes, batteries) serve many.  So every
``("table", ...)`` entry and every large one, over a third of the cap
(:func:`is_large`), goes first, least recent first, all but the newest;
the others go only when no table but the newest is left.  Readers of
many rows (``InfiniteMatrix._row_chunks``) build tables only of matrices
whose rows cost more than their width (Euler means, products other than
bands, inverse pairs and dual triangles, among them the weighted means
times a bidiagonal; generic inverses, rule matrices:
``InfiniteMatrix._table_chunks``), and not when the table would be large;
every other family is read in blocks.  A table's room is made before it
is built, so the table it replaces is freed first.

Keys are tuples whose second item is a matrix key (``InfiniteMatrix.key``):
the canonical spec for matrices resolved from specs (``"euler:1/2"``), the
factors' keys for products and inverses (a product that reads as its factor
has the factor's key, and its matrix entry adds its name), ``("row-dual",
matrix key, row, domain key)`` for the dual triangle of a paired row, and a
serial number for every other matrix.  Limit analyses are held per trace
and per image target.  Serial numbers are never reused, so two matrices
that happen to share a label never share an entry, and the entries of a
serial-keyed matrix are dropped once the matrix is gone.  No cached value
refers back to a matrix that refers to the cache, so an evicted table is
freed at once.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from itertools import count

#: Bytes the cache may hold.  The small entries of a whole acceptance-grid
#: pass at the default n = 600 (1,346, of them 62 features records of two
#: row traces each) charge 7.7 MiB, which leaves 11.3 MiB to 2.75 MiB
#: tables: four at the end of the pass, more before it.  A nested transfer
#: check such as sigma*(E*B^-1), E an Euler mean, reads three at once (E,
#: E*B^-1 and the product being built; sigma and B^-1 are read in blocks):
#: 8.3 MiB, with 3.1 MiB of margin.  All 35 evictions of a cold pass, of 39
#: tables built, are tables.  At 17 MiB the pass builds two tables more.
#: A table over a third of the cap (n >= 912) is read in row chunks instead.
#: Below that line tables pay: a cold grid pass at n = 800 or 880 that
#: streamed its rows took 15-25 % more CPU than one that read tables.
CAP_BYTES = 19 * 2 ** 20
#: Bytes charged to every entry on top of its arrays.
ENTRY_OVERHEAD = 4096

_entries: OrderedDict = OrderedDict()   # key -> (value, charged bytes)
_first: OrderedDict = OrderedDict()     # keys of the tables and large entries
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


def lookup(key: tuple, build, nbytes: int = 0):
    """The cached value for ``key``, made by ``build()`` on a miss.

    ``nbytes``, when given, is the size of the value's arrays, known before
    the build: room for it is made first.
    """
    _drop_dead()
    got = _get(key)
    if got is not None:
        return got[0]
    if nbytes:
        _make_room(ENTRY_OVERHEAD + nbytes)
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
    if key in _first:
        _first.move_to_end(key)
    _counts["hits"] += 1
    return got


def _put(key, value) -> None:
    global _held
    charge = ENTRY_OVERHEAD + int(getattr(value, "nbytes", 0))
    _entries[key] = (value, charge)
    _held += charge
    if key[0] == "table" or is_large(charge):
        _first[key] = None
    for serial in _serials_in(key):
        _by_serial.setdefault(serial, set()).add(key)
    _make_room(0)


def is_large(nbytes: int) -> bool:
    """Whether an entry of ``nbytes`` is large: over a third of the cap."""
    return nbytes > CAP_BYTES // 3


def _serials_in(key) -> list:
    if not isinstance(key, tuple):
        return []
    if len(key) == 2 and key[0] == "serial":
        return [key[1]]
    return [serial for part in key for serial in _serials_in(part)]


def _make_room(incoming: int) -> None:
    """Evict until ``incoming`` more bytes fit: tables and large entries
    first, all but the newest.  An incoming large entry becomes the most
    recent of them, so then every held one may go before the others."""
    keep = 0 if is_large(incoming) else 1
    while _entries and _held + incoming > CAP_BYTES:
        if len(_first) > keep:
            victim = next(iter(_first))
        else:
            victim = next(k for k in _entries
                          if k not in _first or len(_entries) == 1)
        _forget(victim)
        _counts["evictions"] += 1


def _forget(key) -> None:
    global _held
    got = _entries.pop(key, None)
    if got is None:
        return
    _held -= got[1]
    _first.pop(key, None)
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
    _first.clear()
    _by_serial.clear()
    _held = 0
    _counts.update(hits=0, misses=0, evictions=0)
