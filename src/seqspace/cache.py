"""One bounded cache for everything seqspace computes more than once.

Matrices resolved from specs, transfer matrices, dense float tables, the
features records read from rows (two row traces each, with the limit
analyses of those traces and of the sampled columns, and the last complete
row), condition reports, oracle images, their limit analyses and oracle
probes all live in one least-recently-used store, capped in bytes by
:data:`CAP_BYTES`.  Every entry is charged its ``nbytes`` (zero for values
without arrays) plus :data:`ENTRY_OVERHEAD`, so small values cannot pile up
without bound either.  A value whose charge alone is over the cap is
returned but not held, and nothing is evicted for it.

Dense tables are working memory, not contents: a few neighbouring checks
read one, while the small entries it would push out (matrices, features
records, reports, images, probes, batteries) serve many.  So a
``("table", matrix key, size)`` entry, once held, replaces every other
table whose matrix key its own key does not name, a key naming itself and
every key nested in it.  A product's or an inverse's key nests its
factors' keys, so the tables its build reads stay: a table of E*B^-1
reads E's table while it builds, and E's key is in its own.  A stream of
new matrices thus holds one table at a time, not as many as the cap
takes.  Under the cap, every table and every large entry, over a third of
the cap (:func:`is_large`), goes first, least recent first, all but the
newest; the others go only when no table but the newest is left.  A
table's room under the cap is made before it is built; the tables it
replaces go once it is built, since its build may read them.

Keys are tuples whose second item is a matrix key (``InfiniteMatrix.key``):
the canonical spec for matrices resolved from specs (``"euler:1/2"``), the
factors' keys for products and inverses (a product that reads as its factor
has the factor's key, and its matrix entry adds its name), ``("row-dual",
matrix key, row, domain key)`` for the dual triangle of a paired row, and a
serial number for every other matrix.  Limit analyses are held in the
features record of their traces and per image target.  Serial numbers are
never reused, so two matrices that happen to share a label never share an
entry, and the entries of a serial-keyed matrix are dropped once the
matrix is gone.  No cached value
refers back to a matrix that refers to the cache, so an evicted table is
freed at once.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from itertools import count

#: Bytes the cache may hold.  The small entries of a whole acceptance-grid
#: pass at the default n = 600 (1,159, of them 62 features records of two
#: row traces and a last row each) charge 7.2 MiB, and the one table the
#: pass builds, E_{1/2}'s, 2.75 MiB: every product streams its rows, a
#: nested transfer such as sigma*(E*B^-1), E an Euler mean, through E's
#: table.  The pass ends holding 10.0 MiB and evicts nothing; at a 9.9 MiB
#: cap it would evict 12 entries.
#: A table over a third of the cap (n >= 783) is read in row chunks
#: instead.  Below that line tables pay: a cold grid pass at n = 800, past
#: it, takes 0.96 s CPU, E_{1/2} walked and sigma*A streamed, against
#: 0.79 s when a 19 MiB cap held the tables of E_{1/2} and of the sigma*A
#: transfers (medians of 24 passes on a shared 2-CPU machine).
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


def lookup(key: tuple, build, nbytes: int = 0):
    """The cached value for ``key``, made by ``build()`` on a miss.

    ``nbytes``, when given, is the size of the value's arrays, known before
    the build: room for it is made first, unless it is over the cap.  A
    table held replaces every other table that its key does not name.
    """
    _drop_dead()
    got = _get(key)
    if got is not None:
        return got[0]
    if nbytes and ENTRY_OVERHEAD + nbytes <= CAP_BYTES:
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
    _counts["hits"] += 1
    return got


def _put(key, value) -> None:
    """Hold ``value`` and evict down to the cap, unless it is over the cap.
    A table held first evicts every other table that its key does not name."""
    global _held
    charge = ENTRY_OVERHEAD + int(getattr(value, "nbytes", 0))
    if charge > CAP_BYTES:
        return
    named = _named(key)
    if key[0] == "table":
        for other in [k for k in _entries if k[0] == "table"
                      and k[1] not in named]:
            _evict(other)
    _entries[key] = (value, charge)
    _held += charge
    for serial in _serials_in(named):
        _by_serial.setdefault(serial, set()).add(key)
    _make_room(0)


def is_large(nbytes: int) -> bool:
    """Whether an entry of ``nbytes`` is large: over a third of the cap."""
    return nbytes > CAP_BYTES // 3


def _named(key) -> set:
    """``key`` and every key nested in it."""
    named = {key}
    if isinstance(key, tuple):
        for part in key:
            named |= _named(part)
    return named


def _serials_in(named) -> list:
    return [part[1] for part in named if isinstance(part, tuple)
            and len(part) == 2 and part[0] == "serial"]


def _make_room(incoming: int) -> None:
    """Evict until ``incoming`` more bytes fit: tables and large entries
    first, least recent first, all but the newest.  An incoming large entry
    becomes the most recent of them, so then every held one may go before
    the others."""
    keep = 0 if is_large(incoming) else 1
    while _entries and _held + incoming > CAP_BYTES:
        first = [k for k, (_, charge) in _entries.items()
                 if k[0] == "table" or is_large(charge)]
        if len(first) > keep or len(first) == len(_entries):
            _evict(first[0])
        else:
            _evict(next(k for k in _entries if k not in first))


def _evict(key) -> None:
    _forget(key)
    _counts["evictions"] += 1


def _forget(key) -> None:
    global _held
    got = _entries.pop(key, None)
    if got is None:
        return
    _held -= got[1]
    for serial in _serials_in(_named(key)):
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
