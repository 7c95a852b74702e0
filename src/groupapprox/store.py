"""Built groups, shared by the commands that one process runs.

The name resolvers (``catalog.builtin_group``, ``catalog.parse_catalog``
and ``report.group_from_data``) pass each group they build through
``share``.  A later command that names the same group (same kind, degree,
generators, components and name) gets the same instance, with its
elements, class partition, class products, centralizers and conjugation
orbits already built.

A stored group answers every query as a fresh one does.  ``cli`` calls
``trim`` after each command, to bound what stays stored between commands.
"""

from __future__ import annotations

from collections import OrderedDict

from .groups import FiniteGroup

STORE_ELEMENTS = 10_000
"""Listed elements kept between commands, summed over the stored groups;
below ``groups.DEFAULT_ELEMENT_CAP``."""

_groups: OrderedDict = OrderedDict()  # key -> group, least recently used first


def share(G: FiniteGroup) -> FiniteGroup:
    """The stored group with G's key, else G, now stored."""
    key = _key(G)
    stored = _groups.get(key)
    if stored is None:
        _groups[key] = G
        return G
    _groups.move_to_end(key)
    return stored


def trim() -> None:
    """After a command: drop the least recently used groups until the rest
    list at most ``STORE_ELEMENTS`` elements."""
    total = sum(map(_listed, _groups.values()))
    while total > STORE_ELEMENTS:
        total -= _listed(_groups.popitem(last=False)[1])


def clear() -> None:
    _groups.clear()


def stored(G: FiniteGroup) -> bool:
    """Whether G itself is the stored group of its key."""
    return _groups.get(_key(G)) is G


def _key(G):
    components = None if G.components is None else tuple(map(_key, G.components))
    return (G.kind, G.degree, G.generators, components, G.name)


def _listed(G):
    """Elements G holds listed, its components' included."""
    n = 0 if G._elements is None else len(G._elements)
    if G.components is not None:
        n += sum(map(_listed, G.components))
    return n
