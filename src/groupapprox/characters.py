"""Conjugacy classes and characters of A_m, built from cycle types alone,
the cycle types of the k-th powers in S_m and A_m, and the tuples least in
their conjugation orbits, which the searches and equation scans test.

No element of the group is listed.  The classes of ``A_m`` are the even
cycle types of ``S_m``; a type splits into two halves iff its parts are
odd and distinct.  Each class comes with its canonically least element
(``Permutation.sort_key``), written down directly, and the classes are
numbered in the order of those representatives, as ``FiniteGroup``
numbers the classes of an enumerated ``A_m``.

Characters come from the ``S_m`` character table, computed by the
Murnaghan-Nakayama rule on beta-sets (James-Kerber, *The Representation
Theory of the Symmetric Group*).  The irreducibles of ``A_m`` are the
restrictions of chi^lambda for lambda != lambda', one per pair, and two
characters chi+- for each self-conjugate lambda.  chi+- equal chi^lambda/2
except on the two halves of the type h(lambda) of diagonal hook lengths,
where they take (e +- sqrt(e q))/2 with q the product of the hooks and
e = (-1)^((m - d)/2) for d hooks.  Which half is "+" does not matter.

A product of class sums is read off the characters:

    (sum_{c in L} C_c)(sum_{a in A} C_a)
        = sum_z C_z (1/|G|) sum_chi S_L(chi) S_A(chi) conj(chi(z)) / chi(1),

with S_L(chi) = sum_{c in L} |K_c| chi(c).  Structure constants are
nonnegative, so the classes with a nonzero coefficient are exactly the
union of the class products K_c K_a.  The two characters of a pair are
Galois conjugate, so together they contribute twice the rational part of
the chi+ term; every sum is kept as an exact integer, scaled by a common
multiple of the degrees.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from math import factorial, gcd, lcm, prod
from operator import mul

from .errors import CapExceeded
from .groups import DEFAULT_ELEMENT_CAP, FiniteGroup, _closure
from .perm import Permutation, commutes, is_even
from .words import paired_images


def _partitions(n: int, largest: int):
    """Partitions of n into parts <= largest, parts decreasing, in reverse
    lexicographic order; generated lazily."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def cycle_type(x: Permutation) -> tuple[int, ...]:
    """The cycle lengths of x, fixed points included, decreasing: a
    partition of its degree."""
    lengths = sorted(map(len, x.cycles()), reverse=True)
    return tuple(lengths) + (1,) * (len(x) - sum(lengths))


@lru_cache(maxsize=None)
def power_types(m: int, k: int, even: bool) -> frozenset:
    """The cycle types of the k-th powers in ``S_m``, or in ``A_m`` when even.

    They are the types lambda^k for lambda a partition of m, an even one
    for ``A_m``: an l-cycle to the k is gcd(l, k) cycles of length
    l / gcd(l, k).  The set is exact for ``A_m`` too, as conjugation by
    ``S_m`` keeps parity: an even root of one element of a type conjugates
    to an even root of every element of that type.
    """
    out = set()
    for shape in _partitions(m, m):
        if even and (m - len(shape)) % 2:
            continue
        parts = []
        for length in shape:
            g = gcd(length, k)
            parts += [length // g] * g
        out.add(tuple(sorted(parts, reverse=True)))
    return frozenset(out)


def partitions(m: int) -> tuple[tuple[int, ...], ...]:
    """The partitions of m, i.e. the cycle types of ``S_m``.

    The ``S_m`` character table has one entry per pair of them, so they are
    counted one at a time and refused as soon as that table would pass
    ``DEFAULT_ELEMENT_CAP`` entries.
    """
    out = []
    for shape in _partitions(m, m):
        out.append(shape)
        if len(out) ** 2 > DEFAULT_ELEMENT_CAP:
            raise CapExceeded(
                f"the S{m} character table passes cap {DEFAULT_ELEMENT_CAP} entries: "
                f"counted {len(out)} partitions of {m}"
            )
    return tuple(out)


def conjugate_partition(shape: tuple[int, ...]) -> tuple[int, ...]:
    """The transposed shape: its part i counts the parts of shape above i."""
    return tuple(sum(1 for part in shape if part > i) for i in range(shape[0] if shape else 0))


def symmetric_character(shape: tuple[int, ...], mu: tuple[int, ...], memo: dict) -> int:
    """chi^shape at cycle type mu (parts decreasing), by Murnaghan-Nakayama.

    On beta-sets, the beads of shape are part + (number of parts below it).
    Removing a rim hook of length r moves one bead b to the free place
    b - r, with sign (-1)^(beads strictly between b - r and b); the parts
    of the jumped beads each lose one.  Once mu is all ones the value is
    the degree, by the hook length formula.  ``memo`` holds values by
    (shape, mu) and may be shared across calls.
    """
    key = (shape, mu)
    value = memo.get(key)
    if value is not None:
        return value
    if not mu or mu[0] == 1:
        value = _degree(shape)
    else:
        r, rest = mu[0], mu[1:]
        k = len(shape)
        beads = [part + k - 1 - i for i, part in enumerate(shape)]  # decreasing
        value = 0
        for i, b in enumerate(beads):
            t = b - r
            if t < 0:
                break  # the beads further on are smaller still
            j = i + 1
            while j < k and beads[j] > t:
                j += 1
            if j < k and beads[j] == t:
                continue  # the place is taken
            jumped = j - i - 1
            parts = (
                shape[:i]
                + tuple(part - 1 for part in shape[i + 1:j])
                + (shape[i] - r + jumped,)
                + shape[j:]
            )
            # parts can only end in zeros, which a shape leaves out
            term = symmetric_character(tuple(filter(None, parts)), rest, memo)
            value += -term if jumped % 2 else term
    memo[key] = value
    return value


def _degree(shape: tuple[int, ...]) -> int:
    """chi^shape(1) = n! / (product of the hook lengths)."""
    dual = conjugate_partition(shape)
    hooks = prod(part - j + dual[j] - i - 1 for i, part in enumerate(shape) for j in range(part))
    return factorial(sum(shape)) // hooks


def _least_element(m: int, mu: tuple[int, ...]) -> Permutation:
    """The least permutation of cycle type mu under ``Permutation.sort_key``:
    support {0..s-1}, each cycle on consecutive points, shorter cycles first."""
    images = list(range(m))
    start = 0
    for length in sorted(part for part in mu if part > 1):
        for i in range(start, start + length - 1):
            images[i] = i + 1
        images[start + length - 1] = start
        start += length
    return Permutation(images)


def orbit_leaders(G: FiniteGroup, inner: bool = False):
    """Sorted positions in ``G.elements()`` of the leaders of G's
    conjugation orbits, a leader being the canonically least element of its
    orbit.

    For builtin ``S_m`` and ``A_m`` the orbits are those of ``S_m``, whose
    conjugation is an automorphism of ``A_m`` too: one leader per cycle
    type, an even one for ``A_m``, written down by ``_least_element`` with
    no partition built.  ``inner`` asks for the orbits of ``A_m``'s own
    conjugation, for a verdict that an outer automorphism may change.  Any
    other group, and ``A_m`` with ``inner``, gives its class representatives.
    """
    els = G.elements()
    m = G.degree
    if G.kind == "symmetric" or (G.kind == "alternating" and not inner):
        even = G.kind == "alternating"
        leaders = [
            _least_element(m, mu) for mu in _partitions(m, m) if not (even and (m - len(mu)) % 2)
        ]
    else:
        leaders = map(G.class_representative, range(len(G.conjugacy_classes())))
    return sorted(bisect_left(els, x.sort_key(), key=Permutation.sort_key) for x in leaders)


def leader_first(G: FiniteGroup, items, r: int, inner: bool = False):
    """The r-tuples over ``items``, a list aligned with ``G.elements()``,
    that are least in their orbits under simultaneous conjugation, in
    canonical order, each with its 1-based position among all
    ``len(items) ** r`` tuples: the tuple of the elements at positions
    i_1, ..., i_r is at i_1 * n ** (r - 1) + ... + i_r * n ** 0 + 1.

    The conjugations are those of ``orbit_leaders``.  Tuples compare entry
    by entry, so a tuple is least in its orbit iff its first entry is a
    leader and each later entry is least in its orbit under the
    conjugations that fix the entries before it.  If a set of tuples is
    closed under simultaneous conjugation, its canonically first member is
    among these.  The orbits are memoized on G (``_Leaders``), so a group
    shared between commands (``store.share``) forms them once.
    """
    if not r:
        yield 1, ()
        return
    by_sym = G.kind == "symmetric" or (G.kind == "alternating" and not inner)
    root = G._orbits.get(by_sym)
    if root is None:
        root = G._orbits[by_sym] = _Leaders(G, by_sym, orbit_leaders(G, inner))
    yield from _canonical_tuples(root, items, r, 0, ())


def _canonical_tuples(node, items, r, offset, head):
    """(position, tuple) for the canonical tuples ``head + t``, t an r-tuple
    whose first entry is one of ``node.minima``; ``offset`` is the position
    of ``head`` followed by r copies of the first element, less 1."""
    if r == 1:
        for i in node.minima:
            yield offset + i + 1, head + (items[i],)
        return
    block = len(items) ** (r - 1)
    for i in node.minima:
        tail = _canonical_tuples(node.child(i), items, r - 1, offset + i * block, head + (items[i],))
        yield from tail


class _Orbits:
    """The positions in ``G.elements()`` of the elements least in their
    orbits under conjugation by a group K, sorted, and the same for the
    stabilizer in K of each (``child``), formed when first asked for.

    K is given by ``conjugators``, pairs (g, g^-1): every element of K
    when ``closed``, else generators of K.  An orbit is formed from its
    least element, in canonical order, by conjugating it by every element
    of K, or, breadth first, by the generators; so S_m is never listed
    for A_m.
    """

    def __init__(self, G: FiniteGroup, conjugators, closed: bool, minima=None):
        self.group = G
        self.conjugators = conjugators
        self.closed = closed
        self.children = {}
        if minima is None:
            els, where = G.elements(), G.positions()
            moving = [pair for pair in conjugators if not pair[0].is_identity()]
            seen = bytearray(len(els))
            minima = []
            for i in range(len(els)):
                if seen[i]:
                    continue
                minima.append(i)
                seen[i] = 1
                orbit = [i]
                for k in orbit:  # grows while it is walked, unless K is listed
                    x = els[k]
                    for g, g_inv in moving:
                        j = where[tuple(map(g.__getitem__, map(x.__getitem__, g_inv)))]  # g^-1 x g
                        if not seen[j]:
                            seen[j] = 1
                            if not closed:
                                orbit.append(j)
        self.minima = minima

    def child(self, i: int) -> "_Orbits":
        node = self.children.get(i)
        if node is None:
            y = self.group.elements()[i]
            fixed = all(commutes(y, g) for g, _ in self.conjugators)
            node = self.children[i] = self if fixed else self._stabilizer(y)
        return node

    def _stabilizer(self, y: Permutation) -> "_Orbits":
        """The orbits of the elements of K that commute with y."""
        K = self.conjugators
        if not self.closed:
            G = self.group
            K = paired_images(_closure([g for g, _ in K], G.degree, DEFAULT_ELEMENT_CAP, G.name))
        return _Orbits(self.group, tuple(pair for pair in K if commutes(y, pair[0])), True)


class _Leaders(_Orbits):
    """The root of ``leader_first``'s orbits: K is ``S_m`` when ``by_sym``,
    else G, given by its generators, and the minima are ``orbit_leaders``.

    A leader's stabilizer is its centralizer.  In ``S_m`` it is generated
    from the leader's cycles (``_centralizer_generators``); in G it is
    G's memoized ``_centralizer`` of the leader's class, as the leaders
    are then G's class representatives.
    """

    def __init__(self, G: FiniteGroup, by_sym: bool, leaders):
        gens = FiniteGroup.symmetric(G.degree).generators if by_sym else G.generators
        super().__init__(G, paired_images(gens), False, leaders)
        self.by_sym = by_sym

    def _stabilizer(self, y: Permutation) -> _Orbits:
        G = self.group
        if self.by_sym:
            return _Orbits(G, paired_images(_centralizer_generators(y)), False)
        return _Orbits(G, G._centralizer(G.class_index_of(y)), True)


def _centralizer_generators(y: Permutation) -> list[Permutation]:
    """Generators of the centralizer of y in ``S_m``.

    It permutes the cycles of each length, fixed points being the cycles
    of length 1, and rotates each cycle.  So for each length it is
    generated by the rotation of one cycle, the shift of each cycle onto
    the next and the swap of the first two, each cycle matched point for
    point from its start.
    """
    m = len(y)
    by_length = {}
    for cycle in y.cycles() + [(p,) for p, q in enumerate(y) if p == q]:
        by_length.setdefault(len(cycle), []).append(cycle)
    gens = []
    for cycles in by_length.values():
        first = cycles[0]
        moves = [(first, first[1:] + first[:1])]
        if len(cycles) > 1:
            moves.append((sum(cycles, ()), sum(cycles[1:] + cycles[:1], ())))
        if len(cycles) > 2:
            moves.append((first + cycles[1], cycles[1] + first))
        for sources, targets in moves:
            if sources != targets:
                images = list(range(m))
                for p, q in zip(sources, targets):
                    images[p] = q
                gens.append(Permutation(images))
    return gens


def _other_half(rep: Permutation) -> Permutation:
    """The least element of rep's type outside rep's ``A_m`` class, for rep
    the least element of a split type: the last cycle (a ... b-1 b) becomes
    (a ... b b-1), a conjugate by the odd transposition (b-1 b)."""
    images = list(rep)
    b = max(rep.support())
    a = images[b]
    images[b - 2], images[b - 1], images[b] = b, a, b - 1
    return Permutation(images)


def _centralizer_order(mu: tuple[int, ...]) -> int:
    """z_mu = prod_i i^(a_i) a_i!, for a_i parts equal to i."""
    return prod(part ** mu.count(part) * factorial(mu.count(part)) for part in set(mu))


class AlternatingTable:
    """The conjugacy classes of ``A_m`` (m >= 2) with the characters that
    decide their products, all from cycle types.

    ``representatives[c]`` is the least element of class c, ``sizes[c]`` its
    size and ``inverses[c]`` the class of the inverses of its elements;
    class 0 is the identity.
    """

    def __init__(self, m: int):
        self.degree = m
        shapes = partitions(m)
        classes = []  # (representative, cycle type, size)
        for mu in shapes:
            if (m - len(mu)) % 2:
                continue  # odd permutations
            rep = _least_element(m, mu)
            size = factorial(m) // _centralizer_order(mu)
            if all(part % 2 for part in mu) and len(set(mu)) == len(mu):
                # odd distinct parts: the type splits into two A_m classes
                classes.append((rep, mu, size // 2))
                classes.append((_other_half(rep), mu, size // 2))
            else:
                classes.append((rep, mu, size))
        classes.sort(key=lambda entry: entry[0].sort_key())
        self.representatives = tuple(rep for rep, _, _ in classes)
        self.sizes = sizes = tuple(size for _, _, size in classes)
        types = [mu for _, mu, _ in classes]
        self._halves = halves = {}  # type -> its classes, two for a split type
        for c, mu in enumerate(types):
            halves[mu] = halves.get(mu, ()) + (c,)
        inverses = []
        for c, mu in enumerate(types):
            pair = halves[mu]
            # x^-1 lies in x's half iff sum (mu_i - 1)/2 is even
            swapped = len(pair) == 2 and sum(part // 2 for part in mu) % 2
            inverses.append(pair[1 - pair.index(c)] if swapped else c)
        self.inverses = tuple(inverses)

        memo = {}
        characters = []  # chi^lambda by class, one lambda of each pair {lambda, lambda'}
        pairs = []  # (row, d, first half, second half) for lambda = lambda'
        for shape in shapes:
            dual = conjugate_partition(shape)
            if dual > shape:
                continue  # restricts to the same character as its conjugate
            if dual == shape:
                hooks = [2 * (part - i) - 1 for i, part in enumerate(shape) if part > i]
                sign = -1 if (m - len(hooks)) // 2 % 2 else 1
                pairs.append((len(characters), sign * prod(hooks), *halves[tuple(hooks)]))
            characters.append(tuple(symmetric_character(shape, mu, memo) for mu in types))
        self.characters = tuple(characters)
        self.pairs = tuple(pairs)
        # Scaled by 2|G|D, D = lcm chi^lambda(1), the coefficient on z is a
        # sum over rows.  A restricted chi gives (2D/chi(1)) S_L S_A chi(z).
        # A pair has chi+(1) = chi(1)/2 and S(chi+) = (U + W sqrt(d))/2, so
        # twice the rational part of its chi+ term is (D/chi(1)) times the
        # rational part of (U_L + W_L r)(U_A + W_A r)(chi(z) + w_z conj(r)),
        # r = sqrt(d), with w_z = +1, -1 on the halves of h(lambda), else 0.
        common = lcm(*(chi[0] for chi in characters))
        scales = [2 * common // chi[0] for chi in characters]
        for row, *_ in pairs:
            scales[row] //= 2
        self._scales = tuple(scales)
        self._columns = tuple(zip(*characters))  # chi(c) by class, then row
        self._weighted = tuple(  # |K_c| chi(c) by class, then row
            tuple(size * value for value in column) for size, column in zip(sizes, self._columns)
        )

    def class_index(self, x: Permutation) -> int:
        """The class of x, an element of ``A_m``, read off its cycle type.

        The halves of a split type are told apart by the permutation that
        lays x's cycles, shortest first, over the representative's cycles,
        which are runs of consecutive points from 0 with the fixed point
        last: as a list of images it is x's cycles written out in that
        order.  It conjugates the first half's representative to x.  The
        type's centralizer in ``S_m`` is even, so every such conjugator has
        its parity, and x lies in the first half iff it is even.  The parts
        are odd, so where each cycle is started does not matter.
        """
        cycles = sorted(x.cycles(), key=len)
        lengths = tuple(map(len, reversed(cycles)))
        mu = lengths + (1,) * (self.degree - sum(lengths))
        pair = self._halves[mu]
        if len(pair) == 1:
            return pair[0]
        laid = [point for cycle in cycles for point in cycle]
        laid += [point for point, image in enumerate(x) if point == image]
        return pair[0] if is_even(Permutation(laid)) else pair[1]

    def letters(self, c: int) -> tuple[int, ...]:
        """The classes of the elements of class c and of their inverses."""
        return tuple(sorted({c, self.inverses[c]}))

    def _sums(self, classes):
        """(U by row, W by pair): sum_{c in classes} |K_c| chi(c) is U for a
        restricted chi and (U + W sqrt(d))/2 for a pair's chi+, which is
        sqrt(d)/2 above chi^lambda/2 on the first half of h(lambda) and
        sqrt(d)/2 below it on the second."""
        u = list(map(sum, zip(*(self._weighted[c] for c in classes))))
        sizes = self.sizes
        w = [sizes[plus] * ((plus in classes) - (minus in classes)) for _, _, plus, minus in self.pairs]
        return u, w

    def step(self, letters):
        """The map taking a set of class indices L to the classes of the
        product set (union of L) times (union of the letter classes)."""
        u_a, w_a = self._sums(letters)
        scaled_a = list(map(mul, self._scales, u_a))
        pairs, scales, columns = self.pairs, self._scales, self._columns

        def step(layer):
            u_l, w_l = self._sums(layer)
            coefficients = list(map(mul, scaled_a, u_l))
            corrections = []
            for (row, d, plus, minus), wl, wa in zip(pairs, w_l, w_a):
                if wl or wa:
                    scale = scales[row]
                    coefficients[row] += scale * d * wl * wa
                    q = scale * abs(d) * (u_l[row] * wa + wl * u_a[row])
                    corrections.append((plus, q))
                    corrections.append((minus, -q))
            totals = [sum(map(mul, coefficients, column)) for column in columns]
            for z, q in corrections:
                totals[z] += q
            return frozenset(z for z, total in enumerate(totals) if total > 0)

        return step


@lru_cache(maxsize=None)
def alternating_table(m: int) -> AlternatingTable:
    """``AlternatingTable(m)``, built once per degree."""
    return AlternatingTable(m)
