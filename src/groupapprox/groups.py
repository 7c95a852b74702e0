"""Finite permutation groups with enumerable elements and class machinery.

Groups come in four kinds: symmetric, alternating, generated (closure of
an explicit generator list), and direct products realized faithfully as
permutations on the disjoint union of the component domains.  Everything
is cached once and frozen; desk-scale exhaustive enumeration is the whole
point, so there is no Schreier-Sims machinery here.

The consequence-set engine computes the exact-depth product sets

    C_n(X, G) = { b_1 b_2 ... b_n : each b_i a conjugate of some x or
                  x^-1 with x in X }

working at conjugacy-class granularity: every layer is a union of classes,
so a layer step is the union of the class products K_a K_c over letter
classes a and layer classes c.  Each group memoizes them lazily, forming
a pair once, from its smaller class (``FiniteGroup.class_product``).
"""

from __future__ import annotations

from functools import reduce
from itertools import permutations as iter_permutations
from itertools import product as iter_product
from math import factorial, prod
from operator import eq

from .errors import CapExceeded
from .perm import Permutation, check_degree, commutes, conjugate, direct_sum, identity, is_even
from .records import Record

DEFAULT_ELEMENT_CAP = 10**6


class FiniteGroup:
    """Immutable reference to a finite permutation group.

    Element order is canonical (identity first, then by support size,
    support, images), so first-found witnesses are reproducible.
    """

    def __init__(self, kind, degree, generators, name=None, components=None):
        self.kind = kind  # "symmetric" | "alternating" | "generated" | "product"
        self.degree = degree
        self.generators = tuple(generators)
        self.components = tuple(components) if components is not None else None
        self.name = name or self._default_name()
        self._elements = None
        self._element_set = None
        self._classes = None
        self._class_index = None
        self._class_reps = None
        self._class_products = {}  # (i, j) with i <= j -> frozenset of class indices
        self._centralizers = {}  # class index -> (g, g^-1) for g centralizing its rep
        self._positions = None  # element -> index in canonical order
        self._orbits = {}  # conjugation by S_m or not -> characters._Leaders

    # -- constructors ---------------------------------------------------

    @classmethod
    def symmetric(cls, m: int, name=None) -> "FiniteGroup":
        if m < 1:
            raise ValueError("symmetric degree must be >= 1")
        check_degree(m)
        gens = []
        if m >= 2:
            gens.append(_transposition(m, 0, 1))
        if m >= 3:
            gens.append(Permutation(tuple(range(1, m)) + (0,)))
        return cls("symmetric", m, gens, name=name)

    @classmethod
    def alternating(cls, m: int, name=None) -> "FiniteGroup":
        if m < 1:
            raise ValueError("alternating degree must be >= 1")
        check_degree(m)
        gens = []
        if m >= 3:
            gens.append(_cycle(m, (0, 1, 2)))
        if m >= 4:
            full = Permutation(tuple(range(1, m)) + (0,))  # (1 2 ... m)
            if m % 2 == 1:
                gens.append(full)
            else:
                gens.append(_cycle(m, tuple(range(1, m))))  # (2 3 ... m)
        return cls("alternating", m, gens, name=name)

    @classmethod
    def generated(cls, degree: int, generators, name=None) -> "FiniteGroup":
        check_degree(degree)
        gens = []
        for g in generators:
            g = Permutation(g)
            if len(g) != degree:
                raise ValueError(
                    f"generator degree {len(g)} does not match group degree {degree}"
                )
            gens.append(g)
        return cls("generated", degree, gens, name=name)

    @classmethod
    def direct_product(cls, groups, name=None) -> "FiniteGroup":
        groups = tuple(groups)
        if not groups:
            raise ValueError("direct product needs at least one component")
        degree = sum(g.degree for g in groups)
        gens = []
        for i, g in enumerate(groups):
            before = sum(h.degree for h in groups[:i])
            after = degree - before - g.degree
            for gen in g.generators:
                embedded = direct_sum(direct_sum(identity(before), gen), identity(after))
                gens.append(embedded)
        return cls("product", degree, gens, name=name, components=groups)

    def _default_name(self):
        if self.kind == "symmetric":
            return f"S{self.degree}"
        if self.kind == "alternating":
            return f"A{self.degree}"
        if self.kind == "product":
            return "x".join(c.name for c in self.components)
        return f"G{self.degree}<{len(self.generators)} gens>"

    def __repr__(self):
        return f"FiniteGroup({self.name}, kind={self.kind}, degree={self.degree})"

    # -- enumeration ------------------------------------------------------

    def identity(self) -> Permutation:
        return identity(self.degree)

    def order(self, cap: int = DEFAULT_ELEMENT_CAP) -> int:
        """|G|, past the same cap check as ``elements``.  Structural (m!, m!/2)
        for S_m and A_m; a direct product multiplies its component orders, so
        it is refused before any of its elements is formed."""
        m = self.degree
        if self.kind == "symmetric":
            _check_factorial_cap(m, 1, cap, self.name)
            return factorial(m)
        if self.kind == "alternating":
            _check_factorial_cap(m, 2, cap, self.name)
            return factorial(m) // 2 if m >= 2 else 1
        if self.kind == "product":
            size = prod(c.order(cap) for c in self.components)
            if size > cap:
                raise CapExceeded(f"{self.name} enumeration passed cap {cap}")
            return size
        return len(self.elements(cap))

    def elements(self, cap: int | None = None) -> tuple[Permutation, ...]:
        """All elements in canonical order; raises CapExceeded past the cap.

        A group not yet listed is listed under ``cap``, or under
        ``DEFAULT_ELEMENT_CAP`` when none is given.  A listed group is
        checked only against a given cap, from its stored size, with the
        message a fresh group gives; so a caller that lists a group under
        its own cap reads it afterwards with no cap at all.
        """
        if self._elements is None:
            limit = DEFAULT_ELEMENT_CAP if cap is None else cap
            self._elements = _canonical_order(self._enumerate(limit), self.degree)
        elif cap is not None and len(self._elements) > cap:
            if self.kind == "generated":
                raise _closure_refusal(self.name, cap)
            self.order(cap)  # refuses S_m, A_m and products as _enumerate does
        return self._elements

    def element_set(self) -> frozenset:
        if self._element_set is None:
            self._element_set = frozenset(self.elements())
        return self._element_set

    def iter_elements(self):
        """Every element once, for a scan whose outcome does not depend on order.

        ``S_m`` and ``A_m`` come in lexicographic image order from a
        re-iterable view that generates them afresh on each ``iter()`` and
        never lists them; any other group gives its canonical ``elements``.
        The default cap is checked against the order first either way.
        """
        self.order()
        if self.kind in ("symmetric", "alternating"):
            return _Lexicographic(self.degree, even=self.kind == "alternating")
        return self.elements()

    def _enumerate(self, cap):
        if self.kind == "generated":
            return _closure(self.generators, self.degree, cap, self.name)
        self.order(cap)  # refuses S_m, A_m and products before any element is formed
        if self.kind == "product":
            lists = [c.elements(cap) for c in self.components]
            return [reduce(direct_sum, combo) for combo in iter_product(*lists)]
        return list(_lexicographic(self.degree, even=self.kind == "alternating"))

    def __contains__(self, x) -> bool:
        """Membership; structural for S_m and A_m, which are never enumerated here."""
        if not isinstance(x, Permutation) or len(x) != self.degree:
            return False
        if self.kind == "symmetric":
            return set(x) == set(range(self.degree))
        if self.kind == "alternating":
            return set(x) == set(range(self.degree)) and is_even(x)
        return x in self.element_set()

    # -- conjugacy classes -------------------------------------------------

    def conjugacy_classes(self):
        """Partition into classes; each is a frozenset, ordered by least rep."""
        if self._classes is None:
            els = self.elements()
            gens = self.generators or (self.identity(),)
            index = {}
            classes = []
            reps = []
            for x in els:  # canonical order, so reps are canonical minima
                if x in index:
                    continue
                orbit = {x}
                frontier = [x]
                while frontier:
                    nxt = []
                    for y in frontier:
                        for g in gens:
                            z = conjugate(y, g)
                            if z not in orbit:
                                orbit.add(z)
                                nxt.append(z)
                    frontier = nxt
                ci = len(classes)
                classes.append(frozenset(orbit))
                reps.append(x)
                for y in orbit:
                    index[y] = ci
            self._classes = tuple(classes)
            self._class_index = index
            self._class_reps = tuple(reps)
        return self._classes

    def class_of(self, x: Permutation) -> frozenset:
        """Full conjugacy class {g^-1 x g : g in G}; raises if x outside G."""
        if x not in self:
            raise ValueError(f"{x!r} is not an element of {self.name}")
        classes = self.conjugacy_classes()
        return classes[self._class_index[x]]

    def class_index_of(self, x: Permutation) -> int:
        return self.class_map()[x]

    def class_map(self) -> dict:
        """Element -> class index; a raw image tuple indexes it too."""
        self.conjugacy_classes()
        return self._class_index

    def positions(self) -> dict:
        """Element -> index in canonical order, memoized; a raw image tuple
        indexes it too."""
        if self._positions is None:
            self._positions = {x: i for i, x in enumerate(self.elements())}
        return self._positions

    def _centralizer(self, index: int) -> tuple:
        """(g, g^-1) for each g commuting with the representative of class
        ``index``, memoized."""
        out = self._centralizers.get(index)
        if out is None:
            rep = self._class_reps[index]
            p = next(i for i, j in enumerate(rep) if i != j)  # rep is not central
            q = rep[p]
            out = tuple(
                (g, g.inverse())
                for g in self._elements  # listed with the partition
                if g[q] == rep[g[p]] and commutes(rep, g)  # at p first, a cheap test
            )
            self._centralizers[index] = out
        return out

    def class_representative(self, index: int) -> Permutation:
        self.conjugacy_classes()
        return self._class_reps[index]

    def class_product(self, i: int, j: int) -> frozenset:
        """Class indices of K_i K_j (= K_j K_i: class sums are central), memoized.

        Each class of the product holds some x * rep(K_j) with x in K_i, and
        some rep(K_i) * y with y in K_j; the smaller class is iterated.
        """
        key = (i, j) if i <= j else (j, i)
        out = self._class_products.get(key)
        if out is None:
            classes = self.conjugacy_classes()
            index, reps = self._class_index, self._class_reps
            if len(classes[i]) <= len(classes[j]):
                out = frozenset(index[x * reps[j]] for x in classes[i])
            else:
                out = frozenset(index[reps[i] * y] for y in classes[j])
            self._class_products[key] = out
        return out


class _Lexicographic:
    """The elements of ``S_m``, or of ``A_m`` when ``even``, in lexicographic
    image order; each ``iter()`` generates them afresh, so the view can be
    scanned any number of times without being listed."""

    __slots__ = ("degree", "even")

    def __init__(self, degree, even):
        self.degree = degree
        self.even = even

    def __iter__(self):
        return _lexicographic(self.degree, self.even)


def _lexicographic(m, even):
    """The elements of ``S_m``, or of ``A_m`` when ``even``, in lexicographic
    image order, generated lazily."""
    perms = iter_permutations(range(m))
    if not even or m < 2:
        return map(Permutation, perms)
    # Lexicographic order pairs up the permutations that share their
    # first m - 2 images, and exactly one of each pair is even.  The
    # first of a pair has the head's Lehmer code padded with zeros,
    # and a permutation is even iff its Lehmer code sums to even.
    codes = iter_product(*map(range, range(m, 2, -1)))
    return (Permutation(pair[sum(code) % 2]) for pair, code in zip(zip(perms, perms), codes))


def _transposition(m, i, j):
    images = list(range(m))
    images[i], images[j] = images[j], images[i]
    return Permutation(images)


def _cycle(m, points):
    images = list(range(m))
    for k, p in enumerate(points):
        images[p] = points[(k + 1) % len(points)]
    return Permutation(images)


def _canonical_order(els, degree) -> tuple[Permutation, ...]:
    """``sorted(els, key=Permutation.sort_key)`` without a key per element.

    Elements with equal support share a fixed-point indicator (one byte per
    point, 1 where fixed).  At equal support size, supports compare as the
    indicators do: at the first point where they differ, the support that
    moves it is the smaller one.  So the buckets are ordered by (support
    size, indicator) and each bucket by its images.
    """
    points = range(degree)
    buckets = {}
    for p in els:
        fixed = bytes(map(eq, p, points))
        bucket = buckets.get(fixed)
        if bucket is None:
            buckets[fixed] = [p]
        else:
            bucket.append(p)
    out = []
    for fixed in sorted(buckets, key=lambda b: (degree - sum(b), b)):
        out.extend(sorted(buckets[fixed]))
    return tuple(out)


def _check_factorial_cap(m, divisor, cap, name):
    size = 1
    for k in range(2, m + 1):
        size *= k
        if size // divisor > cap:
            raise CapExceeded(f"{name} has more than {cap} elements")


def _closure(generators, degree, cap, name):
    start = identity(degree)
    seen = {start}
    frontier = [start]
    gens = [Permutation(g) for g in generators]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    if len(seen) > cap:
                        raise _closure_refusal(name, cap)
                    nxt.append(y)
        frontier = nxt
    return list(seen)


def _closure_refusal(name, cap):
    return CapExceeded(f"closure of {name} passed the element cap {cap}")


def cyclic(k: int, name=None) -> FiniteGroup:
    """Z/k realized as the rotation closure on k points."""
    if k < 1:
        raise ValueError("cyclic order must be >= 1")
    if k == 1:
        return FiniteGroup.generated(1, [], name=name or "Z1")
    check_degree(k)
    gen = Permutation(tuple(range(1, k)) + (0,))
    return FiniteGroup.generated(k, [gen], name=name or f"Z{k}")


# --- consequence sets --------------------------------------------------------


class ConsequenceSet(Record):
    """Exact-depth n-fold product of conjugates of a base set (or inverses).

    ``class_layers[j-1]`` holds the class indices of the depth-j set; the
    element views, formed when read, are ``layers`` and ``elements`` (depth n).
    The cumulative union over depths 1..n is reported separately because
    exact depth surfaces parity artifacts that the union would hide.
    """

    group: FiniteGroup
    base: frozenset
    depth: int
    class_layers: tuple[frozenset, ...]

    def _union(self, class_indices) -> frozenset:
        classes = self.group.conjugacy_classes()
        return frozenset().union(*(classes[ci] for ci in class_indices))

    @property
    def layers(self) -> tuple[frozenset, ...]:
        return tuple(map(self._union, self.class_layers))

    @property
    def elements(self) -> frozenset:
        return self._union(self.class_layers[-1])

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        classes = self.group.conjugacy_classes()
        return tuple(sum(len(classes[ci]) for ci in l) for l in self.class_layers)

    @property
    def cumulative(self) -> frozenset:
        return self._union(frozenset().union(*self.class_layers))


def _letter_class_indices(G: FiniteGroup, X) -> tuple[int, ...]:
    """Class indices of the letter alphabet: conjugates of x or x^-1, x in X."""
    idx = set()
    for x in X:
        x = Permutation(x)
        if x not in G:
            raise ValueError(f"{x!r} is not an element of {G.name}")
        idx.add(G.class_index_of(x))
        idx.add(G.class_index_of(x.inverse()))
    return tuple(sorted(idx))


def iter_class_layers(letters, step):
    """Yield (depth, frozenset of class indices) for depths 1, 2, ...

    Layer 1 holds the letter classes and ``step`` takes each layer to the
    next: the classes of its product with the letters.  Stops once
    consecutive layers repeat with period two, after which no new class can
    ever appear (with letters closed under inverses, depth-n sets grow
    monotonically in steps of two and are bounded by the group).
    """
    layer = frozenset(letters)
    prev = None  # layer two steps back
    depth = 0
    while True:
        depth += 1
        yield depth, layer
        nxt = step(layer)
        if prev is not None and nxt == prev:
            # period-two fixed point: layers now alternate forever
            yield depth + 1, nxt
            return
        prev = layer
        layer = nxt


def iter_consequence_class_layers(G: FiniteGroup, X):
    """``iter_class_layers`` of C_n(X, G), each step a union of class products."""
    G.conjugacy_classes()
    letters = _letter_class_indices(G, X)
    if not letters:
        return

    def step(layer):
        return frozenset().union(*(G.class_product(a, c) for a in letters for c in layer))

    yield from iter_class_layers(letters, step)


def exact_depth_layers(layers, n: int) -> tuple[frozenset, ...]:
    """The layers at depths 1..n from the (depth, layer) pairs of
    ``iter_class_layers``; all empty if there are none.

    Past the period-two fixed point where those stop, the layers alternate,
    so they are padded from two depths back.
    """
    if n < 1:
        raise ValueError("depth must be >= 1")
    class_layers = []
    for depth, layer in layers:
        class_layers.append(layer)
        if depth == n:
            break
    if not class_layers:
        return (frozenset(),) * n
    while len(class_layers) < n:
        class_layers.append(class_layers[-2])
    return tuple(class_layers)


def consequence_class_layers(G: FiniteGroup, X, n: int) -> tuple[frozenset, ...]:
    """Class indices of the exact-depth layers 1..n of C_j(X, G); all empty if X is."""
    return exact_depth_layers(iter_consequence_class_layers(G, X), n)


def consequences(G: FiniteGroup, X, n: int) -> ConsequenceSet:
    """Exact-depth consequence set C_n(X, G); C_n(empty, G) is empty.

    If the identity is a member of X the layers are cumulative (the
    identity letter pads shorter products up to depth n).
    """
    base = frozenset(Permutation(x) for x in X)
    layers = consequence_class_layers(G, base, n)
    return ConsequenceSet(group=G, base=base, depth=n, class_layers=layers)


def class_first_depths(layers) -> dict:
    """First depth at which each conjugacy class enters, read off the
    (depth, layer) pairs of ``iter_class_layers``.

    Those run until the layers stabilize, so absent classes are absent forever.
    """
    first = {}
    for depth, layer in layers:
        for ci in layer:
            first.setdefault(ci, depth)
    return first


def min_consequence_depth(G: FiniteGroup, X, y: Permutation, max_n: int) -> int | None:
    """Least depth n <= max_n with y in C_n(X, G); None when not reached.

    Layer growth is eventually periodic with period two, so the scan also
    stops early once no new class can ever appear; a None verdict then
    holds for every depth, not just max_n.
    """
    y = Permutation(y)
    if y not in G:
        raise ValueError(f"{y!r} is not an element of {G.name}")
    target = G.class_index_of(y)
    for depth, layer in iter_consequence_class_layers(G, X):
        if depth > max_n:
            return None
        if target in layer:
            return depth
    return None


class SeparationReport(Record):
    """Verdict of the query "is Y disjoint from C_n(X, G)?".

    ``separated`` refers to the exact depth n; ``violated_depths`` lists
    every depth j <= n whose layer meets Y, so the cumulative verdict is
    ``not violated_depths``.  The witness is the canonically least element
    of the depth-n intersection when there is one.
    """

    separated: bool
    depth: int
    witness: Permutation | None
    violated_depths: tuple[int, ...]

    @property
    def verdict(self) -> str:
        return "separated" if self.separated else "violated"

    @property
    def cumulative_separated(self) -> bool:
        return not self.violated_depths


def is_n_separated(G: FiniteGroup, Y, X, n: int) -> SeparationReport:
    """Check Y against the depth-n consequence set of X in G."""
    y_set = frozenset(Permutation(y) for y in Y)
    for y in y_set:
        if y not in G:
            raise ValueError(f"{y!r} is not an element of {G.name}")
    cons = consequences(G, X, n)
    class_of = G.class_map()
    y_classes = {y: class_of[y] for y in y_set}
    layers = cons.class_layers
    violated = tuple(
        j for j, layer in enumerate(layers, start=1) if not layer.isdisjoint(y_classes.values())
    )
    hits = [y for y, ci in y_classes.items() if ci in layers[-1]]
    witness = min(hits, key=Permutation.sort_key) if hits else None
    return SeparationReport(
        separated=not hits,
        depth=n,
        witness=witness,
        violated_depths=violated,
    )


# --- quotients ---------------------------------------------------------------


def quotient(G: FiniteGroup, N):
    """Quotient G/N realized by the right coset action, plus the quotient map.

    N must be a normal subgroup given as an element set.  The returned
    group is a generated permutation group on the coset space, and the map
    is a dict sending each element of G to its image permutation.
    """
    n_set = frozenset(Permutation(x) for x in N)
    els = G.elements()
    if G.identity() not in n_set or not n_set <= G.element_set():
        raise ValueError("N is not a subgroup of G containing the identity")
    for x in n_set:
        if x.inverse() not in n_set:
            raise ValueError("N is not closed under inverses")
        for y in n_set:
            if x * y not in n_set:
                raise ValueError("N is not closed under products")
        for g in G.generators:
            if conjugate(x, g) not in n_set:
                raise ValueError("N is not normal in G")
    cosets = []
    coset_of = {}
    for x in els:
        if x in coset_of:
            continue
        coset = frozenset(y * x for y in n_set)
        ci = len(cosets)
        cosets.append(coset)
        for y in coset:
            coset_of[y] = ci
    k = len(cosets)
    reps = [min(c, key=lambda p: p.sort_key()) for c in cosets]
    qmap = {}
    for x in els:
        images = tuple(coset_of[reps[i] * x] for i in range(k))
        qmap[x] = Permutation(images)
    gens = [qmap[g] for g in G.generators]
    Q = FiniteGroup.generated(k, gens, name=f"{G.name}/N")
    return Q, qmap
