"""Differential tests: the memoized class-product kernel against the
element-loop engine it replaced (the oracles in conftest.py)."""

from functools import lru_cache

import pytest
from conftest import (
    element_class_power,
    element_class_product,
    element_consequence_class_layers,
    element_covering_constant,
    enumerated_alternating,
)

from groupapprox.characters import alternating_table
from groupapprox.coverage import empirical_covering_constant
from groupapprox.groups import (
    FiniteGroup,
    cyclic,
    exact_depth_layers,
    iter_class_layers,
    iter_consequence_class_layers,
)
from groupapprox.perm import parse_cycles


def _z3_x_k4():
    k4 = FiniteGroup.generated(
        4, [parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)], name="K4"
    )
    return FiniteGroup.direct_product([cyclic(3), k4])


GROUPS = {
    **{f"A{m}": (lambda m=m: enumerated_alternating(m)[0]) for m in (5, 6, 7, 8)},
    **{f"S{m}": (lambda m=m: FiniteGroup.symmetric(m)) for m in (4, 5, 6)},
    "Z3xK4": _z3_x_k4,
}


@lru_cache(maxsize=None)
def _group_and_oracle(name):
    """The group plus the element-loop pair kernel, each pair formed once."""
    G = GROUPS[name]()
    G.conjugacy_classes()
    return G, lru_cache(maxsize=None)(lambda a, c: element_class_product(G, a, c))


@pytest.fixture(params=sorted(GROUPS))
def group(request):
    return _group_and_oracle(request.param)


def test_representatives_are_class_minima(group):
    G, _ = group
    for i, K in enumerate(G.conjugacy_classes()):
        assert G.class_representative(i) == min(K, key=lambda p: p.sort_key())


def test_class_product_matches_element_loop_on_every_pair(group):
    G, oracle = group
    k = len(G.conjugacy_classes())
    for i in range(k):
        for j in range(k):
            assert G.class_product(i, j) == oracle(i, j), (G.name, i, j)


def test_layers_and_class_powers_match_element_loop(group):
    """Consequence layers on every group; on A_m also the fourth class
    powers, which ``coverage`` reads off the character table."""
    G, oracle = group
    table = alternating_table(G.degree) if G.kind == "alternating" else None
    for i in range(len(G.conjugacy_classes())):
        X = (G.class_representative(i),)
        assert list(iter_consequence_class_layers(G, X)) == list(
            element_consequence_class_layers(G, X, oracle)
        )
        if table is not None:
            power = exact_depth_layers(iter_class_layers((i,), table.step((i,))), 4)[-1]
            assert power == element_class_power(G, i, 4, oracle)


@pytest.mark.parametrize("m", [5, 6])
def test_covering_tables_match_element_loop(m):
    assert empirical_covering_constant(m) == element_covering_constant(m)


def test_class_products_are_memoized_symmetrically():
    G = FiniteGroup.alternating(5)
    G.conjugacy_classes()
    first = G.class_product(1, 2)
    assert G.class_product(2, 1) is first
