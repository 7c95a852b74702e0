"""Desk-scale workbench for finite-group approximation experiments."""

from .errors import BudgetExceeded, CapExceeded, ParseError, WorkbenchError
from .perm import (
    Permutation,
    conjugate,
    cycle_string,
    direct_sum,
    embed_sym_in_alt,
    hamming_length,
    identity,
    length_of_tensor_power,
    parity,
    parse_cycles,
    permutation,
    tensor_power,
)
from .groups import (
    ConsequenceSet,
    FiniteGroup,
    SeparationReport,
    consequences,
    cyclic,
    is_n_separated,
    min_consequence_depth,
    quotient,
)
from .lengths import (
    LengthFunction,
    ball,
    cayley_conjugation_length,
    from_table,
    hamming,
    verify_axioms,
)
from .coverage import (
    empirical_covering_constant,
    support_cover_sweep,
    verify_brenner_bound,
    verify_support_cover,
)
from .approximation import (
    Certificate,
    ConsequenceMode,
    MetricMode,
    Presentation,
    Window,
    check_consequence_instance,
    check_metric_instance,
    merge_homomorphisms,
    parse_presentation,
    search_separating_hom,
    search_sofic_instance,
)
from .equations import (
    EquationSystem,
    diagonal_embedding,
    parse_equation_system,
    solvable_in,
    solvable_over_bounded,
    sys_membership,
)

__version__ = "0.1.0"
