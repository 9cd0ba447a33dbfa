"""Finite-group totient sums, power graphs, and exact verification.

The library computes the totient-sum invariant phi(G) = sum of
phi(order(g)) over a finite group, the rational invariant
Q(n) = prod (p+1)/(p-1) over the distinct primes of n, directed power
graphs with their undirected edge sets, Sylow subgroups, and a harness
that brute-force checks every related inequality over constructed groups
of small order.
"""

from .groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    GroupValidationError,
    NoIdentityError,
    NoInverseError,
    NotAssociativeError,
    NotClosedError,
    OrderCapError,
    SemidirectSpec,
    Subgroup,
    abelian,
    alternating,
    catalog,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    enumerate_semidirect_units,
    phi_of_group,
    semidirect_cyclic,
    symmetric,
)
from .numtheory import (
    Factorization,
    HypothesisViolation,
    factorize,
    first_primes,
    format_rational,
    is_prime,
    lemma_Q_bounds,
    lemma_n_geq_check,
    nth_prime,
    phi_cyclic_product,
    phi_cyclic_sum,
    q_of,
    q_of_primes,
    skip_primes,
    table1,
    totient,
)
from .powergraph import (
    PowerGraph,
    build,
    export_dot,
    export_json,
    undirected_degree,
    undirected_edge_count,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ORDER_CAP",
    "Factorization",
    "FiniteGroup",
    "GroupValidationError",
    "HypothesisViolation",
    "NoIdentityError",
    "NoInverseError",
    "NotAssociativeError",
    "NotClosedError",
    "OrderCapError",
    "PowerGraph",
    "SemidirectSpec",
    "Subgroup",
    "abelian",
    "alternating",
    "build",
    "catalog",
    "cyclic",
    "dicyclic",
    "dihedral",
    "direct_product",
    "enumerate_semidirect_units",
    "export_dot",
    "export_json",
    "factorize",
    "first_primes",
    "format_rational",
    "is_prime",
    "lemma_Q_bounds",
    "lemma_n_geq_check",
    "nth_prime",
    "phi_cyclic_product",
    "phi_cyclic_sum",
    "phi_of_group",
    "q_of",
    "q_of_primes",
    "semidirect_cyclic",
    "skip_primes",
    "symmetric",
    "table1",
    "totient",
    "undirected_degree",
    "undirected_edge_count",
]
