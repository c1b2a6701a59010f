"""Many-valued logic on the divisibility lattice of natural numbers.

Naturals ordered by divisibility form a lattice with meet = gcd and
join = lcm.  Every divisibility interval [bottom, top] is a finite
Heyting algebra with closed-form negation and implication, and it is
Boolean exactly when no prime exponent gap between bottom and top
exceeds one.  This package provides the arithmetic, the interval
algebra, a small propositional language interpreted over intervals,
and brute-force verifiers for the algebraic laws.
"""

from .errors import (
    DivlogError,
    EnumerationLimit,
    FactorizationLimit,
    FormulaSyntaxError,
    InvalidInterval,
    NestingLimit,
    NoGreatestElement,
    NotBoolean,
    NotMember,
    NotNatural,
    PreconditionViolated,
    SearchLimit,
    UnboundVariable,
)
from .factorization import (
    DEFAULT_FACTOR_LIMIT,
    as_natural,
    divides,
    factorize,
    is_prime,
    primes_up_to,
    reconstruct,
)
from .formulas import (
    DEFAULT_SEARCH_CAP,
    BOTTOM,
    TOP,
    And,
    Bottom,
    Counterexample,
    Formula,
    Imp,
    Lit,
    Not,
    Or,
    Top,
    Var,
    check_valid,
    evaluate,
    format_formula,
    parse,
    variables,
)
from .intervals import DEFAULT_ENUMERATION_CAP, Interval
from .lattice import join, meet, meet_euclid, projective_identity_holds
from .oracle import (
    LawReport,
    oracle_imp,
    oracle_neg,
    verify_heyting,
    verify_lattice_laws,
    verify_projective,
)

__version__ = "0.1.0"

__all__ = [
    "DivlogError",
    "EnumerationLimit",
    "FactorizationLimit",
    "FormulaSyntaxError",
    "InvalidInterval",
    "NestingLimit",
    "NoGreatestElement",
    "NotBoolean",
    "NotMember",
    "NotNatural",
    "PreconditionViolated",
    "SearchLimit",
    "UnboundVariable",
    "DEFAULT_FACTOR_LIMIT",
    "as_natural",
    "divides",
    "factorize",
    "is_prime",
    "primes_up_to",
    "reconstruct",
    "DEFAULT_SEARCH_CAP",
    "BOTTOM",
    "TOP",
    "And",
    "Bottom",
    "Counterexample",
    "Formula",
    "Imp",
    "Lit",
    "Not",
    "Or",
    "Top",
    "Var",
    "check_valid",
    "evaluate",
    "format_formula",
    "parse",
    "variables",
    "DEFAULT_ENUMERATION_CAP",
    "Interval",
    "join",
    "meet",
    "meet_euclid",
    "projective_identity_holds",
    "LawReport",
    "oracle_imp",
    "oracle_neg",
    "verify_heyting",
    "verify_lattice_laws",
    "verify_projective",
    "__version__",
]
