"""Many-valued logic on the divisibility lattice of natural numbers.

Naturals ordered by divisibility form a lattice with meet = gcd and
join = lcm.  Every divisibility interval [bottom, top] is a finite
Heyting algebra with closed-form negation and implication, and it is
Boolean exactly when no prime exponent gap between bottom and top
exceeds one.  This package provides the arithmetic, the interval
algebra, a small propositional language interpreted over intervals,
and brute-force verifiers for the algebraic laws.

Importing the package loads none of its submodules.  Each public name
is resolved on first use: the module ``__getattr__`` imports the name's
home submodule and keeps the value here, so later lookups are plain
attribute hits.
"""

import importlib

__version__ = "0.1.0"

# home submodule -> the public names it defines
_HOMES = {
    "errors": (
        "DivlogError", "EnumerationLimit", "FactorizationLimit", "FormulaSyntaxError",
        "InvalidInterval", "NestingLimit", "NoGreatestElement", "NotBoolean", "NotMember",
        "NotNatural", "PreconditionViolated", "SearchLimit", "UnboundVariable",
    ),
    "factorization": (
        "DEFAULT_FACTOR_LIMIT", "as_natural", "divides", "factorize", "is_prime",
        "primes_up_to", "reconstruct",
    ),
    "formulas": (
        "DEFAULT_SEARCH_CAP", "BOTTOM", "TOP", "And", "Bottom", "Counterexample", "Formula",
        "Imp", "Lit", "Not", "Or", "Top", "Var", "check_valid", "evaluate", "format_formula",
        "parse", "variables",
    ),
    "intervals": ("DEFAULT_ENUMERATION_CAP", "Interval"),
    "lattice": ("join", "meet", "meet_euclid", "projective_identity_holds"),
    "oracle": (
        "LawReport", "oracle_imp", "oracle_neg", "verify_heyting", "verify_lattice_laws",
        "verify_projective",
    ),
}
_HOME = {name: home for home, names in _HOMES.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
