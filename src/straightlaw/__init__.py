"""Exact straightening of products of matrix minors into integer combinations
of standard monomials, with every identity certified against brute-force
polynomial expansion, plus an exact verifier for the linear independence of
standard monomials."""

from .indexsets import (
    EMPTY,
    IndexSet,
    complement,
    is_good,
    laplace_sign,
    leq,
    leq_pair,
    lt,
    multiset_content,
    subsets,
    subsets_between,
)
from .polynomials import (
    MONOMIAL_ONE,
    Polynomial,
    exponents,
    format_monomial,
    monomial,
    monomial_part,
    mul_monomials,
    variable_key,
    xvar,
    yvar,
    zvar,
)
from .bideterminants import (
    LaplaceCombination,
    Minor,
    RELATION_FAMILIES,
    WordCombination,
    canonicalize,
    check_relation,
    eval_on_permutation,
    expand_laplace,
    expand_minor,
    expand_word,
    laplace_expansion,
    relation_complementary,
    relation_family,
    relation_fundamental,
    relation_inclusion_exclusion,
)
from .straightening import (
    merge_map,
    straighten_laplace,
    straighten_pair,
)
from .standard import content, is_standard, normal_form
from .independence import (
    decode_leading,
    integer_rank,
    minor_leading_monomial,
    nonzero_minors,
    polynomial_rank,
    standard_words,
    verify_independence,
    verify_relation_completeness,
    word_leading_witness,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # The CLI module, and parse_expression from it, load on first use, so that
    # `python -m straightlaw.cli` does not find that module imported already.
    if name in ("cli", "parse_expression"):
        from importlib import import_module

        cli = import_module(".cli", __name__)
        return cli if name == "cli" else cli.parse_expression
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
