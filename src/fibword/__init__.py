"""Fibonacci word combinatorics with exact golden-ratio arithmetic.

Finite words and morphisms, the mechanical (Beatty) construction of the
Fibonacci word, derived word families over {a,b}, formal sums in Z<a,b>,
and a verifier that adjudicates quantitative claims about all of these
with exact witnesses.
"""

__version__ = "0.1.0"

from .claimresult import REFUTED, VERIFIED, ClaimResult
from .claims import ALL_CLAIM_IDS, Budgets, run_all_claims, run_claims
from .derived import (
    DensityRow,
    density_table,
    df_density,
    fib_word_ab,
    letter_counts_closed_form,
    letter_densities,
    q_word,
    y_word,
)
from .freealg import (
    AlgebraElement,
    alg_add,
    alg_mul,
    alg_scalar,
    alpha_identity_check,
    check_pow_invariance,
    pow_fib,
)
from .goldenexact import (
    INV_PHI,
    INV_PHI_SQUARED,
    PHI,
    PHI_BAR,
    SQRT5,
    Surd,
    ZeckendorfRep,
    beatty_phi,
    beatty_phi2,
    fib,
    fraction_decimal,
    isqrt,
    lucas,
    surd_decimal,
    zeckendorf_decode,
    zeckendorf_encode,
)
from .mechanical import (
    DensityReport,
    count_ones_upto,
    density_report,
    max_discrepancy,
    mechanical_prefix,
    morphic_mechanical_agree,
    verify_beatty_partition,
)
from .morphism import (
    Morphism,
    apply,
    fibonacci_morphism,
    fixed_point_prefix,
    is_prolongable,
    mortal_letters,
)
from .words import (
    AB,
    BINARY,
    Alphabet,
    Word,
    ab_word,
    binary_word,
    factor_set,
    ultrametric_distance,
)

__all__ = [
    "AB", "ALL_CLAIM_IDS", "AlgebraElement", "Alphabet", "BINARY", "Budgets", "ClaimResult",
    "DensityReport", "DensityRow", "INV_PHI", "INV_PHI_SQUARED", "Morphism",
    "PHI", "PHI_BAR", "REFUTED", "SQRT5", "Surd", "VERIFIED", "Word", "ZeckendorfRep", "ab_word",
    "alg_add", "alg_mul", "alg_scalar", "alpha_identity_check", "apply", "beatty_phi",
    "beatty_phi2", "binary_word", "check_pow_invariance", "count_ones_upto", "density_report",
    "density_table", "df_density", "factor_set", "fib", "fib_word_ab", "fibonacci_morphism",
    "fixed_point_prefix", "fraction_decimal", "is_prolongable", "isqrt",
    "letter_counts_closed_form", "letter_densities", "lucas", "max_discrepancy",
    "mechanical_prefix", "morphic_mechanical_agree", "mortal_letters", "pow_fib", "q_word",
    "run_all_claims", "run_claims", "surd_decimal", "ultrametric_distance",
    "verify_beatty_partition", "y_word", "zeckendorf_decode", "zeckendorf_encode",
]
