"""Fibonacci word combinatorics with exact golden-ratio arithmetic.

Finite words and morphisms, the mechanical (Beatty) construction of the
Fibonacci word, derived word families over {a,b}, formal sums in Z<a,b>,
and a verifier that adjudicates quantitative claims about all of these
with exact witnesses.
"""

__version__ = "0.1.0"

# The public names, each under the module that defines it.  `import fibword`
# loads no submodule: `__getattr__` (PEP 562) imports a name's module on first
# use, so a CLI request imports only the layers it runs.
_EXPORTS = {
    "claimresult": "REFUTED VERIFIED ClaimResult",
    "claims": "ALL_CLAIM_IDS Budgets alpha_identity_check check_pow_invariance "
    "morphic_mechanical_agree run_all_claims run_claims verify_beatty_partition",
    "derived": "DensityRow density_table df_density fib_word_ab letter_counts_closed_form "
    "letter_densities q_word y_word",
    "freealg": "AlgebraElement alg_add alg_mul alg_scalar pow_fib",
    "goldenexact": "INV_PHI INV_PHI_SQUARED PHI PHI_BAR SQRT5 Surd ZeckendorfRep beatty_phi "
    "beatty_phi2 fib fraction_decimal isqrt lucas surd_decimal zeckendorf_decode zeckendorf_encode",
    "mechanical": "DensityReport count_ones_upto density_report max_discrepancy mechanical_prefix",
    "morphism": "Morphism apply fibonacci_morphism fixed_point_prefix is_prolongable mortal_letters",
    "words": "AB BINARY Alphabet Word ab_word binary_word factor_set ultrametric_distance",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value
