"""qstruct: exact q-calculus toolkit.

Askey-Wilson divided-difference and averaging operators over exact
rationals, generators for the q-Hermite, Al-Salam-Chihara, Chebyshev
(first kind), and continuous q-Jacobi families, structure-relation fitting
pi(x) D_q P_n = (a_n x + b_n) P_n + c_n P_{n-1}, and classification of
arbitrary three-term recurrences against those families.

The names below are imported from their layer on first access (PEP 562),
so `import qstruct` loads no layer and a process pays only for the layers
it reads.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "scalar": ("QContext", "parse_rational", "format_rational"),
    "poly": ("Poly", "to_cheb", "from_cheb"),
    "awops": ("dq_apply", "sq_apply"),
    "families": (
        "TTRRSpec",
        "OPSTable",
        "MomentVector",
        "FamilySpec",
        "IrregularParameters",
        "ttrr_qhermite",
        "ttrr_alsalam_chihara",
        "ttrr_chebyshev_t",
        "ttrr_cq_jacobi",
        "generate_ops",
        "moments",
    ),
    "structure": (
        "StructureFit",
        "FiveTermExpansion",
        "fit_structure",
        "fit_auto",
        "verify_structure",
        "five_term",
    ),
    "characterize": (
        "AuxSequences",
        "PearsonData",
        "Classification",
        "aux_sequences",
        "pearson_data",
        "pearson_check",
        "verify_difference_system",
        "lemma_predicates",
        "recover_asc_params",
        "recover_qjacobi_params",
        "classify",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
