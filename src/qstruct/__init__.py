"""qstruct: exact q-calculus toolkit.

Askey-Wilson divided-difference and averaging operators over exact
rationals, generators for the q-Hermite, Al-Salam-Chihara, Chebyshev
(first kind), and continuous q-Jacobi families, structure-relation fitting
pi(x) D_q P_n = (a_n x + b_n) P_n + c_n P_{n-1}, and classification of
arbitrary three-term recurrences against those families.
"""

__version__ = "0.1.0"

from qstruct.scalar import QContext, format_rational, parse_rational
from qstruct.poly import Poly, from_cheb, to_cheb
from qstruct.awops import dq_apply, sq_apply
from qstruct.families import (
    FamilySpec,
    IrregularParameters,
    MomentVector,
    OPSTable,
    TTRRSpec,
    generate_ops,
    moments,
    ttrr_alsalam_chihara,
    ttrr_chebyshev_t,
    ttrr_cq_jacobi,
    ttrr_qhermite,
)
from qstruct.structure import (
    FiveTermExpansion,
    StructureFit,
    fit_auto,
    fit_structure,
    five_term,
    verify_structure,
)
from qstruct.characterize import (
    AuxSequences,
    Classification,
    PearsonData,
    aux_sequences,
    classify,
    lemma_predicates,
    pearson_check,
    pearson_data,
    recover_asc_params,
    recover_qjacobi_params,
    verify_difference_system,
)

__all__ = [
    "__version__",
    "QContext",
    "parse_rational",
    "format_rational",
    "Poly",
    "to_cheb",
    "from_cheb",
    "dq_apply",
    "sq_apply",
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
    "StructureFit",
    "FiveTermExpansion",
    "fit_structure",
    "fit_auto",
    "verify_structure",
    "five_term",
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
]
