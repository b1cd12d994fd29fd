"""Exact exterior and Poisson calculus on polynomial models.

Everything is computed over the rationals with no floating point anywhere:
sparse polynomials, differential forms and multivector fields, constant
symplectic structures and their Poisson calculus, Lie algebroid axioms and
cohomology on finite truncations, Courant/Dirac checks, and a small
line-oriented modelling language with a CLI (``algebroid --help``).
"""

from algebroid.algebroids import (
    AlgebroidStructure,
    AxiomReport,
    ce_differential,
    ce_value,
    check_algebroid_axioms,
    contravariant_differential,
    cotangent_algebroid,
    tangent_algebroid,
)
from algebroid.cohomology import (
    AgreementReport,
    CohomologyReport,
    H1Report,
    TruncationSpec,
    casimir_space,
    check_lp_ce_agreement,
    compute_cohomology,
    h1_decomposition,
)
from algebroid.courant import (
    ComplementReport,
    DiracReport,
    DiracStructure,
    GeneralizedSection,
    check_courant_axioms,
    check_dirac,
    courant_bracket,
    delta_operator,
    dirac_algebroid,
    dorfman_bracket,
    orthogonal_complement,
    tm_pairing,
)
from algebroid.errors import (
    AlgebroidError,
    ArityError,
    DslError,
    GradeError,
    NotInvertible,
    TruncationTooLarge,
)
from algebroid.exterior import (
    KForm,
    KVector,
    de_rham,
    interior_product,
    lie_bracket,
    lie_derivative,
    schouten_bracket,
    vector_apply,
    wedge,
)
from algebroid.poly import Poly
from algebroid.sampling import monomials_up_to
from algebroid.symplectic import (
    ConstantSymplectic,
    WeakSymplecticReport,
    check_weak_symplectic,
    flat,
    hamiltonian_vf,
    induced_pairing,
    oneform_bracket,
    poisson_bracket,
    sharp,
)

__version__ = "0.1.0"
