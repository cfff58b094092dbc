"""Exact commutative-algebra kernel: Groebner bases, colon ideals, Hilbert
functions, socles, and verifiers for colon-power ladders in Artinian
Gorenstein quotients, cross-checked by an independent linear-algebra oracle."""

from .errors import InternalError, ParseError, PreconditionError, UsageError
from .fields import QQ, PrimeField, RationalField, field_from_name
from .groebner import (
    Ideal,
    buchberger,
    ideal_equal,
    ideal_membership,
    normal_form,
    reduce_gb,
    s_polynomial,
)
from .hilbert import (
    HilbertTable,
    filtration_hilbert,
    graded_hilbert,
    is_symmetric,
    length_of_quotient,
    nilpotency_index,
)
from .ideal_ops import (
    QuotientRing,
    colon,
    colon_powers,
    ideal_intersect,
    ideal_power,
    ideal_product,
    ideal_sum,
    irrelevant_power,
    make_quotient,
    socle_quotient,
    unit_ideal,
    zero_ideal,
)
from .oracle import (
    Subspace,
    VectorSpaceModel,
    annihilator,
    build_model,
    oracle_filtration_hilbert,
    oracle_power,
    subspace_intersect,
    subspace_of_ideal,
)
from .poly import DegRevLex, Elim, Lex, Polynomial, Ring, compare, order_from_name
from .theorems import (
    EquivalenceReport,
    LadderReport,
    LadderRung,
    check_delta_identity,
    random_complete_intersection,
    storch_counterexample,
    storch_ideal,
    verify_corollary,
    verify_macaulay_ladder,
    verify_main_equivalence,
    verify_symmetry,
)

__version__ = "0.1.0"
