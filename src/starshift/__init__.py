"""Binary-code group shifts: exact window engines, annihilator ideals,
and machine verification of a non-affine commuting symmetry."""

from .codes import (
    BinaryCode,
    NondegeneracyCertificate,
    code_from_generators,
    contains_all_ones,
    direct_sum,
    dual,
    even_weight_code,
    full_code,
    hamming8_code,
    is_integrally_nondegenerate,
    is_self_orthogonal,
    is_subcode,
    nondegeneracy_witness,
    parse_generator_file,
    render_generator_file,
    repetition_code,
    star_closure_check,
    support_sum,
    weight_class,
)
from .errors import (
    CodeFileError,
    DegenerateCodeError,
    GuardExceededError,
    UnsupportedDimensionError,
)
from .gf2 import F2Matrix, F2Vector
from .laurent import (
    LaurentPoly,
    LinearFormIdeal,
    annihilator_ideal,
    collapse_to_univariate,
    entropy_verdict,
    ideal_contains,
    linear_form,
    membership_cofactors,
    mixing_certificate,
    verify_cofactors,
)
from .rigidity import (
    TripleConfig,
    TripleSystem,
    VerificationReport,
    construct_system,
    non_affine_witness,
    run_full_verification,
    second_difference,
    shear,
    verify_dynamics,
    verify_premises,
)
from .windows import (
    Box,
    WindowConfig,
    WindowSpace,
    apply_poly,
    build_window_space,
    contains,
    cube,
    entropy_profile,
    log2_count,
    restrict,
    sample,
    shift_restrict,
    star,
)

__version__ = "0.1.0"
