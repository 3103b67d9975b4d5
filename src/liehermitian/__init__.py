"""Left-invariant Hermitian geometry from structure constants.

The package computes torsion, canonical connections and Chern curvature
of a left-invariant Hermitian metric presented through the structure
constants of a unitary frame, decides the standard metric conditions,
and classifies two solvable families through explicit normal forms.
"""

__version__ = "1.0.0"

from .errors import (
    LieHermitianError,
    IndexOutOfRange,
    DuplicateEntry,
    AntisymmetryViolation,
    DimensionMismatch,
    NotUnitary,
    InvalidDegree,
    InvalidAlgebra,
    PatternMismatch,
    IntegrabilityViolation,
    NegativeLambda,
    ParameterDomain,
    NotUnimodular,
    CrossCheckFailure,
    NotAstheno,
    NonFiniteValue,
    ParseError,
)
from .algebra import (
    Algebra,
    make_algebra,
    build_general,
    change_frame,
    check_unitary,
    default_tolerance,
    is_nilpotent,
    lower_central_dims,
    max_abs,
    unimodularity_defect,
)
from .hermitian import (
    bismut_connection,
    bismut_ricci_blocks,
    bismut_ricci_form,
    bismut_trace_form,
    chern_connection,
    chern_curvature,
    chern_ricci_form,
    chern_scalar,
    chern_torsion,
    chern_trace_form,
    curvature_hermitian_residual,
    property_report,
    ricci_first,
    ricci_second,
    ricci_third,
    scalar_identity_residuals,
    skt_tensor,
    torsion_bianchi_residual,
    torsion_trace,
)
from .forms import (
    exterior_d,
    partial_d,
    partial_dbar,
    kaehler_power,
    del_delbar_residual,
)
from .almost_abelian import (
    AlmostAbelianData,
    aa_report,
    aa_residuals,
    aa_astheno_profile,
    build_almost_abelian,
    extract_almost_abelian,
)
from .codim2 import (
    Codim2Data,
    btpv0_obstruction,
    build_codim2,
    c2_btp_residuals,
    c2_report,
    c2_residuals,
    c2_scalars,
    chern_flat_normal_form,
    classify_btp,
    extract_codim2,
    from_almost_abelian,
    integrability_residuals,
    make_btpv0,
    make_btpv1,
    make_btpv2,
    rotate_codim2,
)
from .serial import (
    canonical_json,
    load_spec,
    materialize,
    spec_from_data,
    validate_spec,
)


def __getattr__(name):
    # the battery loads on first use, so importing the package (and the
    # check, classify and tensors commands) compiles neither verify nor
    # sampling
    if name == "run_battery":
        from .verify import run_battery
        return run_battery
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
