"""Stability and hyperkahler-reduction workbench for linear torus actions.

A torus (C*)^k acts on C^n through integer weights; a rational character
theta fixes the stability condition and the moment-map level.  The package
decides stability exactly (by exact linear algebra, with linear programs
left only in the classifier of single points and supports), minimizes the
Kempf-Ness functional numerically, builds reduced metrics and Kahler forms
at moment-map zeros of the cotangent doubling, and enumerates candidate
strata of the resulting quotients.
"""

from .errors import (
    BoundExceededError,
    DimensionMismatchError,
    PreconditionError,
    UndecidedError,
)
from .git_stability import (
    StabilityVerdict,
    StabilizerInfo,
    StratumRecord,
    classify_point,
    classify_support,
    inclusion_maximal,
    kahler_strata,
    mu_weight,
    polystable_support,
    quotient_compact,
    quotient_smooth,
    semistable_support,
    semistable_supports,
    stabilizer,
    unstable_maximal_supports,
)
from .hk_reduction import (
    ReducedFrame,
    ambient_frame,
    ambient_potential_check,
    circle_action_check,
    frame_report_json,
    fubini_study_oracle,
    horizontal_frame,
    kahler_quotient_oracle,
    quaternion_check,
    reduced_form,
    reduced_metric,
    zero_section_check,
)
from .kempf_ness import (
    KNOutcome,
    instability_certificate,
    kn_value,
    solve_hyperkahler,
    solve_kahler,
)
from .moment_maps import (
    MomentValue,
    flow_tail,
    flow_trace,
    flow_value,
    hol_moment,
    j_mu_weight,
    mu,
    mu_hyperkahler,
    psi,
)
from .rep_core import (
    AmbientPoint,
    Cocharacter,
    CotangentPoint,
    WeightSystem,
    act_by_scale,
    act_imaginary,
    act_torus,
    apply_quaternion,
    cotangent_from_real,
    doubled_weights,
    support,
    weight_system_from_json,
    weight_system_to_json,
)
from .scalars import QC, PhasedComplex, parse_rational
from .strata_examples import (
    HKStratumCandidate,
    certify_stratum,
    hirzebruch_suite,
    hirzebruch_weight_system,
    hk_candidate_strata,
)


def __getattr__(name: str):
    # importlib.metadata is imported only when the version is asked for: it
    # costs about 1.75 MB of RSS in every process that imports hkquot
    if name == "__version__":
        from importlib.metadata import PackageNotFoundError, version

        try:
            return version("hkquot")
        except PackageNotFoundError:
            return "0.0.0"
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
