"""Low-subpacketization coded caching from linear block codes.

Build a generator matrix (or a residue codeword source) whose consecutive
column windows are full rank, turn its codewords into a resolvable design,
place subfiles by block membership, and deliver with all-but-one XOR
equations grouped by recovery sets.  The package certifies the column
property, generates the delivery and certifies once that every user decodes
it, simulates a demand vector from that certificate, transposes
equation-subfile matrices into complementary-memory schemes, and compares
operating points against the classical single-cache-point scheme.
"""

from types import ModuleType as _ModuleType

from .analysis import (
    CandidateEntry,
    ComparisonRow,
    compare,
    comparison_csv,
    comparison_json,
    construct_candidate_set,
    k_max_for_budget,
    memory_sharing_bound,
    mn_metrics,
    replay_route,
    scaling_exponent,
    spc_family_exponent,
    spc_family_gap,
)
from .caching import (
    CachingScheme,
    DeliveryPlan,
    EqSubfileMatrix,
    Equation,
    MatrixScheme,
    RecoverySetGraph,
    SimulationReport,
    code_point_metrics,
    equation_subfile_matrix,
    expected_delta,
    generate_delivery,
    placement,
    recovery_set_graph,
    render_equation,
    scheme_from_eq_subfile,
    scheme_from_plan,
    simulate,
    verify_lemma4,
)
from .codes import (
    CcpCertificate,
    CrtCodewordSource,
    GeneratorMatrix,
    WindowCheck,
    build_claim5,
    build_claim6,
    build_claim9,
    build_crt_cyclic,
    build_cyclic,
    build_mds,
    build_spc,
    ccp_windows,
    check_ccp,
    check_ccp_cyclic_shortcut,
    cyclic_search_space,
    extend_ccp,
    kron_identity,
    least_z,
    search_cyclic_generators,
)
from .design import (
    CodewordMatrix,
    ResolvableDesign,
    codeword_matrix,
    resolvable_design,
    verify_resolvable,
)
from .errors import (
    CodedCacheError,
    DecodeFailure,
    DomainError,
    IncompleteDemands,
    InvalidAlpha,
    Lemma4Violated,
    NoFeasibleK,
    NonIntegralCachePoint,
    NoSolutionInRange,
    SchemeFileError,
)
from .gf import Matrix, ScalarDomain, mat_rank, natural_domain
from .schemefile import load_scheme, save_scheme, scheme_from_dict, scheme_to_dict

__version__ = "0.1.0"

# the public names are the ones imported above; the submodules are not
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
