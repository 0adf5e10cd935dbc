"""Desk-scale workbench for Ramsey theory on exactly large sets."""

from .largesets import (
    ExactlyLargeSet,
    FinSet,
    count_exactly_large,
    enumerate_exactly_large,
)
from .machines import (
    EMPTY,
    CutoffJumpOracle,
    ExplicitOracle,
    OracleSet,
    Program,
    ProgramSet,
    RunOutcome,
    decode_program,
    encode_program,
    halt_threshold,
    jump_pairs_approx,
    load_program_universe,
    mone_reduction,
    pair,
    run_bounded,
    staged_jump,
    unpair,
)
from .colorings import (
    ExactColoring,
    FiniteColoring,
    KmRtReduction,
    RegressiveColoring,
    c2_coloring,
    cn_coloring,
    cn_from,
    comega_coloring,
    dh_coloring,
    km_dh_coloring,
    km_to_rt,
    rt_via_km,
)
from .decoders import (
    DEFAULT_TRUTH_CUTOFF,
    DecodeVerdict,
    DhReconstruction,
    LevelReconstruction,
    adequate_tuple,
    dh_reconstruct,
    halt0_tower_member,
    m2_decode,
    m_decode,
    mn_decode,
    mn_raw,
)
from .ramsey import (
    DEFAULT_BUDGET,
    ChildSet,
    PathResult,
    SearchBudget,
    SearchResult,
    VerifyReport,
    Witness,
    brute_homogeneous,
    er_children,
    exact_homog_search,
    f_a_extract,
    iterate_rtomega,
    leftmost_path,
    min_homog_search,
    verify_exact_homogeneous,
    verify_min_homogeneous,
)

__version__ = "0.1.0"
