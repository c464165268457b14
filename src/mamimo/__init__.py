"""Movable-antenna wideband multi-user MIMO sum-rate simulator."""

from .campaign import (
    ARRAY_SCHEMES,
    CampaignResult,
    ExperimentSpec,
    ResultRow,
    aggregate,
    derive_seed,
    empirical_cdf,
    fdd_evaluate,
    run_campaign,
    run_realization,
)
from .channels import (
    OfdmGrid,
    ScenarioConfig,
    SubcarrierChannels,
    UserPaths,
    path_loss,
    pulse_triangle,
    sample_user_positions,
    subcarrier_channels,
    sync_and_tap_count,
    synthesize_paths,
)
from .config import ConfigError, emit_manifest, parse_config, write_manifest
from .geometry import (
    SPEED_OF_LIGHT,
    ArrayLayout,
    LayoutReport,
    MoveRegion,
    array_response,
    load_layout,
    make_compact_upa,
    make_move_regions,
    make_sparse_upa,
    make_staggered_ura,
    min_pairwise_distance,
    save_layout,
    validate_layout,
    wave_vector,
)
from .pso import (
    OptimizationTrace,
    PsoConfig,
    objective_adapter,
    pso_optimize,
    repair_to_regions,
    spacing_penalty,
)
from .rates import (
    RATE_SCHEMES,
    ImpairedLinkConfig,
    RateReport,
    dl_dpc_sum_rate,
    dl_linear_sum_rate,
    duality_precoders,
    evaluate_rate_scheme,
    high_snr_ceiling,
    logdet_hpd,
    ul_linear_sum_rate,
    ul_sic_sum_rate,
    zero_interference_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
