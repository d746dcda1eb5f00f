"""Near-field XL-MIMO beam training.

Simulates the near-field channel and polar-domain codebook, trains compact
CNN classifiers that map far-field wide-beam pilot measurements to the
optimal near-field codeword, and evaluates beam-selection schemes against
the exhaustive-sweep oracle.
"""

from .codebook import (
    NarrowCodebook,
    PolarCodebook,
    WideCodebook,
    angle_grid,
    build_narrow_codebook,
    build_polar_codebook,
    build_wide_codebook,
    codeword_index,
    export_codebook,
    import_codebook,
    index_to_pair,
    ring_grid,
)
from .config import ConfigError, FullConfig, desk_scale_config, load_config, paper_scale_config
from .dataset import Dataset, generate_dataset, load_dataset, save_dataset, spot_check_labels
from .experiments import (
    TrialRecord,
    effective_rate,
    normalized_snr,
    run_experiment,
)
from .geometry import (
    ArrayConfig,
    PathParams,
    ScenarioConfig,
    antenna_offsets,
    near_steering,
    sample_paths,
    synth_channel,
)
from .measurement import (
    LinkConfig,
    MeasurementVector,
    achievable_rate,
    link_from_snr_db,
    measure,
    measure_wide,
    sweep_oracle,
    sweep_oracle_batch,
)
from .schemes import (
    FixedProbs,
    SchemeResult,
    candidate_indices,
    far_field_baseline,
    improved_scheme,
    original_scheme,
    random_baseline,
    sweep_scheme,
    top_k,
)
from .training import TrainConfig, evaluate_heads, top_k_accuracy, train_heads

__version__ = "0.1.0"
