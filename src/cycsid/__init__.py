"""Multirate system identification via cyclic reformulation.

Simulate multirate-sensed linear plants, cycle signals into a time-invariant
representation, identify a model by subspace methods, and recover the
underlying plant through a structured coordinate transform.
"""

from .cyclic import (
    CycledSignal,
    StructureReport,
    cycle_signal,
    cycled_ranks,
    cyclic_reformulate,
    is_block_diagonal,
    is_cyclic_matrix,
    verify_markov_structure,
)
from .errors import (
    AssumptionFailedError,
    CycsidError,
    DimensionMismatchError,
    DivergentModelError,
    DivergentPlantError,
    ExcitationDeficientError,
    InsufficientDataError,
    InvalidRateError,
    MemoryBudgetError,
    NonSquareError,
    ParseError,
    RankConditionError,
    RankDeficientAError,
    SchemaError,
    SingularMatrixError,
    StructureViolationError,
)
from .fileio import load_model, load_signals, save_model, save_signals
from .multirate import MultirateSpec, build_masks, check_observability_assumption, simulate_multirate
from .numerics import invert, rank_with_tol
from .pipeline import (
    ExperimentConfig,
    RunReport,
    benchmark_plant,
    builtin_config,
    demo_paper,
    load_config,
    run_identification,
    validate,
)
from .statespace import (
    SignalLog,
    StateSpace,
    TransferFunction,
    ctrb,
    make_state_space,
    markov,
    obsv,
    simulate,
    tf_distance,
    transfer_functions,
)
from .subspace import IdentifiedModel, build_block_hankel, markov_match, subspace_identify
from .transform import (
    CyclicModel,
    apply_transform,
    build_transform,
    build_X_check,
    build_Y_check,
    extract_components,
    model_transfer_check,
    verify_cyclic_form,
)

__version__ = "0.1.0"
