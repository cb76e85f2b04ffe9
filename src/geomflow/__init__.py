"""Joint rigid/permutation optimal-transport flow matching on featured point sets."""

from .geometry import (
    Geometry,
    LatentGeometry,
    Permutation,
    Rotation,
    Translation,
    apply_permutation,
    apply_rigid,
    center_of_mass,
    project_zero_com,
    random_rotation,
    sample_noise,
)
from .alignment import (
    CostMatrix,
    OmtSolution,
    brute_force_omt,
    cost_matrix,
    hungarian,
    kabsch,
    solve_omt,
    solve_omt_batch,
)
from .costs import CostReport, distribution_cost, molecule_cost, optimal_molecule_cost
from .nn import (
    AdamState,
    DenseNet,
    EquivariantLayer,
    GradCheckReport,
    VectorFieldModel,
    adam_step,
    backward,
    decode,
    encode,
    forward,
    grad_check,
)
from .ode import BudgetExceededError, SolverConfig, integrate
from .flow import (
    CouplingPair,
    CouplingSet,
    SizeSampler,
    TrainConfig,
    align_pair,
    estimate_couplings,
    fm_loss,
    generate,
    interpolate,
    random_couplings,
    reflow,
    sample_ode,
    train,
)
from .data import (
    MalformedFileError,
    PersistenceError,
    TemplateSpec,
    TruncatedFileError,
    ValidityRule,
    VersionMismatchError,
    default_rule,
    is_valid,
    load_checkpoint,
    load_geometries,
    load_pairs,
    make_dataset,
    save_checkpoint,
    save_geometries,
    save_pairs,
    snap_onehot,
)

__version__ = "0.1.0"
