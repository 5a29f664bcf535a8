"""Mass-lumped P1 finite element solver for inertial Q-tensor gradient flows."""

__version__ = "0.1.0"

from .analysis import (
    EnergyRecord,
    discrete_energy,
    h1_error_component,
    h1_error_field,
    l2_error_scalar,
    norm_forms,
    transfer_to_fine,
)
from .assembly import (
    assemble_div_form,
    assemble_stiffness,
    lumped_mass,
)
from .experiments import (
    DEFAULT_PARAMS,
    ConfigError,
    ExperimentConfig,
    run_single,
    sigma_study,
    space_refinement_study,
    time_refinement_study,
)
from .mesh import StructuredMesh, build_mesh, nested_injection
from .model import Params, aux_P, aux_r
from .solver import ConvergenceError, StepOperator, cg_solve
from .stepper import SimState, build_default_Qt0, initialize, step
