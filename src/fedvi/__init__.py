"""Simulation library and benchmark harness for federated stochastic
variational-inequality algorithms over synthetic monotone operators."""

from .algorithms import (RunConfig, StepSizePlan, Trajectory, constants_of,
                         run_lda, run_lesgd, run_lesgd_hetero, run_lippax,
                         run_lsgd, run_slippax, solve_inner_prox, step_size)
from .gaps import GapEstimate, composite_gap, restricted_gap
from .harness import (ConfigError, ExperimentConfig, RateFit, ResultRow,
                      fit_rate, run_experiment)
from .operators import (OperatorSpec, PropertyReport, affine_operator,
                        eval_operator, load_affine_text, make_test_problem,
                        op_jacobian, op_value_vjp, operator_bound_on_ball,
                        verify_properties)
from .oracles import OracleSpec, sample_oracle
from .regularizers import (MirrorState, RegularizerSpec, ZERO_REG, mirror_map,
                           prox, reg_value)
from .rng import RngStream

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
