"""holeflow: a discrete-varifold mean curvature flow laboratory.

Hole nucleation in multiplicity-Q surfaces, explicit Brakke-style
evolution with a dissipation ledger, expanding-holes mass-ratio estimates,
and the iteration schedule that quantifies the resulting mass drop.
"""

from .geom import Plane, coordinate_plane, grassmann_gap, make_plane
from .varifold import (DiscreteVarifold, ScalarTest, TestField, density_ratio,
                       first_variation, mean_curvature, parabolic_rescale,
                       weight_measure, weighted_first_variation)
from .kernels import CutoffProfile, HeatKernel, cylindrical_cutoff, make_profile
from .nucleation import GrowthEnvelope, SquashMap, envelope_check, nucleate
from .flow import DtPolicy, FlowTrajectory, ResolutionExhausted, evolve
from .estimates import ExpandingHolesConfig, ExcessReport, expanding_holes_run
from .iteration import (ExperimentConfig, ExperimentResult, IterationSchedule,
                        build_schedule, orchestrate, series_term, tail_sum)

__version__ = "0.1.0"
