"""Simulation and analysis toolkit for undulatory multi-legged locomotion
on rugose terrain: gait wave generation, foot-tip kinematics, block-terrain
synthesis, a Monte Carlo contact walker, analytic speed and contact-ratio
models, and a proportional contact-ratio feedback controller."""

__version__ = "0.1.0"

from .gait import GaitConfig, joint_angles, phase_table
from .kinematics import (
    RobotGeometry,
    SlipDistribution,
    flat_ground_stride,
    recoverable_heights,
    slip_distribution,
)
from .terrain import (
    HeightDeltaModel,
    TerrainGrid,
    generate_terrain,
    sigma_from_rugosity,
    tail_probability,
)
from .models import (
    FrictionPrediction,
    LossModelOutput,
    friction_bounds,
    predict_gamma,
    predict_speed_band,
)
from .contact_sim import (
    ContactMap,
    SensorModel,
    WalkResult,
    Walks,
    ideal_contact_map,
    simulate_walk,
    simulate_walks,
)
from .control import (
    ControllerConfig,
    compare_controllers,
    update_av,
)
from .config import ConfigError, ExperimentSpec, FullConfig, load_config

__all__ = [
    "__version__",
    "GaitConfig", "joint_angles", "phase_table",
    "RobotGeometry", "SlipDistribution",
    "flat_ground_stride", "recoverable_heights", "slip_distribution",
    "HeightDeltaModel", "TerrainGrid", "generate_terrain",
    "sigma_from_rugosity", "tail_probability",
    "FrictionPrediction", "LossModelOutput", "friction_bounds",
    "predict_gamma", "predict_speed_band",
    "ContactMap", "SensorModel", "WalkResult", "Walks", "ideal_contact_map",
    "simulate_walk", "simulate_walks",
    "ControllerConfig", "compare_controllers", "update_av",
    "ConfigError", "ExperimentSpec", "FullConfig", "load_config",
]
