"""Simulation and analysis toolkit for undulatory multi-legged locomotion
on rugose terrain: gait wave generation, foot-tip kinematics, block-terrain
synthesis, a Monte Carlo contact walker, analytic speed and contact-ratio
models, and a proportional contact-ratio feedback controller."""

__version__ = "0.1.0"

from .gait import GaitConfig, joint_angles, phase_table
from .kinematics import (
    RobotGeometry,
    RetractionProfile,
    SlipDistribution,
    flat_ground_stride,
    foot_trajectory,
    recoverable_heights,
    retraction_profile,
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
    ideal_contact_map,
    simulate_walk,
)
from .control import (
    ControllerConfig,
    ScenarioStats,
    TrialRecord,
    compare_controllers,
    run_trial,
    update_av,
)
from .config import ConfigError, ExperimentSpec, FullConfig, load_config

__all__ = [
    "__version__",
    "GaitConfig", "joint_angles", "phase_table",
    "RobotGeometry", "RetractionProfile", "SlipDistribution",
    "flat_ground_stride", "foot_trajectory",
    "recoverable_heights", "retraction_profile", "slip_distribution",
    "HeightDeltaModel", "TerrainGrid", "generate_terrain",
    "sigma_from_rugosity", "tail_probability",
    "FrictionPrediction", "LossModelOutput", "friction_bounds",
    "predict_gamma", "predict_speed_band",
    "ContactMap", "SensorModel", "WalkResult", "ideal_contact_map",
    "simulate_walk",
    "ControllerConfig", "ScenarioStats", "TrialRecord",
    "compare_controllers", "run_trial", "update_av",
    "ConfigError", "ExperimentSpec", "FullConfig", "load_config",
]
