"""Simulation and analysis toolkit for undulatory multi-legged locomotion
on rugose terrain: gait wave generation, foot-tip kinematics, block-terrain
synthesis, a Monte Carlo contact walker, analytic speed and contact-ratio
models, and a proportional contact-ratio feedback controller."""

__version__ = "0.1.0"

from .gait import (
    GaitConfig,
    JointCommand,
    body_pitch,
    body_yaw,
    ideal_contact,
    leg_angle,
    sample_cycle,
)
from .kinematics import (
    RobotGeometry,
    RetractionProfile,
    SlipDistribution,
    flat_ground_stride,
    foot_trajectory,
    ideal_gamma,
    recoverable_heights,
    retraction_profile,
    slip_distribution,
)
from .terrain import (
    HeightDeltaModel,
    TerrainGrid,
    generate_terrain,
    sample_dh,
    sigma_from_rugosity,
    tail_probability,
)
from .models import (
    FrictionPrediction,
    LossModelOutput,
    extremal_weights,
    friction_bounds,
    optimal_av,
    predict_gamma,
    predict_speed_band,
    speed_from_friction,
)
from .contact_sim import (
    ContactMap,
    SensorModel,
    WalkResult,
    ideal_contact_map,
    measure_gamma,
    simulate_walk,
)
from .control import (
    ControllerConfig,
    Scenario,
    ScenarioStats,
    TrialRecord,
    compare_controllers,
    run_trial,
    update_av,
)
from .config import ConfigError, ExperimentSpec, FullConfig, load_config

__all__ = [
    "__version__",
    "GaitConfig", "JointCommand", "body_pitch", "body_yaw",
    "ideal_contact", "leg_angle", "sample_cycle",
    "RobotGeometry", "RetractionProfile", "SlipDistribution",
    "flat_ground_stride", "foot_trajectory", "ideal_gamma",
    "recoverable_heights", "retraction_profile", "slip_distribution",
    "HeightDeltaModel", "TerrainGrid", "generate_terrain", "sample_dh",
    "sigma_from_rugosity", "tail_probability",
    "FrictionPrediction", "LossModelOutput", "extremal_weights",
    "friction_bounds", "optimal_av", "predict_gamma", "predict_speed_band",
    "speed_from_friction",
    "ContactMap", "SensorModel", "WalkResult", "ideal_contact_map",
    "measure_gamma", "simulate_walk",
    "ControllerConfig", "Scenario", "ScenarioStats", "TrialRecord",
    "compare_controllers", "run_trial", "update_av",
    "ConfigError", "ExperimentSpec", "FullConfig", "load_config",
]
