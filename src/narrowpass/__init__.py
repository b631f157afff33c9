"""Scale-invariant sampling RRT for narrow-passage object extraction."""

from .bandit import Arm, BanditState, compute_reward, select_arm
from .cspace import (Bounds, Box, GoalSpec, Scene, SceneError, SceneParseError, SceneSemanticError,
                     check_motion, distance, goal_satisfied, is_state_valid, load_scene, load_scene_file)
from .pca import (CylinderSpec, PrincipalAxis, orthonormal_basis, principal_axis,
                  recalibrate_axis, sample_cylinder)
from .planner import PlannerParams, PlannerResult, Tree, extract_path, mab_rrt_plan, rrt_plan, steer
from .rng import RngStream
from .samplers import (SphereBatchSpec, sample_bridge, sample_gaussian_obstacle,
                       sample_near_obstacle, sample_sphere_batch, sample_uniform)
from .scale_search import ScaleParams, ScaleSearchResult, find_entropy_scale
from .scenes import generate_tunnel_scene, open_scene

__version__ = "0.1.0"
