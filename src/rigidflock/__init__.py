"""Distance-based flocking and target interception for unicycle agents.

A library plus CLI for simulating teams of nonholonomic unicycles that
acquire a rigid target formation, flock along a shared time-varying
velocity known to a subset of agents, or intercept a moving target
seen only by a leader.  Inter-agent coordination uses distributed
variable-structure (signum) observers over the formation graph.
"""

from . import kernels
from .engine import (
    Measurement,
    RunConfig,
    SimulationDiverged,
    TrajectoryLog,
    WorldState,
    hull_containment,
    initial_state,
    measure,
    measurement_commands,
    measurement_step,
    metrics,
    run,
    step_world,
    velocity_tracking_errors,
)
from .flocking import (
    EPS_U,
    FlockingGains,
    control_u,
    desired_heading,
    desired_heading_rate,
    u_dot,
)
from .graph import Graph, adjacency, is_connected, laplacian, neighbors
from .interception import (
    InterceptionGains,
    convex_hull_contains,
    follower_u,
    follower_u_dot,
    interception_error_rate,
    leader_u,
    leader_u_dot,
)
from .observers import (
    ObserverBank,
    consensus_observer_rate,
    gain_check,
    m_matrix,
    sgn,
)
from .rigidity import (
    Framework,
    TargetFormation,
    distance_errors,
    edge_function,
    is_infinitesimally_rigid,
    is_minimally_rigid,
    reduced_rigidity_matrix,
    rigidity_matrix,
    rigidity_rank,
    shape_distance,
)
from .scenario import (
    Scenario,
    ScenarioError,
    bundled_scenario_path,
    load_scenario,
    scenario_from_dict,
)
from .trajectories import (
    CirclePath,
    LinePath,
    SinePath,
    WaypointPath,
    make_trajectory,
    trajectory_to_dict,
)
from .unicycle import (
    b_matrix,
    rot_matrix,
    wrap_angle,
)

__version__ = "0.1.0"
