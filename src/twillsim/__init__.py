"""Discrete-event simulator for scheduling DNN and transformer inference
on a power-capped edge platform with a GPU and a fixed-function DLA.

The package models per-cluster DVFS, a shared TDP budget, and the
control costs of remapping work at runtime (migration, freezing,
frequency changes).  Four scheduling policies are provided: a
priority-aware adaptive scheduler (``twill``) and three static
baselines (``gpu_queue``, ``static_dvfs``, ``static_subgraph``).

Quick start::

    import twillsim
    trace = twillsim.simulate("mix1", policy="twill")
    print(trace.summary()["makespan_ms"])
"""

from . import presets
from .baselines import POLICIES, GpuQueuePolicy, StaticDvfsPolicy, \
    StaticSubgraphPolicy, make_policy
from .engine import EngineError, Simulation
from .hardware import (
    ClusterKind,
    ClusterSpec,
    ClusterState,
    PlatformError,
    PlatformSpec,
    initial_states,
    load_platform,
    power_draw,
    set_frequency,
)
from .models import (
    AFFINITY_THRESHOLD,
    AppProfile,
    CompatibilityMatrix,
    LayerSpec,
    ModelError,
    SignatureMap,
    dla_compatible,
    layer_affinity,
    load_matrix,
    parse_model,
)
from .policy import (
    ControllerEvent,
    ControllerView,
    Decision,
    DecisionKind,
    EventKind,
    Policy,
    TaskState,
    TaskView,
    effective_rate,
)
from .trace import Trace, write_trace
from .twill import FreezeQueue, TwillPolicy
from .workload import (
    InferenceRequest,
    WorkloadError,
    WorkloadScenario,
    load_mix,
    random_mix,
)

__version__ = "0.1.0"


def build_simulation(mix, policy="twill", *, platform_text: str | None = None,
                     **engine_kwargs) -> Simulation:
    """Assemble a Simulation from packaged data.

    mix may be a packaged mix/scenario name or a WorkloadScenario;
    policy may be a policy name or a Policy instance.
    """
    if isinstance(mix, str):
        scenario = load_mix(presets.mix_or_scenario_text(mix),
                            known_models=presets.available_models())
    else:
        scenario = mix
    platform = load_platform(platform_text if platform_text is not None
                             else presets.platform_text())
    matrix = load_matrix(presets.matrix_text())
    if isinstance(policy, str):
        policy = make_policy(policy)
    descriptors = {m: presets.model_text(m)
                   for m in dict.fromkeys(r.model for r in scenario.requests)}
    return Simulation(platform, scenario, policy, descriptors, matrix,
                      **engine_kwargs)


def simulate(mix, policy="twill", *, out_dir=None, **kwargs) -> Trace:
    """Run a scenario under a policy and return its Trace.

    With out_dir, also writes decisions.csv / requests.csv / power.csv /
    summary.json there.
    """
    trace = build_simulation(mix, policy, **kwargs).run()
    if out_dir is not None:
        write_trace(trace, out_dir)
    return trace
