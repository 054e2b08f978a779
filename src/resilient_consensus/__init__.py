"""Discrete-time multi-agent consensus under sensor/actuator attacks.

Simulation library plus scenario CLI: directed-graph spectral analysis,
networked LTI dynamics, Riccati-based gain design, attack modeling with
internal-model classification, and an adaptive resilient compensator.
"""

from .attacks import (AttackSpec, ExogenousSignal, ImpClassification, attack_projection,
                      classify_imp, constant_signal, effective_attack, root_targeted,
                      signal_series, sinusoid_signal)
from .defense import consensus_error_threshold, dtilde_bound
from .design import (THETA_BOUND, ControllerConfig, CouplingRange, DesignError, coupling_range,
                     design_controller, design_gain, joint_radius, solve_dare)
from .dynamics import ConsensusPrediction, LtiModel, predict_consensus_value
from .engine import LeaderSpec, simulate
from .graph import (DirectedGraph, GraphError, GraphSpectrum, has_spanning_tree,
                    is_reachable, normalized_laplacian, reachable_set)
from .metrics import (GrowthAnalysis, HinfBypassReport, Verdict, analyze_growth,
                      destabilization_verdict, deviation_bound, global_performance,
                      hinf_bypass_report, tracking_error)
from .scenarios import (BUNDLED_SCENARIOS, ConfigError, ScenarioConfig, list_scenarios,
                        load_config, run, validate)
from .trace import SimulationTrace, write_csv, write_plot_data, write_summary

__version__ = "0.1.0"
