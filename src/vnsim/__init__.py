"""Desk-scale simulator for a relativistic collisionless gas coupled to a
scalar wave field (Vlasov-Nordstrom system), with diagnostics for the decay
rates that small-data global existence predicts."""

from .errors import ConfigError, DomainTooSmallError, OutOfHistoryError
from .profiles import (BumpProfile, InitialData, make_bump, initial_norm,
                       validate_membership)
from .characteristics import (AnalyticField, FieldView, PhaseState, ZeroField,
                              backward_trace, flow_jacobian, force, push,
                              rel_velocity)
from .wavefield import (FieldGrid, GridFieldHistory, SourceHistory,
                        CallableSource, discrete_energy, fdtd_step,
                        field_derivatives, kirchhoff_homogeneous,
                        data_term_dt_phi, make_field_grid, retarded_potential,
                        unit_sphere_quadrature)
from .vlasov_pic import (CoupledState, ParticleEnsemble, deposit_mu,
                         evaluate_f, init_coupled_state, mu_mass,
                         sample_particles, step, update_weights)
from .diagnostics import (ConeWeight, DecayFit, FscReport, check_fsc,
                          dispersion_check, fit_decay, jacobian_bound,
                          measure_K, measure_L, momentum_support,
                          momentum_spread, max_momentum_spread,
                          semilag_profile, sup_mu)
from .cli import SimConfig, parse_config, run_scenario, sweep, main

__version__ = "0.1.0"
