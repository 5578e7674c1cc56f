"""Desk-scale simulator for a relativistic collisionless gas coupled to a
scalar wave field (Vlasov-Nordstrom system), with diagnostics for the decay
rates that small-data global existence predicts."""

from .errors import ConfigError, DomainTooSmallError, OutOfHistoryError
from .profiles import (BumpProfile, InitialData, make_bump, initial_norm,
                       validate_membership)
from .characteristics import (FieldView, PhaseState, ZeroField,
                              backward_trace, push, rel_velocity)
from .wavefield import (FieldGrid, GridFieldHistory, discrete_energy,
                        fdtd_step, field_derivatives, make_field_grid,
                        retarded_potential, unit_sphere_quadrature)
from .vlasov_pic import (CoupledState, ParticleEnsemble, deposit_mu,
                         evaluate_f, init_coupled_state,
                         sample_particles, step, update_weights)
from .diagnostics import (DecayFit, fsc_raw_margins, fsc_verdict, fit_decay,
                          measure_KL, momentum_support, max_momentum_spread,
                          semilag_profile, sup_mu)
from .cli import SimConfig, parse_config, run_scenario, sweep, main

__version__ = "0.1.0"
