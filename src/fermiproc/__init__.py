"""fermiproc: driven fermionic lattices at finite temperature.

Exact Fock-space dynamics (L <= 12) and a free-fermion fast path (L in the
hundreds) for time-dependent local perturbations of a hopping chain, with the
full thermodynamic ledger: internal energy, charge, entropy relative to the
running Gibbs reference, entropy production rate, and work.
"""

__version__ = "0.1.0"

from .lattice import (Boundary, FockBasis, LatticeSpec, LatticeTooLargeError,
                      annihilation_op, creation_op, gauge_transform,
                      hopping_hamiltonian, is_gauge_invariant, number_operator,
                      one_body_laplacian, quadratic_fock_operator)
from .states import (GibbsParams, GibbsResult, gibbs_state, relative_entropy,
                     von_neumann_entropy)
from .propagator import (Propagator, TimeDependentHamiltonian, dyson_propagator,
                         heisenberg_evolve, interaction_to_schrodinger, propagate)
from .observables import (ProcessRecord, charge, charge_rate, delta_entropy,
                          energy_rate, entropy_rate, gibbs_gradient, internal_energy,
                          work_accumulate)
from .quadratic import gibbs_correlation, quadratic_entropy_ledger, quadratic_observable
from .smallness import SMALLNESS_THRESHOLD, grid_norm, kernel_norm, smallness_norm
from .drive import (DriveProtocol, KernelSpec, Perturbation, build_perturbation,
                    certify_drive, periodic_protocol, switch_on_protocol)
from .harness import (ConfigError, RunConfig, load_config, run_process_I,
                      run_process_II, run_sweep, run_verify)
