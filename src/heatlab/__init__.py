"""Heat semigroups, Schrodinger traces and jump-path Monte Carlo on
weighted graphs, with a flat-torus spectral cross-check."""

from .errors import (AssertionFailed, ConfigError, DisconnectedGraph,
                     EigensolverNoConvergence, GraphError, HeatLabError,
                     InputError, NonpositiveTime, TruncationNotConverged)
from .fixtures import (complete_graph, fixture_registry, path_graph,
                       random_connected_graph, two_vertex)
from .graphs import (WeightedGraph, dumps_graph, load_graph, loads_graph,
                     save_graph)
from .kernels import (AxiomReport, Exhaustion, HeatKernelTable,
                      clear_kernel_cache, heat_semigroup, killed_kernel,
                      minimal_heat_kernel, uniformized_exponential,
                      verify_axioms)
from .linalg import symmetric_eigh, symmetric_eigvals
from .paths import (JumpPath, McEstimate, feynman_kac_trace_mc,
                    no_jump_lower_bound, pnfb_probability, sample_bridge,
                    sample_free_path, stay_probability_exact)
from .potential_class import (AdmissibilityResult, GrowthProfile,
                              infinitesimal_class_witness, kato_modulus,
                              ricci_admissibility)
from .torus import (TorusModel, TorusPotential, cosine_well,
                    exact_heat_trace, galerkin_schrodinger_trace,
                    potential_integral, torus_eigenvalues,
                    torus_semiclassical_scan)
from .traces import (ConvergenceReport, Potential, golden_thompson_check,
                     semiclassical_scan, trace_semigroup)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
