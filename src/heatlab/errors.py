"""Exception types shared across the package.

Every error that user input can trigger derives from HeatLabError, so the CLI
can map the whole family onto its exit-code contract (input/config errors exit
with 2, failed assertions with 1).
"""


class HeatLabError(Exception):
    """Base class for all package-specific errors."""


# ---------------------------------------------------------------- graph data


class GraphError(HeatLabError):
    """Invalid weighted-graph data."""


class AsymmetricWeights(GraphError):
    """Edge weight b(x,y) != b(y,x), or conflicting duplicate edge entries."""


class NegativeWeight(GraphError):
    """Edge weight b(x,y) < 0."""


class SelfLoop(GraphError):
    """Nonzero diagonal weight b(x,x)."""


class NonpositiveMeasure(GraphError):
    """Vertex measure mu(x) <= 0 or not finite."""


class UnknownVertex(GraphError):
    """Vertex index outside the graph."""


class DisconnectedGraph(GraphError):
    """Operation requires a connected graph (strict kernel positivity)."""


# ------------------------------------------------------------------ kernels


class NonpositiveTime(HeatLabError):
    """Heat kernels are defined for t > 0 only."""


class InvalidRate(HeatLabError):
    """A Poisson rate that is negative or not finite."""


class VertexOutsideExhaustion(HeatLabError):
    """Requested vertex not contained in the first exhaustion member."""


class GraphMismatch(HeatLabError):
    """Kernel tables built over different graphs cannot be combined."""


class ZeroKernel(HeatLabError):
    """Kernel value is zero where a positive value is required (pinning)."""


# ------------------------------------------------------- spectral machinery


class EigensolverNoConvergence(HeatLabError):
    """The LAPACK symmetric eigensolver did not converge."""


class EmptyGrid(HeatLabError):
    """A scan was asked to run over an empty time grid."""


class TruncationNotConverged(HeatLabError):
    """Doubling the spectral truncation still moves the result too much."""


# ------------------------------------------------------------ path sampling


class NTruncationExceeded(HeatLabError):
    """A series taken one jump-chain step per term (the bridge jump-count
    distribution, a semigroup action) needs more terms than the cap allows."""


class VertexNotInK(HeatLabError):
    """Pinning vertex must belong to the subset K being tested."""


# ------------------------------------------------------------------ driver


class InputError(HeatLabError):
    """Malformed input file (graph file, profile document, ...)."""


class ConfigError(HeatLabError):
    """Invalid or incomplete experiment configuration."""


class AssertionFailed(HeatLabError):
    """A configured experiment assertion did not hold.

    Carries the name of the first failing check in args[0]; experiments.run,
    which raises it, sets result to the failed run's ExperimentResult.
    """

    result = None
