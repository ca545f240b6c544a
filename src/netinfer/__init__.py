"""netinfer: coupling-graph inference for hidden dynamical subsystems.

Observed scalar time series are delay-embedded to stand in for the hidden
states; candidate coupling DAGs are scored with transfer-entropy measures
penalized by analytic or surrogate independence tests, and the DAG space
is searched exhaustively or greedily.
"""

__version__ = "0.1.0"

from .errors import (
    DataFormatError,
    NetinferError,
    NumericError,
    ValidationError,
)
from .estimators import (
    EstimatorKind,
    collective_transfer_entropy,
    conditional_entropy,
    history,
    kl_divergence,
    next_value,
    stochastic_interaction,
)
from .graph import (
    Dag,
    compare_graphs,
    dag_from_dot,
    enumerate_dags,
    parse_dot,
    write_dot,
)
from .scores import ScoreReport, Scorer
from .search import (
    SearchConfig,
    SearchResult,
    exhaustive_search,
    greedy_hill_climb,
)
from .significance import (
    Chi2Params,
    SurrogateConfig,
    chi2_quantile,
    empirical_quantile,
    surrogate_te_samples,
    te_degrees_of_freedom,
)
from .simulate import (
    CoupledLogisticModel,
    GdsConfig,
    LinearGaussianModel,
    SimOutput,
    simulate,
)
from .timeseries import (
    DiscretizedSeries,
    EmbeddedView,
    EmbeddingSpec,
    TimeSeriesSet,
    delay_embed,
    discretize,
    load_csv,
    write_csv,
)

__all__ = [
    "__version__",
    # errors
    "NetinferError", "ValidationError", "DataFormatError", "NumericError",
    # data
    "TimeSeriesSet", "DiscretizedSeries", "EmbeddingSpec", "EmbeddedView",
    "load_csv", "write_csv", "discretize", "delay_embed",
    # estimators
    "EstimatorKind", "conditional_entropy",
    "collective_transfer_entropy", "stochastic_interaction", "kl_divergence",
    "next_value", "history",
    # significance
    "Chi2Params", "SurrogateConfig", "chi2_quantile", "te_degrees_of_freedom",
    "surrogate_te_samples", "empirical_quantile",
    # graphs and scores
    "Dag", "enumerate_dags", "compare_graphs",
    "write_dot", "parse_dot", "dag_from_dot",
    "Scorer", "ScoreReport",
    # search
    "SearchConfig", "SearchResult", "exhaustive_search", "greedy_hill_climb",
    # simulation
    "GdsConfig", "CoupledLogisticModel", "LinearGaussianModel", "SimOutput",
    "simulate",
]
