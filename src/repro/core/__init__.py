"""Core Pufferfish machinery: the framework, enumerable data models, queries,
the Wasserstein Mechanism, the Markov Quilt Mechanism and its Markov-chain
specializations, composition accounting, and the close-adversary robustness
bound."""

from repro.core.accounting import (
    BaseAccountant,
    RenyiAccountant,
    pure_rdp_curve,
)
from repro.core.composition import CompositionAccountant
from repro.core.framework import (
    PufferfishInstantiation,
    Secret,
    SecretPair,
    entrywise_instantiation,
)
from repro.core.gaussian import (
    GaussianMarkovQuiltMechanism,
    gaussian_rho,
    rho_to_epsilon,
)
from repro.core.laplace import (
    Calibration,
    Mechanism,
    PrivateRelease,
    sample_gaussian,
    sample_laplace,
)
from repro.core.markov_quilt import MarkovQuiltMechanism, max_influence
from repro.core.models import (
    DataModel,
    FluCliqueModel,
    MarkovChainModel,
    TabularDataModel,
)
from repro.core.mqm_chain import MQMApprox, MQMExact, chain_max_influence
from repro.core.queries import (
    CountQuery,
    MeanQuery,
    Query,
    RelativeFrequencyHistogram,
    ScalarQuery,
    StateFrequencyQuery,
    SumQuery,
)
from repro.core.robustness import adversary_distance, effective_epsilon
from repro.core.wasserstein import WassersteinMechanism, wasserstein_bound
from repro.core.windowed import SlidingWindowAccountant

__all__ = [
    "BaseAccountant",
    "Calibration",
    "CompositionAccountant",
    "CountQuery",
    "DataModel",
    "FluCliqueModel",
    "GaussianMarkovQuiltMechanism",
    "MQMApprox",
    "MQMExact",
    "MarkovChainModel",
    "MarkovQuiltMechanism",
    "MeanQuery",
    "Mechanism",
    "PrivateRelease",
    "PufferfishInstantiation",
    "Query",
    "RelativeFrequencyHistogram",
    "RenyiAccountant",
    "ScalarQuery",
    "Secret",
    "SecretPair",
    "SlidingWindowAccountant",
    "StateFrequencyQuery",
    "SumQuery",
    "TabularDataModel",
    "WassersteinMechanism",
    "adversary_distance",
    "chain_max_influence",
    "effective_epsilon",
    "entrywise_instantiation",
    "gaussian_rho",
    "max_influence",
    "pure_rdp_curve",
    "rho_to_epsilon",
    "sample_gaussian",
    "sample_laplace",
    "wasserstein_bound",
]
