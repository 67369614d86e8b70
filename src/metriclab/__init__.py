"""metriclab: a desk-scale laboratory for similarity-metric learning.

Structured ReLU pair metrics (trainable sub-networks composed with certified
product and sign gadgets), synthetic tasks with exactly known conditional
label laws, pairwise hinge-loss training, exact excess-risk evaluation, and
a general-loss study of the true metric.
"""

__version__ = "0.1.0"

from .relu_net import DenseLayer, NetworkComplexity, ReluNetwork, complexity, forward
from .gadgets import (
    ProductGadget,
    SignApprox,
    build_product_gadget,
    build_sign_approx,
    build_square_gadget,
)
from .losses import (
    LOSSES,
    LossFunction,
    check_bias_shift,
    check_monotone,
    check_self_distance,
    continuous_label_degeneracy,
    get_loss,
    q_value,
    self_distance_etas,
    tstar_analytic,
    tstar_batch,
)
from .synthetic import (
    ConditionalModel,
    SyntheticTask,
    estimate_noise_exponent,
    eta,
    make_task,
    sample_dataset,
    true_metric_hinge,
)
from .structured import (
    HypothesisBudget,
    StructuredMetricNet,
    aggregate_complexity,
    make_structured_net,
    pdim_bound,
)
from .erm import TrainConfig, TrainReport, train
from .risk import (
    RiskReport,
    SweepResult,
    bayes_risk_hinge,
    empirical_risk,
    excess_risk_identity,
    generalization_risk,
    rate_sweep,
    risk_report,
    variance_expectation_check,
)
