"""metriclab: a desk-scale laboratory for similarity-metric learning.

Structured ReLU pair metrics (trainable sub-networks composed with certified
product and sign gadgets), synthetic tasks with exactly known conditional
label laws, pairwise hinge-loss training, exact excess-risk evaluation, and
a general-loss study of the true metric.  Import each name from its own
module (metriclab.structured, metriclab.losses, ...).
"""

__version__ = "0.1.0"

# bench/setup_probe.py reads these three through the package root
from .losses import LOSSES, get_loss
from .structured import make_structured_net
