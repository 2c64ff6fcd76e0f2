"""Stability analysis for convolution-type Volterra difference equations.

The library decides stability of the null solution of
``x_n = sum_{i<n} a_{n-i} x_i`` by issuing certificates (absolute-sum test,
renewal-theorem test, real-axis root witness, finite-approximation root
bounds) and, when no certificate applies, by classifying a simulated
trajectory.  See ``certify.certify`` for the pipeline and the ``volstab``
command line for file-based runs.
"""

# each submodule's __all__ is its share of the package's public names
from .kernel import *
from .simulate import *
from .charfun import *
from .certify import *
from .fixtures import *

__version__ = "0.1.0"
