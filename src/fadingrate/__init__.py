"""Rate bounds for stationary Rayleigh flat-fading channels.

Analytic and Monte Carlo bounds on the achievable rate of a discrete-time
noncoherent Rayleigh flat-fading channel with a bandlimited Doppler
spectrum: proper-Gaussian-input bounds, peak-power-constrained bounds,
channel-prediction-based bounds, pilot-aided synchronized-detection
bounds, and the simulation machinery to cross-check all of them.  Rates
are in nats per channel use unless converted at the output layer.
"""

from .model import *
from .quadrature import *
from .entropy import *
from .prediction import *
from .rates import *
from .mcrates import *
from .simulate import *
from .verify import *

__version__ = "0.1.0"

# each module's __all__ names its public objects once; the package re-exports them
__all__ = ["__version__", *model.__all__, *quadrature.__all__, *entropy.__all__,
           *prediction.__all__, *rates.__all__, *mcrates.__all__, *simulate.__all__, *verify.__all__]
