"""Position-aware CTR prediction: models, synthetic world, metrics, serving.

The public surface is the eight submodules (`autodiff`, `data`, `errors`,
`metrics`, `model`, `serving`, `train`, `world`): in each, every name
without a leading underscore is public. The package itself binds only
those modules, the error classes and `__version__`.
"""

from . import autodiff, data, metrics, model, serving, train, world
from .errors import FormatError, NumericError, PosrankError, UndefinedMetricError, UsageError

__version__ = "0.1.0"
