"""Substitution attacks and rejection-sampling steganography, with the games
that measure them.

The layers, bottom up: bit strings and named random substreams; toy
encryption / signature / randomized-algorithm fixtures with explicit coins;
history-indexed channels derived from those fixtures; the rejection-sampling
embedder; substitution attacks built from it (and the reverse wrapping);
Monte Carlo distinguishing, reliability and forgery games; and the signed
family rate experiment. The package exports exactly its modules' __all__.
"""

from . import bits, errors, rng, prf, schemes, channels, stego, asa, converse, games
from . import adversaries, lowerbound
from .bits import *
from .errors import *
from .rng import *
from .prf import *
from .schemes import *
from .channels import *
from .stego import *
from .asa import *
from .converse import *
from .games import *
from .adversaries import *
from .lowerbound import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (bits, errors, rng, prf, schemes, channels, stego, asa, converse, games,
                   adversaries, lowerbound)
    for name in module.__all__
]
