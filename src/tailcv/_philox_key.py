"""The seed sequence that hands numpy's Philox a key derived in advance.

``simulate._stream`` imports this module on its first stream: importing it
loads ``numpy.random``, which ``import tailcv`` does not.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class PhiloxKey(ISeedSequence):
    """A Philox key where Philox asks its seed sequence for one.

    Defined at module level, so that a generator built on it pickles.
    """

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.key
