"""Seeded random streams.

`RngStream(seed)` is `numpy.random.default_rng(seed)`: a Generator on PCG64,
seeded through `SeedSequence`. Two streams built from the same non-negative
integer seed produce bit-identical sample sequences. A plan draws every
sample from the one stream it is given.
"""

import numpy as np

RngStream = np.random.default_rng
