import numpy as np
import pytest

from narrowpass.rng import RngStream

SEEDS = [0, 5, 3000, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**100, np.int64(7), np.uint64(2**64 - 1)]


@pytest.mark.parametrize("seed", SEEDS, ids=repr)
def test_stream_is_pcg64_seeded_by_a_one_word_sequence(seed):
    # The construction every committed trajectory was drawn from:
    # Generator(PCG64(SeedSequence((seed,)))).
    want = np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed),))))
    got = RngStream(seed)
    assert got.random(64).tobytes() == want.random(64).tobytes()
    assert got.standard_normal(64).tobytes() == want.standard_normal(64).tobytes()


def test_same_seed_same_stream():
    assert RngStream(seed=11).random(8).tobytes() == RngStream(11).random(8).tobytes()


@pytest.mark.parametrize("seed", [-1, -2**63])
def test_negative_seed_rejected(seed):
    with pytest.raises(ValueError):
        RngStream(seed)
