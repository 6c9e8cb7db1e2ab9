import numpy as np
import pytest

from divergelab.sampling import derive_rng, ginibre


def _sum_formula(rows, cols, rng):
    """The Ginibre draw as a sum of the real and the imaginary draw."""
    real = rng.standard_normal((rows, cols))
    return (real + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


@pytest.mark.parametrize(
    "rows, cols", [(1, 1), (2, 1), (6, 1), (64, 1), (3, 3), (2, 5), (12, 3), (64, 64), (256, 256)]
)
def test_ginibre_is_the_sum_formula_bitwise(rows, cols):
    for seed in range(25):
        rng, reference_rng = derive_rng(seed), derive_rng(seed)
        z, reference = ginibre(rows, cols, rng), _sum_formula(rows, cols, reference_rng)
        assert z.dtype == reference.dtype and z.shape == reference.shape
        assert z.tobytes() == reference.tobytes()
        # Both consumed the same draws from the stream.
        assert rng.random() == reference_rng.random()
