import numpy as np
import pytest
import scipy.special

from armle import rng


def test_substream_deterministic():
    a = rng.substream(7, 1, 2).standard_normal(5)
    b = rng.substream(7, 1, 2).standard_normal(5)
    np.testing.assert_array_equal(a, b)


def test_substreams_distinct():
    draws = {
        tuple(rng.substream(*path).standard_normal(3))
        for path in [(0,), (1,), (0, 0), (0, 1), (1, 0), (0, 0, 0)]
    }
    assert len(draws) == 6


def test_substream_rejects_negative():
    with pytest.raises(ValueError):
        rng.substream(-1)
    with pytest.raises(ValueError):
        rng.substream(3, -2)


def test_standard_normals_inversion():
    # Same substream, same integer draws: the normals must be the inverse
    # normal CDF applied to centered 53-bit uniforms.
    gen = rng.substream(11, 4)
    values = rng.standard_normals(gen, 64)
    raw = rng.substream(11, 4).integers(0, 1 << 53, size=64, dtype=np.int64)
    expected = scipy.special.ndtri((raw.astype(float) + 0.5) / float(1 << 53))
    np.testing.assert_array_equal(values, expected)


@pytest.mark.parametrize("size", [0, 1, 2000, 20000])
@pytest.mark.parametrize("rep", range(5))
def test_standard_normals_match_centred_integers(rep, size):
    # The same bits at every size, and the substream left at the same state.
    gen, ref = rng.substream(3, 1, rep), rng.substream(3, 1, rep)
    values = rng.standard_normals(gen, size)
    raw = ref.integers(0, 1 << 53, size=size, dtype=np.int64)
    expected = scipy.special.ndtri((raw.astype(float) + 0.5) / float(1 << 53))
    assert values.shape == (size,)
    np.testing.assert_array_equal(values, expected)
    assert gen.random() == ref.random()


def test_standard_normals_moments():
    values = rng.standard_normals(rng.substream(0), 200_000)
    assert abs(values.mean()) < 0.01
    assert abs(values.std() - 1.0) < 0.01
    assert np.all(np.isfinite(values))


def test_standard_normals_empty():
    assert rng.standard_normals(rng.substream(1), 0).shape == (0,)
