"""RNG normalisation helpers."""

import numpy as np
import pytest

from repro.utils.rng import check_seed, ensure_rng, spawn_rngs


def test_none_gives_generator():
    assert isinstance(ensure_rng(None), np.random.Generator)


def test_int_seed_is_deterministic():
    a = ensure_rng(42).random(5)
    b = ensure_rng(42).random(5)
    assert np.array_equal(a, b)


def test_generator_passthrough():
    g = np.random.default_rng(0)
    assert ensure_rng(g) is g


def test_numpy_integer_seed_accepted():
    seed = np.int64(7)
    a = ensure_rng(seed).random(3)
    b = ensure_rng(7).random(3)
    assert np.array_equal(a, b)


def test_invalid_type_rejected():
    with pytest.raises(TypeError):
        ensure_rng("not-a-seed")


@pytest.mark.parametrize("seed", [True, False, np.bool_(True)])
def test_bool_seed_rejected(seed):
    # Python counts True as the int 1; a flag is still not a seed.
    with pytest.raises(TypeError, match="bool"):
        ensure_rng(seed)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        ensure_rng(-3)
    with pytest.raises(ValueError, match="non-negative"):
        ensure_rng(np.int64(-1))


def test_check_seed_normalises_numpy_integers():
    assert check_seed(np.uint8(5)) == 5
    assert type(check_seed(np.int64(5))) is int
    with pytest.raises(TypeError):
        check_seed(5.0)


def test_spawn_count_and_independence():
    children = spawn_rngs(3, 4)
    assert len(children) == 4
    draws = [c.random() for c in children]
    assert len(set(draws)) == 4  # astronomically unlikely to collide


def test_spawn_is_deterministic_given_seed():
    a = [g.random() for g in spawn_rngs(9, 3)]
    b = [g.random() for g in spawn_rngs(9, 3)]
    assert a == b


def test_spawn_negative_count_rejected():
    with pytest.raises(ValueError):
        spawn_rngs(0, -1)


def test_spawn_zero_is_empty():
    assert spawn_rngs(0, 0) == []
