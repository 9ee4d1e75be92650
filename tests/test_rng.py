"""Determinism and independence of the seeded uniform streams."""

import numpy as np

from pvclean.rng import RandomStream, replication_entropy, training_entropy


def test_same_seed_same_sequence():
    a = RandomStream(42, stream_id=3)
    b = RandomStream(42, stream_id=3)
    np.testing.assert_array_equal(a.uniforms(100), b.uniforms(100))


def test_distinct_stream_ids_differ():
    a = RandomStream(42, stream_id=0).uniforms(50)
    b = RandomStream(42, stream_id=1).uniforms(50)
    assert not np.any(a == b)


def test_distinct_seeds_differ():
    a = RandomStream(1).uniforms(50)
    b = RandomStream(2).uniforms(50)
    assert not np.any(a == b)


def test_tuple_seed_accepted_and_distinct():
    a = RandomStream((7, 0, 3), stream_id=2)
    b = RandomStream((7, 0, 3), stream_id=2)
    c = RandomStream((7, 0, 4), stream_id=2)
    x = a.uniforms(20)
    np.testing.assert_array_equal(x, b.uniforms(20))
    assert not np.any(x == c.uniforms(20))


def test_batched_uniforms_match_scalar_calls():
    a = RandomStream(5, stream_id=1)
    b = RandomStream(5, stream_id=1)
    batch = a.uniforms(64)
    singles = np.array([b.uniform() for _ in range(64)])
    np.testing.assert_array_equal(batch, singles)


def test_counter_tracks_uniform_consumption():
    s = RandomStream(0)
    s.uniform()
    s.uniforms(10)
    s.uniform()
    s.skip(5)
    s.peek(4)  # looking ahead consumes nothing
    assert s.counter == 17


def test_uniforms_in_unit_interval():
    u = RandomStream(123).uniforms(10_000)
    assert np.all((u >= 0.0) & (u < 1.0))


def test_entropy_tags_are_disjoint():
    assert replication_entropy(3, 8) == (3, 0, 8)
    assert training_entropy(3, 8) == (3, 1, 8)
    a = RandomStream(replication_entropy(3, 8)).uniforms(20)
    b = RandomStream(training_entropy(3, 8)).uniforms(20)
    assert not np.any(a == b)


def test_stream_sequence_is_statistically_uniform():
    u = RandomStream(2024).uniforms(100_000)
    assert abs(u.mean() - 0.5) < 4 * np.sqrt(1 / 12 / len(u))
    # Var[sample variance] = (mu4 - sigma^4)/n for the uniform law.
    se_var = np.sqrt((1 / 80 - 1 / 144) / len(u))
    assert abs(u.var() - 1 / 12) < 4 * se_var


def test_peek_leaves_the_stream_and_skip_equals_drawing():
    a, b = RandomStream(7, 2), RandomStream(7, 2)
    a.uniforms(3)
    b.uniforms(3)
    ahead = a.peek(10)
    assert a.counter == 3
    np.testing.assert_array_equal(ahead, b.uniforms(10))
    a.skip(10)
    assert a.counter == b.counter == 13
    assert a.uniform() == b.uniform()
