import numpy as np

from mmadapt.rng import Rng

from references import int_key


def test_same_seed_same_draws():
    a = Rng(7).uniform(size=3)
    b = Rng(7).uniform(size=3)
    np.testing.assert_array_equal(a, b)


def test_labeled_splits_are_distinct_streams():
    root = Rng(7)
    s = root.split("sampler").uniform(size=8)
    c = root.split("corpus").uniform(size=8)
    assert not np.array_equal(s, c)


def test_split_independent_of_sibling_order():
    r1 = Rng(13)
    a_first = r1.split("a").uniform(size=4)
    r2 = Rng(13)
    r2.split("b").uniform(size=4)  # consume a sibling first
    a_second = r2.split("a").uniform(size=4)
    np.testing.assert_array_equal(a_first, a_second)


def test_uniform_mean_monte_carlo():
    draws = Rng(1234).uniform(size=100_000)
    assert abs(draws.mean() - 0.5) < 0.01


def test_nested_split_path_addressing():
    a = Rng(5).split("x", "y").normal(size=2)
    b = Rng(5).split("x").split("y").normal(size=2)
    np.testing.assert_array_equal(a, b)


def test_uint32_key_words_seed_the_stream_an_int_key_seeds():
    # An Rng seeds PCG64 with its key's four little-endian uint32 words. A
    # SeedSequence reads a 128-bit int as exactly those words, so every
    # stream is the one the int seeded.
    labels = ("gen", "SQA", "tgt", "frames", "ctx-")
    for seed in (0, 7):
        for i in range(1000):
            path = tuple(f"{label}{i}" for label in labels[: 1 + i % 5])
            got = Rng(seed).split(*path).bit_generator.state
            assert got == np.random.PCG64(int_key(seed, path)).state, (seed, path)


def test_missing_high_words_seed_as_zero():
    for key in (0, 1, 2**32 - 1, 2**64 + 5, 2**96 - 1):
        words = np.frombuffer(key.to_bytes(16, "little"), dtype="<u4")
        assert np.random.PCG64(words).state == np.random.PCG64(key).state, key


def test_draws_equal_a_plain_generator_over_the_same_key():
    # Every kind of draw the package makes, spelt as the package spells it,
    # against numpy's Generator spelt in numpy's positional order. The draws
    # run in sequence on one stream each, so the streams must also stay in step.
    seq = tuple(range(4, 16))
    for seed, path in ((0, ()), (7, ("gen", "SQA", "tgt1")), (7, ("train", "s3", "MT", "text")), (123, ("cursor",))):
        rng = Rng(seed).split(*path)
        ref = np.random.Generator(np.random.PCG64(int_key(seed, path)))
        assert rng.uniform() == ref.uniform(0.0, 1.0, size=None)
        np.testing.assert_array_equal(rng.uniform(size=(2, 3)), ref.uniform(0.0, 1.0, size=(2, 3)))
        np.testing.assert_array_equal(rng.normal(size=(3, 2)), ref.normal(0.0, 1.0, size=(3, 2)))
        np.testing.assert_array_equal(rng.normal(size=5, scale=0.05), ref.normal(0.0, 0.05, size=5))
        assert rng.integers(3, 9) == ref.integers(3, 9, size=None)
        np.testing.assert_array_equal(rng.integers(0, 5, size=6), ref.integers(0, 5, size=6))
        np.testing.assert_array_equal(rng.choice(seq, size=5, replace=True), ref.choice(seq, size=5, replace=True))
        mine, theirs = list(range(10)), list(range(10))
        rng.shuffle(mine)
        ref.shuffle(theirs)
        assert mine == theirs
        np.testing.assert_array_equal(rng.permutation(12), ref.permutation(12))
