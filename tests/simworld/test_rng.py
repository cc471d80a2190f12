"""Deterministic substreams."""

import numpy as np

from repro.simworld.rng import substream


class TestSubstream:
    def test_same_label_same_stream(self):
        a = substream(42, "friends").random(10)
        b = substream(42, "friends").random(10)
        assert np.array_equal(a, b)

    def test_different_labels_differ(self):
        a = substream(42, "friends").random(10)
        b = substream(42, "groups").random(10)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = substream(1, "friends").random(10)
        b = substream(2, "friends").random(10)
        assert not np.array_equal(a, b)

    def test_unicode_labels(self):
        assert substream(1, "лейбл").random(1) is not None

