"""Tests for the redundant-RNS codec (Section VI-E fault tolerance)."""

import numpy as np
import pytest

from repro.rns import RRNSCodec


@pytest.fixture
def codec():
    return RRNSCodec(info_moduli=(7, 8, 9), redundant_moduli=(11, 13))


class TestConstruction:
    def test_capacity(self, codec):
        assert codec.n == 3
        assert codec.r == 2
        assert codec.max_correctable() == 1
        assert codec.legal_range == 7 * 8 * 9

    def test_requires_redundant_larger(self):
        with pytest.raises(ValueError, match="exceed"):
            RRNSCodec((7, 8, 9), (5,))

    def test_requires_redundancy(self):
        with pytest.raises(ValueError):
            RRNSCodec((7, 8, 9), ())

    def test_all_moduli_coprime_enforced(self):
        with pytest.raises(ValueError):
            RRNSCodec((7, 8, 9), (14,))


class TestEncodeDecode:
    def test_clean_roundtrip(self, codec, rng):
        values = rng.integers(0, codec.legal_range, size=20)
        decoded, details = codec.decode(codec.encode(values))
        assert np.array_equal(decoded, values)
        assert all(d.ok and not d.corrected_channels for d in details)

    def test_encode_range_checked(self, codec):
        with pytest.raises(OverflowError):
            codec.encode(np.array([codec.legal_range]))

    def test_single_error_corrected_every_channel(self, codec):
        value = 123
        for ch in range(5):
            enc = codec.encode(np.array([value]))
            m = codec.full_set.moduli[ch]
            enc[ch, 0] = (enc[ch, 0] + 1) % m
            decoded, details = codec.decode(enc)
            assert decoded[0] == value, f"channel {ch} error not corrected"
            assert ch in details[0].corrected_channels

    def test_single_error_random_magnitudes(self, codec, rng):
        for _ in range(30):
            value = int(rng.integers(0, codec.legal_range))
            enc = codec.encode(np.array([value]))
            ch = int(rng.integers(0, 5))
            m = codec.full_set.moduli[ch]
            delta = int(rng.integers(1, m))
            enc[ch, 0] = (enc[ch, 0] + delta) % m
            decoded, _ = codec.decode(enc)
            assert decoded[0] == value

    def test_double_error_detected_not_miscorrected(self, codec, rng):
        """With r=2, two channel errors exceed correction capacity; the
        decoder must fail or correct — never silently return a wrong
        value with full confidence."""
        value = 300  # within the 7*8*9 = 504 legal range
        enc = codec.encode(np.array([value]))
        enc[0, 0] = (enc[0, 0] + 3) % codec.full_set.moduli[0]
        enc[1, 0] = (enc[1, 0] + 5) % codec.full_set.moduli[1]
        decoded, details = codec.decode(enc)
        d = details[0]
        if d.ok:
            # If a value is returned it must agree with >= n + ceil(r/2)
            # channels, which a double error cannot fake for wrong values.
            assert d.agreeing_channels >= 4

    def test_detect_flags_corruption(self, codec):
        enc = codec.encode(np.array([77]))
        assert not codec.detect(enc[:, 0])
        enc[2, 0] = (enc[2, 0] + 1) % codec.full_set.moduli[2]
        assert codec.detect(enc[:, 0])


class TestLargerCodec:
    def test_paper_scale_codec(self, rng):
        """The k=5 set with two redundant moduli — the Section VI-E
        configuration family."""
        codec = RRNSCodec((31, 32, 33), (37, 41))
        values = rng.integers(0, codec.legal_range, size=10)
        enc = codec.encode(values)
        for j in range(enc.shape[1]):
            ch = int(rng.integers(0, enc.shape[0]))
            m = codec.full_set.moduli[ch]
            enc[ch, j] = (enc[ch, j] + int(rng.integers(1, m))) % m
        decoded, details = codec.decode(enc)
        assert np.array_equal(decoded, values)
        assert all(d.ok for d in details)
