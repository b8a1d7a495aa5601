"""Tests for the fabricated (process-varied) tensor core — the
end-to-end Section VI-E calibration claim."""

import numpy as np
import pytest

from repro.bfp import BFPConfig
from repro.bfp.gemm import bfp_matmul_exact
from repro.core import CoreConfig, FabricatedTensorCore
from repro.photonic import VariationModel

SMALL = CoreConfig(bm=4, g=8, v=8, k=5)
COARSE = VariationModel(dac_bits=8, mrr_rel_error=0.01, ps_rel_bias_std=0.02,
                        seed=0)


def residue_error_rate(core, trials, seed=1):
    """Fraction of single modular dot products the core's devices decide
    wrongly, over random residue operands on every fabricated device."""
    rng = np.random.default_rng(seed)
    wrong = total = 0
    for mi, m in enumerate(core.mset.moduli):
        for dev in core._devices[mi]:
            x = rng.integers(0, m, size=(trials, core.config.g))
            w = rng.integers(0, m, size=(trials, core.config.g))
            exact = np.mod((x * w).sum(axis=-1), m)
            wrong += int(np.count_nonzero(dev.dot(x, w) != exact))
            total += trials
    return wrong / total


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(0)
    return rng.normal(size=(20, 40)), rng.normal(size=(40, 3))


@pytest.fixture(scope="module")
def raw_core():
    return FabricatedTensorCore(SMALL, COARSE, calibrate=None)


@pytest.fixture(scope="module")
def calibrated_core():
    return FabricatedTensorCore(SMALL, COARSE, calibrate="per_digit",
                                measurement_noise=0.002, repeats=2,
                                refine_iters=1)


class TestRawFabricatedCore:
    def test_devices_are_broken(self, raw_core):
        assert residue_error_rate(raw_core, trials=60) > 0.3

    def test_gemm_is_corrupted(self, raw_core, operands):
        w, x = operands
        ref = bfp_matmul_exact(w, x, BFPConfig(SMALL.bm, SMALL.g))
        assert not np.array_equal(raw_core.matmul(w, x), ref)

    def test_no_probes_spent(self, raw_core):
        assert raw_core.calibration_probes == 0


class TestCalibratedCore:
    def test_devices_recovered(self, calibrated_core):
        assert residue_error_rate(calibrated_core, trials=60) == 0.0

    def test_gemm_bit_exact_after_calibration(self, calibrated_core, operands):
        """Section VI-E end to end: the calibrated fabricated core matches
        the integer BFP reference bit for bit."""
        w, x = operands
        ref = bfp_matmul_exact(w, x, BFPConfig(SMALL.bm, SMALL.g))
        assert np.array_equal(calibrated_core.matmul(w, x), ref)

    def test_probe_budget_reported(self, calibrated_core):
        assert calibrated_core.calibration_probes > 0


class TestValidation:
    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            FabricatedTensorCore(SMALL, COARSE, calibrate="per_chip")

    def test_rejects_eq13_violation(self):
        with pytest.raises(ValueError):
            FabricatedTensorCore(CoreConfig(bm=5, g=64, k=4), COARSE,
                                 calibrate=None)

    def test_rejects_bad_shapes(self, raw_core):
        with pytest.raises(ValueError):
            raw_core.matmul(np.zeros((3, 4)), np.zeros((5, 2)))

    def test_per_mmu_mode_partial(self, operands):
        core = FabricatedTensorCore(SMALL, COARSE, calibrate="per_mmu",
                                    measurement_noise=0.0)
        # Shared-voltage correction alone cannot restore exactness.
        assert residue_error_rate(core, trials=60) > 0.0
