"""Tests for the experiment harness and reporting helpers."""

import pytest

from repro.analysis import (
    AccuracySetup,
    format_series,
    format_table,
    run_accuracy,
    run_adc_energy_ablation,
    run_dac_precision_ablation,
    run_dataflow_ablation,
    run_fig1b,
    run_fig5b,
    run_fig6a,
    run_fig6b,
    run_fig7a,
    run_fig7b,
    run_fig9,
    run_moduli_ablation,
    run_noise_study,
    run_table2,
    run_table3,
)

QUICK = AccuracySetup(epochs=1, samples_per_class=8, num_classes=4)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [(1, 2.5), (10, 3.25)])
        lines = text.splitlines()
        assert "a" in lines[0] and "bb" in lines[0]
        assert len(lines) == 4

    def test_format_table_title(self):
        text = format_table(["x"], [(1,)], title="T")
        assert text.startswith("T\n")

    def test_format_series(self):
        text = format_series("g", [1, 2], {"s1": [0.1, 0.2], "s2": [9.0, 8.0]})
        assert "s1" in text and "s2" in text


class TestFastExperiments:
    def test_fig1b(self):
        text = run_fig1b(8)
        assert "ADC" in text
        assert text.count("\n") >= 9

    def test_fig5b_series_shape(self):
        text, series = run_fig5b(g_values=(8, 16, 32), bm_values=(3, 4))
        assert set(series) == {"bm=3", "bm=4"}
        assert all(len(v) == 3 for v in series.values())

    def test_fig6a_declines(self):
        _, series = run_fig6a(mdpu_counts=(8, 32, 256))
        for name, vals in series.items():
            assert vals[0] >= vals[-1] - 1e-9, name

    def test_fig6b_declines(self):
        _, series = run_fig6b(array_counts=(4, 8, 64))
        for name, vals in series.items():
            assert vals[0] >= vals[-1] - 1e-9, name

    def test_fig7a_has_all_layers(self):
        text = run_fig7a()
        for layer in ("conv1", "conv5", "fc8"):
            assert layer in text

    def test_fig7b_opt_normalised(self):
        _, results = run_fig7b()
        for name, res in results.items():
            assert res["mirage"]["OPT2"] <= res["mirage"]["DF1"] + 1e-12
            assert res["systolic"]["OPT2"] <= min(
                res["systolic"]["DF1"], res["systolic"]["DF2"],
                res["systolic"]["DF3"]
            ) + 1e-12

    def test_fig9_mentions_components(self):
        text = run_fig9()
        for comp in ("sram", "laser", "tia", "photonic"):
            assert comp in text

    def test_table2(self):
        text = run_table2()
        assert "Mirage (measured)" in text and "FMAC" in text

    def test_table3(self):
        text = run_table3()
        assert "ADEPT" in text and "Mirage" in text

    def test_noise_study(self):
        text = run_noise_study()
        assert "DAC" in text and "m=31: 8 bits" in text


class TestAccuracyHarness:
    def test_fp32_quick_run(self):
        metric = run_accuracy("alexnet", "fp32", setup=QUICK)
        assert 0.0 <= metric <= 1.0

    def test_mirage_quick_run(self):
        metric = run_accuracy("alexnet", "mirage", bm=4, g=16, setup=QUICK)
        assert 0.0 <= metric <= 1.0

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            run_accuracy("lenet", "fp32", setup=QUICK)

    def test_yolo_task(self):
        metric = run_accuracy("yolo", "fp32", setup=QUICK)
        assert 0.0 <= metric <= 1.0

    def test_transformer_task(self):
        metric = run_accuracy("transformer", "fp32",
                              setup=AccuracySetup(epochs=1, samples_per_class=6))
        assert 0.0 <= metric <= 1.0


class TestAblations:
    def test_moduli_ablation_special_has_more_range_per_bit(self):
        text = run_moduli_ablation(n_values=20_000)
        assert "special k=5" in text and "arbitrary" in text

    def test_moduli_ablation_text_is_the_same_every_run(self):
        assert run_moduli_ablation(n_values=2_000) == run_moduli_ablation(
            n_values=2_000
        )

    def test_dac_precision_close_to_paper(self):
        text = run_dac_precision_ablation()
        assert "1.09x" in text or "vs baseline" in text

    def test_adc_energy_ablation(self):
        text = run_adc_energy_ablation()
        assert "conservative" in text

    def test_dataflow_ablation_positive_gains(self):
        text = run_dataflow_ablation()
        assert "OPT1 gain" in text and "average" in text

    def test_interleave_sweep_balanced_at_10(self):
        from repro.analysis import run_interleave_sweep

        text = run_interleave_sweep(factors=(5, 10, 20))
        assert "throughput bound" in text
        line10 = [l for l in text.splitlines() if l.strip().startswith("10 ")][0]
        assert line10.split("|")[1].strip() == "1"

    def test_batch_sweep_amortises_reprogram(self):
        from repro.analysis import run_batch_sweep

        text = run_batch_sweep(batches=(1, 64), model="AlexNet")
        rows = [l for l in text.splitlines() if "|" in l][1:]
        per_sample = [float(r.split("|")[2]) for r in rows]
        assert per_sample[0] > per_sample[1]

    def test_inference_qat_quick(self):
        from repro.analysis import run_inference_qat

        text = run_inference_qat(setup=QUICK, bm=3)
        assert "PTQ" in text and "QAT" in text

    def test_master_weight_ablation_quick(self):
        from repro.analysis import run_master_weight_ablation

        text = run_master_weight_ablation(setup=QUICK)
        assert "FP32 master" in text and "BFP-stored" in text
