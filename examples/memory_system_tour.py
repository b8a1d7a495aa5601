"""Why Mirage's digital side is sized the way it is (Section IV-C).

The photonic core retires one modular MVM every 0.1 ns; SRAM banks and
conversion circuits run at 1 GHz.  The paper bridges the gap with ten
interleaved copies of every digital resource and claims the result is
exactly balanced.  This tour checks that sizing from three independent
directions:

1. a **roofline**: arithmetic intensity of the tiled training GEMMs vs
   the interleaved SRAM bandwidth;
2. a **cycle-level simulation**: every vector pushed through the 8-stage
   pipeline, with reprogram stalls, vs the closed-form latency model;
3. the **knobs around the design point**: interleave factor and batch
   size, showing where the balance breaks.

Run:  python examples/memory_system_tour.py
"""

from repro.arch import (
    MirageConfig,
    gemm_intensity,
    mirage_bandwidth,
    simulate_gemm,
    validate_closed_form,
    workload,
    workload_roofline,
)
from repro.arch.memory import MemorySystemModel
from repro.arch.workloads import GemmShape

def main():
    config = MirageConfig()

    # ----------------------------------------------------------------------
    # 1. Roofline: partial-output read-accumulate-write caps intensity.
    # ----------------------------------------------------------------------
    ridge = config.peak_macs_per_s / mirage_bandwidth(config)
    print(f"peak compute   : {config.peak_macs_per_s / 1e12:.1f} TMAC/s")
    print(f"SRAM bandwidth : {mirage_bandwidth(config) / 1e12:.1f} TB/s "
          f"(8 arrays x 10 copies x 3 SRAM types x 1 GHz, vector-wide)")
    print(f"ridge point    : {ridge:.2f} MACs/byte\n")

    big = GemmShape(2048, 4096, 2048)
    print(f"a large conv-like GEMM runs at {gemm_intensity(big, config.v, config.g):.2f} "
          f"MACs/byte — pinned near g/8 = {config.g / 8:.0f} by the FP32 "
          "read-accumulate-write of partials (the Fig. 9 SRAM share).\n")

    for name in ("AlexNet", "ResNet18", "MobileNet", "Transformer"):
        points = workload_roofline(workload(name), config)
        bound = sum(p.memory_bound for p in points)
        eff = sum(p.attainable for p in points) / sum(p.peak_macs_per_s
                                                      for p in points)
        print(f"  {name:<12} {len(points):>3} training GEMMs, "
              f"{bound} memory-bound, permitted efficiency {eff:.2f}")

    # ----------------------------------------------------------------------
    # 2. Cycle-level simulation agrees with the closed form.
    # ----------------------------------------------------------------------
    print("\ndiscrete-event simulation vs closed-form latency:")
    for shape in ((64, 64, 256), (256, 363, 1024)):
        v = validate_closed_form(GemmShape(*shape))
        print(f"  {shape[0]}x{shape[1]}x{shape[2]}: simulated/analytic = "
              f"{v['ratio']:.3f} (constant {v['gap_cycles']:.0f}-cycle "
              "pipeline fill)")

    # ----------------------------------------------------------------------
    # 3. Break the balance: fewer copies starve the optics.
    # ----------------------------------------------------------------------
    print("\ninterleave factor vs sustained photonic utilisation (simulated):")
    for il in (10, 5, 2):
        cfg = MirageConfig(interleave_factor=il)
        secs, stats = simulate_gemm(GemmShape(256, 363, 1024), cfg)
        makespan = round(secs / cfg.cycle_time_s)
        static = MemorySystemModel(cfg).throughput_bound()
        print(f"  {il:>2} copies: MVM stage busy "
              f"{stats['mvm'].utilisation(makespan, 1):.0%} "
              f"(static model predicts {static:.0%})")

    print("""
Ten copies keep the optics at ~1 MVM per 0.1 ns — the paper's sizing —
and the static demand/capacity model, the roofline and the cycle-level
simulation all agree on where the balance sits and how it degrades.""")


if __name__ == "__main__":
    main()
