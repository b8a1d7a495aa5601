"""Hardware-attributed latency profiling.

Every simulated busy interval in the serving stack is priced by the
paper's analytic accelerator model, which makes it **exactly
decomposable**: a decode step is token-parallel GEMMs plus per-session
attention reads, a prefill chunk is its token GEMMs plus causal
attention over the resident context, and each GEMM in turn splits into
phase-shifter **reprogram** settles and modular-MVM **stream** cycles
(:func:`repro.arch.latency.mirage_gemm_components`).

:class:`HardwareAttributionProfiler` replays a run's telemetry through
``arch.inference`` component pricing and rolls the result up into a
flame-graph-style table (``decode/token_gemm/stream``, ``prefill/
attention/reprogram``, ...).  It is the only code that reprices a
finished run: each span's reconstruction — built in the engine's own
accumulation order — must equal the recorded duration **bit-for-bit**.
Strict profilers assert it, so the tracing layer is self-verifying; both
serving reports run a non-strict one and publish its
``max_abs_error_s`` as their ``analytic_consistency``.  The
reprogram/stream sub-split is a reporting view (streams are residuals,
``total - reprogram``); exactness is always stated on the totals, which
is the only identity floating-point addition guarantees.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ...arch.accelerator import MirageAccelerator
from ...arch.inference import (
    attention_token_components,
    chunked_prefill_components,
    inference_latency_components,
)
from ..shapes import model_layer_shapes

__all__ = ["HardwareAttributionProfiler"]


class _Rollup:
    """Seconds per ``phase/component/part`` path, plus span counts."""

    def __init__(self):
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    def add(self, path: str, seconds: float, count: int = 1) -> None:
        self.seconds[path] = self.seconds.get(path, 0.0) + seconds
        self.counts[path] = self.counts.get(path, 0) + count

    def table(self) -> List[Dict[str, Any]]:
        total = sum(self.seconds.values())
        rows = [
            {
                "path": path,
                "seconds": seconds,
                "share": (seconds / total) if total > 0.0 else 0.0,
                "spans": self.counts[path],
            }
            for path, seconds in self.seconds.items()
        ]
        rows.sort(key=lambda r: (-r["seconds"], r["path"]))
        return rows


class HardwareAttributionProfiler:
    """Split recorded busy time into analytic hardware components.

    ``strict=True`` (the default) raises ``AssertionError`` the moment a
    span's component reconstruction disagrees with the recorded duration
    by even one ulp — the engine's dispatch accounting and the hardware
    model must be the same arithmetic.  ``strict=False`` only measures:
    the largest disagreement comes back as ``max_abs_error_s``.
    """

    def __init__(
        self,
        accelerator: Optional[MirageAccelerator] = None,
        strict: bool = True,
    ):
        self.accelerator = accelerator or MirageAccelerator()
        self.strict = strict

    # ------------------------------------------------------------------
    # Token engine (EngineTelemetry step records)
    # ------------------------------------------------------------------
    def attribute_engine(self, profile, telemetry) -> Dict[str, Any]:
        """Attribute every step of a :class:`TokenServingEngine` run.

        ``profile`` is the engine's :class:`DecodeModelProfile`,
        ``telemetry`` its :class:`EngineTelemetry` after ``run()``.  The
        per-step reconstruction mirrors the engine's pricing order
        exactly: ``fl(token_gemms + attention)`` then ``+= chunk`` per
        prefill chunk — so ``attributed_s`` sums bit-identically to the
        recorded busy time and ``max_abs_error_s`` must be exactly zero.
        """
        accelerator = self.accelerator
        kv = profile.kv
        shape_memo: Dict[int, list] = {}
        token_memo: Dict[int, Dict[str, float]] = {}
        attn_memo: Dict[int, Dict[str, float]] = {}
        chunk_memo: Dict[tuple, Dict[str, float]] = {}

        def token_components(batch: int) -> Dict[str, float]:
            out = token_memo.get(batch)
            if out is None:
                shapes = shape_memo.get(batch)
                if shapes is None:
                    shapes = shape_memo[batch] = model_layer_shapes(
                        profile.name, profile.model, batch
                    )
                out = token_memo[batch] = inference_latency_components(
                    shapes, accelerator
                )
            return out

        def chunk_components(chunk: int, ctx: int) -> Dict[str, float]:
            key = (chunk, ctx)
            out = chunk_memo.get(key)
            if out is None:
                shapes = shape_memo.get(chunk)
                if shapes is None and chunk > 0:
                    shapes = shape_memo[chunk] = model_layer_shapes(
                        profile.name, profile.model, chunk
                    )
                out = chunk_memo[key] = chunked_prefill_components(
                    shapes or [], chunk, ctx, kv, accelerator
                )
            return out

        rollup = _Rollup()
        total_busy = 0.0
        attributed = 0.0
        stall_total = 0.0
        max_err = 0.0
        checked = 0
        for record in telemetry.steps:
            step_acc = 0.0
            if record.context_lens:
                token = token_components(len(record.context_lens))
                attn_total = 0.0
                attn_reprogram = 0.0
                for length in record.context_lens:
                    comp = attn_memo.get(length)
                    if comp is None:
                        comp = attn_memo[length] = attention_token_components(
                            kv, length, accelerator
                        )
                    attn_total += comp["total_s"]
                    attn_reprogram += comp["reprogram_s"]
                step_acc = token["total_s"] + attn_total
                rollup.add(
                    "decode/token_gemm/reprogram", token["reprogram_s"]
                )
                rollup.add("decode/token_gemm/stream", token["stream_s"])
                rollup.add("decode/attention/reprogram", attn_reprogram)
                rollup.add(
                    "decode/attention/stream", attn_total - attn_reprogram
                )
            for ctx, chunk in record.prefill_chunks:
                comp = chunk_components(chunk, ctx)
                step_acc += comp["total_s"]
                rollup.add("prefill/gemm/reprogram", comp["gemm_reprogram_s"])
                rollup.add(
                    "prefill/gemm/stream",
                    comp["gemm_s"] - comp["gemm_reprogram_s"],
                )
                rollup.add(
                    "prefill/attention/reprogram",
                    comp["attention_reprogram_s"],
                )
                rollup.add(
                    "prefill/attention/stream",
                    comp["attention_s"] - comp["attention_reprogram_s"],
                )
            err = abs(step_acc - record.step_s)
            if err > max_err:
                max_err = err
            if self.strict:
                assert err == 0.0, (
                    f"hardware attribution drifted from recorded step at "
                    f"t={record.t!r}: reconstructed {step_acc!r} vs recorded "
                    f"{record.step_s!r}"
                )
            checked += 1
            total_busy += record.step_s
            attributed += step_acc
            stall_total += record.stall_s
        if stall_total > 0.0:
            rollup.add(
                "stall/degraded_worker",
                stall_total,
                count=sum(1 for r in telemetry.steps if r.stall_s > 0.0),
            )
        return {
            "checked_spans": checked,
            "max_abs_error_s": max_err,
            "total_busy_s": total_busy,
            "attributed_s": attributed,
            "stall_s": stall_total,
            "components": rollup.table(),
        }

    # ------------------------------------------------------------------
    # Request-level runtime (Telemetry batch records)
    # ------------------------------------------------------------------
    def attribute_runtime(self, profiles, telemetry) -> Dict[str, Any]:
        """Attribute every dispatched batch of a :class:`ServingRuntime`.

        ``profiles`` maps model name -> :class:`ModelProfile` (the
        runtime's ``profiles()`` dict).  Each recorded batch's service
        time must equal the forward GEMM total at that batch size.
        """
        accelerator = self.accelerator
        memo: Dict[tuple, Dict[str, float]] = {}
        rollup = _Rollup()
        total_busy = 0.0
        attributed = 0.0
        max_err = 0.0
        checked = 0
        for record in telemetry.batches:
            key = (record.model, record.batch_size)
            comp = memo.get(key)
            if comp is None:
                prof = profiles[record.model]
                shapes = model_layer_shapes(
                    prof.name, prof.model, record.batch_size, prof.input_hw
                )
                comp = memo[key] = inference_latency_components(
                    shapes, accelerator
                )
            err = abs(comp["total_s"] - record.service_s)
            if err > max_err:
                max_err = err
            if self.strict:
                assert err == 0.0, (
                    f"batch service time drifted from the hardware model for "
                    f"{record.model} at batch {record.batch_size}: "
                    f"{comp['total_s']!r} vs {record.service_s!r}"
                )
            checked += 1
            total_busy += record.service_s
            attributed += comp["total_s"]
            rollup.add("request/gemm/reprogram", comp["reprogram_s"])
            rollup.add("request/gemm/stream", comp["stream_s"])
        return {
            "checked_spans": checked,
            "max_abs_error_s": max_err,
            "total_busy_s": total_busy,
            "attributed_s": attributed,
            "components": rollup.table(),
        }
