"""Execution-time model for transformer layer phases on a simulated GPU.

The paper partitions a layer into **pre-attention** (LayerNorm + QKV
linear), **attention** (causal flash attention) and **post-attention**
(output linear + LayerNorm + MLP) -- Figure 1.  This module predicts the
forward / backward-B / backward-W duration of each phase on a given
:class:`~repro.cluster.gpu.GPUSpec` using a roofline decomposition:

* GEMM-shaped FLOPs (Table 1) at the GPU's sustained matmul rate;
* attention FLOPs at the fused-attention rate, scaled by ``0.5`` for the
  causal mask (flash attention skips masked tiles);
* memory-bound elementwise ops (LayerNorm, GeLU) at HBM bandwidth.

All per-GPU costs are divided by the Megatron sequence-parallel size
``sp`` (8 inside a node in the paper's runs): GEMMs are tensor-parallel
over ``sp`` and elementwise ops act on ``s/sp`` sequence shards.

The predicted component shares reproduce paper Figure 3 (attention grows
from a sliver at 4k to the dominant share at 128k) and the absolute
milliseconds for the 7B layer reproduce the magnitudes of Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.gpu import GPUSpec
from repro.costmodel.table1 import op_costs
from repro.model.config import ModelConfig

__all__ = [
    "PhaseTimes",
    "LayerTimes",
    "TimingModel",
    "unit_layer_times",
]

_FP16_BYTES = 2.0
#: Flash attention computes only the lower-triangular tiles under a causal
#: mask, halving the effective FLOPs relative to Table 1's dense count.
CAUSAL_FACTOR = 0.5


@dataclass(frozen=True)
class PhaseTimes:
    """Durations (seconds) of one layer phase.

    ``bwd_b`` is the input-gradient pass, ``bwd_w`` the weight-gradient
    pass (zero for the non-parameterised attention phase).
    """

    fwd: float
    bwd_b: float
    bwd_w: float

    @property
    def bwd(self) -> float:
        """Combined backward time when B and W are not decoupled."""
        return self.bwd_b + self.bwd_w

    def scaled(self, k: float) -> "PhaseTimes":
        return PhaseTimes(self.fwd * k, self.bwd_b * k, self.bwd_w * k)

    def __add__(self, other: "PhaseTimes") -> "PhaseTimes":
        return PhaseTimes(
            self.fwd + other.fwd,
            self.bwd_b + other.bwd_b,
            self.bwd_w + other.bwd_w,
        )


@dataclass(frozen=True)
class LayerTimes:
    """Phase times of a full transformer layer.

    ``qkv`` isolates the QKV linear so schedules can move its computation
    to the attention stage under HelixPipe's weight-shipping optimisation
    (Section 4.2); ``pre`` always *includes* qkv, so consumers subtract.
    """

    pre: PhaseTimes
    attn: PhaseTimes
    post: PhaseTimes
    qkv: PhaseTimes

    @property
    def fwd(self) -> float:
        return self.pre.fwd + self.attn.fwd + self.post.fwd

    @property
    def bwd(self) -> float:
        return self.pre.bwd + self.attn.bwd + self.post.bwd

    @property
    def total(self) -> float:
        return self.fwd + self.bwd


class TimingModel:
    """Roofline timing for one micro batch on one GPU of a stage.

    Parameters
    ----------
    gpu:
        Device spec providing sustained rates.
    model:
        Architecture (hidden size is what matters here).
    micro_batch:
        Micro batch size ``b`` (paper uses 1 for long sequences).
    seq_len:
        Full sequence length ``s``.
    sp:
        Sequence-parallel size inside the stage (divides all per-GPU
        work); 8 in the paper's clusters.
    causal:
        Apply the causal-mask FLOP discount to attention.
    """

    def __init__(
        self,
        gpu: GPUSpec,
        model: ModelConfig,
        micro_batch: int = 1,
        seq_len: int = 4096,
        sp: int = 8,
        causal: bool = True,
    ) -> None:
        if micro_batch <= 0 or seq_len <= 0 or sp <= 0:
            raise ValueError("micro_batch, seq_len and sp must be positive")
        self.gpu = gpu
        self.model = model
        self.b = micro_batch
        self.s = seq_len
        self.sp = sp
        self.causal = causal
        self._ops = op_costs(micro_batch, seq_len, model.hidden_size)

    # -- helpers -----------------------------------------------------------

    def _gemm(self, flops: float) -> float:
        return self.gpu.gemm_time(flops / self.sp)

    def _attn(self, flops: float) -> float:
        k = CAUSAL_FACTOR if self.causal else 1.0
        return self.gpu.attn_time(flops * k / self.sp)

    def _elemwise(self, elems: float, passes: float) -> float:
        """Memory-bound op touching ``elems`` fp16 elements ``passes`` times."""
        return self.gpu.membound_time(elems * passes * _FP16_BYTES / self.sp)

    # -- phases ------------------------------------------------------------

    def qkv_times(self) -> PhaseTimes:
        """The QKV linear alone (movable under weight shipping)."""
        op = self._ops["qkv_linear"]
        return PhaseTimes(
            fwd=self._gemm(op.fwd_flops),
            bwd_b=self._gemm(op.bwd_b_flops),
            bwd_w=self._gemm(op.bwd_w_flops),
        )

    def pre_attention_times(self) -> PhaseTimes:
        """LayerNorm + QKV linear (paper Fig. 1 'pre-attention')."""
        bsh = float(self.b) * self.s * self.model.hidden_size
        ln = PhaseTimes(
            fwd=self._elemwise(bsh, 2.0),
            bwd_b=self._elemwise(bsh, 4.0),
            bwd_w=0.0,
        )
        return ln + self.qkv_times()

    def attention_times(self) -> PhaseTimes:
        """Causal flash attention (non-parameterised: no backward-W)."""
        op = self._ops["attention"]
        return PhaseTimes(
            fwd=self._attn(op.fwd_flops),
            bwd_b=self._attn(op.bwd_b_flops),
            bwd_w=0.0,
        )

    def post_attention_times(self) -> PhaseTimes:
        """O linear + LayerNorm + Linear1 + GeLU + Linear2."""
        h = self.model.hidden_size
        bsh = float(self.b) * self.s * h
        gemm_fwd = gemm_bwd_b = gemm_bwd_w = 0.0
        for name in ("o_linear", "linear1", "linear2"):
            op = self._ops[name]
            gemm_fwd += op.fwd_flops
            gemm_bwd_b += op.bwd_b_flops
            gemm_bwd_w += op.bwd_w_flops
        # LayerNorm on bsh elements + GeLU on 4bsh elements.
        elem_fwd = self._elemwise(bsh, 2.0) + self._elemwise(4 * bsh, 2.0)
        elem_bwd = self._elemwise(bsh, 4.0) + self._elemwise(4 * bsh, 4.0)
        return PhaseTimes(
            fwd=self._gemm(gemm_fwd) + elem_fwd,
            bwd_b=self._gemm(gemm_bwd_b) + elem_bwd,
            bwd_w=self._gemm(gemm_bwd_w),
        )

    def layer_times(self) -> LayerTimes:
        return LayerTimes(
            pre=self.pre_attention_times(),
            attn=self.attention_times(),
            post=self.post_attention_times(),
            qkv=self.qkv_times(),
        )

    # -- embedding / head (Section 4.6) -------------------------------------

    def embedding_times(self) -> PhaseTimes:
        """Word + position embedding lookup (memory bound)."""
        bsh = float(self.b) * self.s * self.model.hidden_size
        return PhaseTimes(
            fwd=self._elemwise(bsh, 3.0),
            bwd_b=0.0,
            bwd_w=self._elemwise(bsh, 3.0),
        )

    def head_times(self) -> PhaseTimes:
        """Final LM head GEMM + softmax cross-entropy."""
        b, s = self.b, self.s
        h, v = self.model.hidden_size, self.model.vocab_size
        gemm = 2.0 * b * s * h * v
        softmax = self._elemwise(float(b) * s * v, 3.0)
        return PhaseTimes(
            fwd=self._gemm(gemm) + softmax,
            bwd_b=self._gemm(gemm) + softmax,
            bwd_w=self._gemm(gemm),
        )

    # -- aggregates ----------------------------------------------------------

    def breakdown(self) -> dict[str, float]:
        """Named durations used by the Figure 3 reproduction."""
        lt = self.layer_times()
        return {
            "pre_attn_fwd": lt.pre.fwd,
            "attn_fwd": lt.attn.fwd,
            "post_attn_fwd": lt.post.fwd,
            "pre_attn_bwd": lt.pre.bwd,
            "attn_bwd": lt.attn.bwd,
            "post_attn_bwd": lt.post.bwd,
        }


def unit_layer_times(ratio: tuple[float, float, float] = (1.0, 3.0, 2.0)) -> LayerTimes:
    """Abstract unit-time layer used by the paper's schedule figures.

    The paper draws Figures 2, 5, 6 and 7 with a pre : attn : post
    execution-time ratio of 1:3:2 and backward == forward.  The returned
    :class:`LayerTimes` encodes exactly that, splitting backward evenly
    between B and W for phases that have parameters.
    """
    pre, attn, post = (float(x) for x in ratio)
    return LayerTimes(
        pre=PhaseTimes(fwd=pre, bwd_b=pre / 2, bwd_w=pre / 2),
        attn=PhaseTimes(fwd=attn, bwd_b=attn, bwd_w=0.0),
        post=PhaseTimes(fwd=post, bwd_b=post / 2, bwd_w=post / 2),
        qkv=PhaseTimes(fwd=pre / 2, bwd_b=pre / 4, bwd_w=pre / 4),
    )
