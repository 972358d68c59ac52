"""Workload presets and token-budget grids.

The single source of truth for how a paper workload cell is named and
resolved: model presets (:data:`repro.model.config.MODEL_PRESETS`) x GPU
cluster presets (:data:`GPU_CLUSTERS`) x pipeline size x sequence
length.  The CLI, the experiment registry and the auto-tuner all resolve
workloads through this module, so ``--model 7B --gpu H20 -p 8
--seq-len 64k`` means the same cell everywhere.

Two layers live here:

- :class:`Workload` -- one experiment cell, carrying the model/cluster
  objects plus sequence length and micro-batch budget, with helpers to
  derive cost providers and build schedules through the registry.
- :class:`WorkloadGrid` -- the paper's Section 3.1 planning axis: a set
  of ``seq_len x pipeline_size`` points under a fixed token budget per
  iteration (production training fixes tokens/iteration, so longer
  sequences mean fewer micro batches).  Points whose micro batch exceeds
  :data:`MAX_MICRO_BATCH_TOKENS`, or whose budget cannot fit even one
  micro batch or exceeds :data:`MAX_MICRO_BATCHES`, are enumerated as
  *infeasible points with a reason*, never silently dropped -- the same
  reporting discipline the tuner applies to divisor-precluded
  candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.cluster.topology import ClusterSpec, a800_cluster, h20_cluster
from repro.costmodel.memory import RecomputeStrategy, model_state_bytes_per_stage
from repro.model.config import MODEL_PRESETS, ModelConfig
from repro.schedules.costs import PipelineCosts
from repro.schedules.ir import Schedule
from repro.schedules.registry import (
    available_schedules,
    get_schedule,
    workload_option_defaults,
)

__all__ = [
    "GPU_CLUSTERS",
    "MAX_MICRO_BATCHES",
    "MAX_MICRO_BATCH_TOKENS",
    "SEQ_LENS",
    "Workload",
    "WorkloadPoint",
    "WorkloadGrid",
    "format_seq_len",
]

#: Sequence lengths of the paper's evaluation (Section 5.1).
SEQ_LENS: tuple[int, ...] = (32768, 65536, 98304, 131072)

#: GPU preset name -> cluster factory, shared by :meth:`Workload.paper`
#: and the ``python -m repro`` CLI so the two resolve identically.
GPU_CLUSTERS = {"H20": h20_cluster, "A800": a800_cluster}

#: Largest micro-batch budget a workload may carry.  The tuner sweeps
#: every multiple of a schedule's divisor up to the budget, and each of
#: those candidates simulates a longer pipeline, so a cold sweep grows
#: about quadratically with the budget.
MAX_MICRO_BATCHES = 256

#: Largest micro batch a workload may carry, in tokens (``seq_len x
#: micro_batch``): 128 times the paper's longest sequence.  The cost
#: model prices a micro batch in floats, so an unbounded one overflows
#: to ``inf`` or raises :class:`OverflowError`.
MAX_MICRO_BATCH_TOKENS = 1 << 24

def _budget_above_cap(num_micro_batches: int) -> str | None:
    """Why a micro-batch budget is refused, or None when it is allowed."""
    if num_micro_batches <= MAX_MICRO_BATCHES:
        return None
    return (
        f"micro-batch budget {num_micro_batches} is above the maximum "
        f"of {MAX_MICRO_BATCHES}"
    )


def _micro_batch_above_cap(seq_len: int, micro_batch: int) -> str | None:
    """Why a micro batch is refused, or None when it is allowed."""
    if seq_len * micro_batch <= MAX_MICRO_BATCH_TOKENS:
        return None
    return (
        f"micro batch of sequence length {seq_len} x micro-batch size "
        f"{micro_batch} is above the maximum of {MAX_MICRO_BATCH_TOKENS} tokens"
    )


def format_seq_len(seq_len: int) -> str:
    """``65536`` -> ``"64k"`` (falls back to the plain number)."""
    if seq_len % 1024 == 0:
        return f"{seq_len // 1024}k"
    return str(seq_len)


@dataclass
class Workload:
    """One experiment cell: model x cluster x sequence length x pipeline size.

    Encodes the evaluation protocol of Section 5.1: one pipeline stage
    per node, Megatron sequence parallelism across the node's GPUs,
    micro-batch size 1 and a global batch of ``2 x pipeline size`` micro
    batches unless overridden.  A budget above :data:`MAX_MICRO_BATCHES`,
    the default included, or a micro batch above
    :data:`MAX_MICRO_BATCH_TOKENS` raises :class:`ValueError`.
    """

    model: ModelConfig
    cluster: ClusterSpec
    seq_len: int
    micro_batch: int = 1
    num_micro_batches: int | None = None  # default: 2 x pipeline size

    def __post_init__(self) -> None:
        if self.num_micro_batches is None:
            self.num_micro_batches = 2 * self.cluster.num_stages
        reason = _micro_batch_above_cap(
            self.seq_len, self.micro_batch
        ) or _budget_above_cap(self.num_micro_batches)
        if reason is not None:
            raise ValueError(reason)

    @classmethod
    def paper(
        cls,
        model_name: str,
        gpu: str,
        num_stages: int,
        seq_len: int,
        micro_batch: int = 1,
        num_micro_batches: int | None = None,
    ) -> "Workload":
        cluster = GPU_CLUSTERS[gpu](num_stages)
        return cls(
            model=MODEL_PRESETS[model_name],
            cluster=cluster,
            seq_len=seq_len,
            micro_batch=micro_batch,
            num_micro_batches=num_micro_batches,
        )

    @property
    def p(self) -> int:
        return self.cluster.num_stages

    @property
    def tokens_per_iteration(self) -> float:
        return float(self.num_micro_batches) * self.micro_batch * self.seq_len

    def costs(self, recompute: RecomputeStrategy, **kw) -> PipelineCosts:
        return PipelineCosts(
            model=self.model,
            cluster=self.cluster,
            micro_batch=self.micro_batch,
            seq_len=self.seq_len,
            recompute=recompute,
            **kw,
        )

    def static_memory(self) -> float:
        return model_state_bytes_per_stage(
            self.model, self.p, sp=self.cluster.sequence_parallel_size
        )

    def build(self, method: str, **kw) -> Schedule:
        """Build one method's schedule under the paper's settings.

        ``method`` is resolved through the schedule registry
        (:mod:`repro.schedules.registry`); the spec supplies the
        recomputation strategy it is designed around (baselines run
        without recomputation, Section 5.1; HelixPipe with
        recomputation-without-attention) and any workload-derived
        options it needs (AdaPipe plans under the GPU memory cap).
        Pass ``recompute=...`` or any spec option to override.
        """
        try:
            spec = get_schedule(method)
        except KeyError:
            raise ValueError(
                f"unknown method {method!r}; registered: {available_schedules()}"
            ) from None
        recompute = kw.pop("recompute", spec.default_recompute)
        opts = dict(kw)
        for name, value in workload_option_defaults(spec, self).items():
            opts.setdefault(name, value)
        return spec.build(
            (self.p, self.num_micro_batches), self.costs(recompute), **opts
        )


@dataclass(frozen=True)
class WorkloadPoint:
    """One enumerated grid point: a workload shape or an infeasibility.

    ``num_micro_batches`` is the point's micro-batch budget (rounded
    down from the grid's token budget when one is set); ``reason`` is
    ``None`` for real points and explains why the point cannot run at
    all otherwise (e.g. the token budget is below one micro batch of
    tokens).  Infeasible points never build a :class:`Workload`.
    """

    model: str
    gpu: str
    p: int
    seq_len: int
    micro_batch: int = 1
    num_micro_batches: int = 0
    reason: str | None = None

    @property
    def feasible(self) -> bool:
        return self.reason is None

    @property
    def label(self) -> str:
        return f"{self.model}/{self.gpu} p={self.p} s={format_seq_len(self.seq_len)}"

    def workload(self) -> Workload:
        """Resolve the point to a :class:`Workload` (feasible points only)."""
        if not self.feasible:
            raise ValueError(f"infeasible workload point {self.label}: {self.reason}")
        return Workload.paper(
            self.model,
            self.gpu,
            self.p,
            self.seq_len,
            micro_batch=self.micro_batch,
            num_micro_batches=self.num_micro_batches,
        )


@dataclass(frozen=True)
class WorkloadGrid:
    """A ``seq_len x pipeline_size`` sweep under a fixed token budget.

    The paper's Section 3.1 planning problem: tokens per iteration are
    fixed by the training recipe, so each ``(seq_len, p)`` point runs
    ``budget_tokens // (seq_len * micro_batch)`` micro batches.  With
    ``budget_tokens=None`` every point uses the protocol default of
    ``2 x p`` micro batches instead.

    Enumeration is total: a point whose micro batch is above
    :data:`MAX_MICRO_BATCH_TOKENS`, or whose budget cannot fit a single
    micro batch or comes to more than :data:`MAX_MICRO_BATCHES`, is
    yielded with an infeasibility reason rather than omitted, so
    downstream sweeps (and their reports) account for every requested
    cell.
    """

    model: str = "7B"
    gpu: str = "H20"
    seq_lens: tuple[int, ...] = SEQ_LENS
    pipeline_sizes: tuple[int, ...] = (4, 8)
    micro_batch: int = 1
    budget_tokens: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.model, str) or self.model not in MODEL_PRESETS:
            raise ValueError(
                f"unknown model preset {self.model!r}; "
                f"available: {sorted(MODEL_PRESETS)}"
            )
        if not isinstance(self.gpu, str) or self.gpu not in GPU_CLUSTERS:
            raise ValueError(
                f"unknown GPU preset {self.gpu!r}; "
                f"available: {sorted(GPU_CLUSTERS)}"
            )
        if not self.seq_lens:
            raise ValueError("WorkloadGrid needs at least one sequence length")
        if not self.pipeline_sizes:
            raise ValueError("WorkloadGrid needs at least one pipeline size")
        if any(s <= 0 for s in self.seq_lens):
            raise ValueError(f"sequence lengths must be positive: {self.seq_lens}")
        if any(p <= 0 for p in self.pipeline_sizes):
            raise ValueError(f"pipeline sizes must be positive: {self.pipeline_sizes}")
        if self.micro_batch <= 0:
            raise ValueError("micro_batch must be positive")
        if self.budget_tokens is not None and self.budget_tokens <= 0:
            raise ValueError("budget_tokens must be positive")

    def __len__(self) -> int:
        return len(self.seq_lens) * len(self.pipeline_sizes)

    @property
    def label(self) -> str:
        budget = (
            f"budget {self.budget_tokens} tokens"
            if self.budget_tokens is not None
            else "budget 2p micro-batches"
        )
        seqs = ",".join(format_seq_len(s) for s in self.seq_lens)
        ps = ",".join(str(p) for p in self.pipeline_sizes)
        return f"{self.model}/{self.gpu} s in {{{seqs}}} x p in {{{ps}}}, {budget}"

    def points(self) -> list["WorkloadPoint"]:
        return list(self.iter_points())

    def iter_points(self) -> Iterator["WorkloadPoint"]:
        """Yield every grid point in (seq_len, p) order, infeasible included."""
        for seq_len in self.seq_lens:
            seq_reason = self.seq_len_reason(seq_len)
            for p in self.pipeline_sizes:
                reason = seq_reason or self.pipeline_size_reason(p)
                if self.budget_tokens is None:
                    m = 2 * p
                else:
                    m = self.budget_tokens // (seq_len * self.micro_batch)
                yield WorkloadPoint(
                    model=self.model,
                    gpu=self.gpu,
                    p=p,
                    seq_len=seq_len,
                    micro_batch=self.micro_batch,
                    num_micro_batches=m if reason is None else 0,
                    reason=reason,
                )

    def seq_len_reason(self, seq_len: int) -> str | None:
        """Why no point of sequence length ``seq_len`` can run, or None.

        A point runs when both its sequence length and its pipeline size
        can: with a token budget, its micro-batch count depends on the
        sequence length alone; without one (2p), on the pipeline size
        alone.
        """
        reason = _micro_batch_above_cap(seq_len, self.micro_batch)
        if reason is not None or self.budget_tokens is None:
            return reason
        tokens = seq_len * self.micro_batch
        if self.budget_tokens < tokens:
            return (
                f"token budget {self.budget_tokens} < one "
                f"micro batch of {tokens} tokens"
            )
        return _budget_above_cap(self.budget_tokens // tokens)

    def pipeline_size_reason(self, p: int) -> str | None:
        """Why no point of pipeline size ``p`` can run, or None."""
        if self.budget_tokens is not None:
            return None
        return _budget_above_cap(2 * p)
