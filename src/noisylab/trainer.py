"""Training loop with per-batch sample selection.

Every epoch walks a fresh shuffled batch plan. During warm-up, or when no
selection variant is configured, the whole batch trains. Afterwards each
batch is scored, the top share by score is kept, and only those samples
contribute to the gradient step.

Penalty labels follow one of two update strategies, both refreshed at every
epoch end and consumed throughout the next epoch:

* stacked: confidences already computed for each batch are accumulated
  per observed class across the epoch, then turned into the estimate.
* repredict: the model re-predicts the full training set at epoch end and
  the estimate comes from that single fresh pass.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial

import numpy as np

from .criteria import (
    ConfidenceAccumulator,
    PenaltyLabelSet,
    criteria_all,
    criteria_ol,
    criteria_pl,
    descending_order,
    estimate_penalty_labels,
)
from .data import LabeledDataset, epoch_batches
from .losses import SlConfig, ce_grad_logits, sl_grad_logits
from .metrics import EpochStats, RunRecord, selection_precision, test_error
from .network import LrSchedule, MomentumSgd, Mlp, check_momentum
from .noise import NoiseSpec, build_transition, corrupt_labels
from .seeding import INIT_STREAM, NOISE_STREAM, SHUFFLE_STREAM

PREDICT_CHUNK = 4096


class Variant(str, Enum):
    """Which score drives selection; NONE disables selection entirely."""

    NONE = "none"
    OL = "ol"
    PL = "pl"
    ALL = "all"


class PenaltyUpdate(str, Enum):
    STACKED = "stacked"
    REPREDICT = "repredict"


class LossKind(str, Enum):
    CE = "ce"
    SL = "sl"


@dataclass(frozen=True)
class CriteriaConfig:
    variant: Variant = Variant.ALL
    lam: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "variant", Variant(self.variant))
        if not 0.0 <= self.lam < math.inf:  # NaN fails this too
            raise ValueError("lambda must be finite and non-negative")


@dataclass(frozen=True)
class TrainConfig:
    """Everything one run needs besides the data itself.

    ``select_fraction`` is the percentage of each batch kept once selection
    starts; leave it None to derive 100 * (1 - epsilon) from the noise spec.
    """

    epochs: int = 100
    warmup_epochs: int = 25
    batch_size: int = 128
    select_fraction: float | None = None
    hidden: tuple[int, ...] = (64, 64)
    learning_rate: float = 0.1
    lr_milestones: tuple[tuple[int, float], ...] = ((50, 0.2), (75, 0.2))
    momentum: float = 0.9
    criteria: CriteriaConfig = field(default_factory=CriteriaConfig)
    penalty_update: PenaltyUpdate = PenaltyUpdate.STACKED
    loss: LossKind = LossKind.CE
    sl: SlConfig = field(default_factory=SlConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "penalty_update", PenaltyUpdate(self.penalty_update))
        object.__setattr__(self, "loss", LossKind(self.loss))
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        # warmup may equal epochs: that run never selects and must match a
        # plain run exactly.
        if not 0 <= self.warmup_epochs <= self.epochs:
            raise ValueError("warmup_epochs must be in [0, epochs]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.select_fraction is not None and not 0.0 < self.select_fraction <= 100.0:
            raise ValueError("select_fraction must be in (0, 100]")
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden widths must be positive")
        # The schedule and the optimizer own these ranges; check them before any run.
        LrSchedule(self.learning_rate, self.lr_milestones)
        check_momentum(self.momentum)


@dataclass(frozen=True)
class SelectionOutcome:
    """Indices kept from one batch, ascending."""

    selected_indices: np.ndarray


def select_top_r(scores: np.ndarray, r_percent: float) -> SelectionOutcome:
    """Keep the ceil(n * r / 100) highest-scoring indices, never fewer than 1.

    Ties break toward the lower original index. Returned indices are sorted
    ascending so downstream gradient math runs in a canonical order.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("scores must be a non-empty 1-d array")
    if not 0.0 < r_percent <= 100.0:
        raise ValueError("r_percent must be in (0, 100]")
    n = scores.size
    count = min(n, max(1, math.ceil(n * r_percent / 100.0)))
    chosen = np.sort(descending_order(scores)[:count])
    return SelectionOutcome(chosen)


def batch_scores(
    variant: Variant,
    confidences: np.ndarray,
    observed_onehot: np.ndarray,
    penalty_rows: np.ndarray,
    lam: float,
) -> np.ndarray:
    """Selection score under the given variant, higher meaning cleaner.

    The penalty-only variant keeps the samples least aligned with their
    penalty label, hence the sign flip.
    """
    if variant is Variant.OL:
        return criteria_ol(confidences, observed_onehot)
    if variant is Variant.PL:
        return -criteria_pl(confidences, penalty_rows)
    if variant is Variant.ALL:
        return criteria_all(confidences, observed_onehot, penalty_rows, lam)
    raise ValueError(f"variant {variant} does not score batches")


@dataclass
class TrainState:
    """Mutable state threaded through the epoch loop."""

    net: Mlp
    opt: MomentumSgd
    penalty: PenaltyLabelSet
    estimates: dict[PenaltyUpdate, PenaltyLabelSet] = field(default_factory=dict)  # per strategy


@dataclass(frozen=True)
class RunResult:
    records: tuple[RunRecord, ...]
    penalty_history: tuple[PenaltyLabelSet, ...]
    replayed: int  # epochs taken from an EpochCache instead of trained

    @property
    def best_test_error(self) -> float:
        return min(r.test_error for r in self.records)

    @property
    def final(self) -> RunRecord:
        return self.records[-1]


def init_state(config: TrainConfig, d: int, k: int) -> TrainState:
    net = Mlp((d, *config.hidden, k), seed=(config.seed, INIT_STREAM))
    opt = MomentumSgd(
        net, config.momentum, LrSchedule(config.learning_rate, config.lr_milestones)
    )
    # Nothing accumulated yet: every row is the uniform fallback, stamped -1.
    return TrainState(net, opt, estimate_penalty_labels(ConfidenceAccumulator(k), -1))


def predict_in_chunks(net: Mlp, features: np.ndarray) -> np.ndarray:
    parts = [
        net.confidences(features[i : i + PREDICT_CHUNK])
        for i in range(0, features.shape[0], PREDICT_CHUNK)
    ]
    return np.concatenate(parts, axis=0)


def train_epoch(
    state: TrainState, dataset: LabeledDataset, config: TrainConfig, epoch: int, strategies: tuple = ()
) -> EpochStats:
    """Run one epoch in place and refresh the penalty estimate at its end.

    ``state.estimates`` holds the estimate of its strategy and of each one in ``strategies``.
    Consumed penalty labels must carry the previous epoch's stamp; anything
    else means the update order broke, and the epoch refuses to run.
    """
    k = dataset.k
    criteria = epoch_key(config, epoch)[0].criteria  # selection reads only what the epoch key keeps
    selecting = criteria.variant is not Variant.NONE
    if selecting and config.select_fraction is None:
        raise ValueError("select_fraction is unset; resolve it before training")
    if criteria.variant in (Variant.PL, Variant.ALL):
        if state.penalty.epoch_of_estimate != epoch - 1:
            raise RuntimeError(
                f"penalty labels stamped {state.penalty.epoch_of_estimate} "
                f"consumed in epoch {epoch}"
            )

    eye = np.eye(k)
    grad_fn = ce_grad_logits if config.loss is LossKind.CE else partial(sl_grad_logits, config=config.sl)
    wanted = (config.penalty_update, *strategies)
    stacked = ConfidenceAccumulator(k) if PenaltyUpdate.STACKED in wanted else None  # this epoch's only
    trained: list[np.ndarray] = []  # the rows each step trains on

    for batch in epoch_batches(dataset, config.batch_size, (config.seed, SHUFFLE_STREAM), epoch):
        # One forward pass per step: it scores the batch, and the rows that
        # are kept backpropagate from it.
        fwd = state.net.forward(dataset.features[batch])
        observed = dataset.observed_labels[batch]
        targets = eye[observed]
        if stacked is not None:
            stacked.stack_confidences(fwd.probs, observed)
        if selecting:
            scores = batch_scores(
                criteria.variant, fwd.probs, targets, state.penalty.labels[observed], criteria.lam
            )
            kept = select_top_r(scores, config.select_fraction).selected_indices
            fwd = fwd.take(kept)
            targets = targets[kept]
            batch = batch[kept]
        trained.append(batch)
        grads = state.net.backward(fwd.inputs[0], targets, grad_fn, forward=fwd)
        state.opt.step(state.net, grads, epoch)

    state.estimates = {}
    if stacked is not None:  # estimated and let go before the repredict pass, which needs as much memory
        state.estimates[PenaltyUpdate.STACKED] = estimate_penalty_labels(stacked, epoch)
        stacked = None
    if PenaltyUpdate.REPREDICT in wanted:
        repredicted = ConfidenceAccumulator(k)
        repredicted.stack_confidences(predict_in_chunks(state.net, dataset.features), dataset.observed_labels)
        state.estimates[PenaltyUpdate.REPREDICT] = estimate_penalty_labels(repredicted, epoch)
    state.penalty = state.estimates[config.penalty_update]

    rows = np.concatenate(trained)
    return EpochStats(
        rows.size,
        selection_precision(rows, dataset.clean_mask) if selecting else None,
        tuple(int(c) for c in np.bincount(dataset.observed_labels[rows], minlength=k)),
    )


def resolve_select_fraction(config: TrainConfig, noise_spec: NoiseSpec) -> float:
    """Configured fraction, or 100 * (1 - epsilon) when left unset."""
    if config.select_fraction is not None:
        return config.select_fraction
    return 100.0 * (1.0 - noise_spec.epsilon)


def epoch_key(config: TrainConfig, epoch: int) -> tuple[TrainConfig, int]:
    """The config and epoch, with the fields this epoch's training does not read erased."""
    variant = config.criteria.variant if epoch >= config.warmup_epochs else Variant.NONE
    if variant is not Variant.ALL:  # only all reads lambda
        config = replace(config, criteria=CriteriaConfig(variant))
    if variant in (Variant.NONE, Variant.OL):  # neither reads penalty labels
        config = replace(config, penalty_update=PenaltyUpdate.STACKED)
    return config, epoch


class EpochCache:
    """The epochs that the planned runs of one trainer share, each trained by the first to reach it."""

    def __init__(self, plan: list[TrainConfig], train: LabeledDataset, test: LabeledDataset, spec: NoiseSpec):
        self.inputs = (train, test, spec)
        keys = [(epoch_key(c, e), c.penalty_update) for c in plan for e in range(c.epochs)]
        self.users = Counter(keys)  # planned runs per epoch key and update strategy
        self.readers = Counter(key for key, _ in keys)  # planned runs yet to reach each epoch key
        self.found: dict = {}  # key -> the record, estimates and weights its epoch left


def deal(plan: list[TrainConfig], teams: int, threads: int) -> list[list[int]]:
    """Plan indices per trainer, in plan order, for the trainer count modelled to finish first on ``teams`` CPU teams.

    A chain is the runs of one seed whose every epoch key is the same, which one EpochCache trains once. For each
    trainer count up to one per chain, seeds are dealt whole if at least as many as the trainers, else chains,
    costliest first to the least-loaded trainer. While r trainers remain, each runs at min(1, teams / r) speed,
    and the earliest finish wins, ties to fewer trainers. Trainers outnumber the teams only when a team is one
    BLAS thread (``threads``), so that no BLAS workers spin against each other.
    """
    ids: dict = {}  # epoch key -> a small int, so that a share's epochs are a union of int sets
    epochs = [{ids.setdefault(epoch_key(c, e), len(ids)) for e in range(c.epochs)} for c in plan]
    chain = [ids[epoch_key(c, c.epochs - 1)] for c in plan]

    def cost(unit: list[int]) -> int:  # trained epochs, plus one for each that runs a repredict pass
        passes = (epochs[i] for i in unit if plan[i].penalty_update is PenaltyUpdate.REPREDICT)
        return len(set().union(*(epochs[i] for i in unit))) + len(set().union(*passes))

    def lpt(width: int) -> list[list[int]]:
        key = chain if len({c.seed for c in plan}) < width else [c.seed for c in plan]
        units = [[i for i, k in enumerate(key) if k == unit] for unit in dict.fromkeys(key)]
        shares, loads = [[] for _ in range(width)], [0] * width
        for unit in sorted(units, key=cost, reverse=True):  # a stable sort: equal units keep plan order
            shares[least := loads.index(min(loads))] += unit  # ties go to the lower trainer
            loads[least] += cost(unit)
        return [sorted(share) for share in shares]

    def finish(shares: list[list[int]]) -> int:  # times teams, so exact; `left` trainers run at min(1, teams / left)
        loads = sorted(map(cost, shares))
        return sum((b - a) * max(teams, left) for a, b, left in zip([0, *loads], loads, range(len(loads), 0, -1)))

    chains = len(set(chain))
    widest = max(1, chains if threads == 1 else min(teams, chains))  # an empty plan gets one empty share
    return min(map(lpt, range(1, widest + 1)), key=finish)  # of equal finishes, min keeps the fewest trainers


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value raises NumericalFault instead
def run_experiment(
    config: TrainConfig,
    train_clean: LabeledDataset,
    test: LabeledDataset,
    noise_spec: NoiseSpec,
    cache: EpochCache | None = None,
) -> RunResult:
    """Corrupt, train, and record one full run.

    The corruption draw is keyed by the run seed alone, so runs that share a
    seed see the same noisy labels no matter which variant they train.
    Returns per-epoch records plus every penalty estimate along the way.
    With a ``cache``, the epochs an earlier planned run trained alike are replayed from it;
    without one, the run goes through a cache planned for it alone, which shares nothing.
    """
    if (got := (test.k, test.d)) != (want := (train_clean.k, train_clean.d)):
        raise ValueError(f"test set (k, d) = {got} must equal the train set's {want}")
    cache = cache or EpochCache([config], train_clean, test, noise_spec)
    if any(a is not b for a, b in zip(cache.inputs, (train_clean, test, noise_spec))):
        raise ValueError("the epoch cache was built for another train set, test set or noise spec")
    matrix = build_transition(noise_spec, train_clean.k)
    noisy = corrupt_labels(train_clean, matrix, (config.seed, NOISE_STREAM))
    resolved = replace(config, select_fraction=resolve_select_fraction(config, noise_spec))
    state = init_state(resolved, train_clean.d, train_clean.k)
    users, readers, found = cache.users, cache.readers, cache.found

    records: list[RunRecord] = []
    history: list[PenaltyLabelSet] = []
    replayed, weights = 0, None  # where the epochs replayed so far left the weights
    for epoch in range(config.epochs):
        key = epoch_key(config, epoch)
        if key in found:  # an earlier run trained it alike
            replayed, (record, estimates, weights) = replayed + 1, found[key]
            state.penalty = estimates[config.penalty_update]
        else:
            if replayed == epoch > 0:  # the first epoch this run trains itself
                if weights is None:  # the run that trained them failed, or the calls left the plan
                    raise RuntimeError(f"epoch {epoch - 1} kept no weights to resume training from")
                state.net.params[:], state.opt.velocity[:] = weights
            own = config.penalty_update
            others = tuple(s for s in PenaltyUpdate if users[key, s] > (s is own))  # what other runs use
            stats = train_epoch(state, noisy, resolved, epoch, others)
            predictions = np.argmax(predict_in_chunks(state.net, test.features), axis=1)
            record = RunRecord(**vars(stats), epoch=epoch, test_error=test_error(predictions, test.true_labels))
            if others:  # keep the weights if some of its runs part from this one after it, to train a later epoch
                parting = epoch + 1 < config.epochs and readers[epoch_key(config, epoch + 1)] < readers[key]
                kept = (state.net.params.copy(), state.opt.velocity.copy()) if parting else None
                found[key] = (record, {s: state.estimates[s] for s in others}, kept)
        readers[key] -= 1
        if not readers[key]:
            found.pop(key, None)
        history.append(state.penalty)
        records.append(record)  # a replayed epoch's record is the object the run that trained it made
    return RunResult(tuple(records), tuple(history), replayed)
