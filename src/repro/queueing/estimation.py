"""Estimated symbiosis rates: the observation-driven policy layer.

Every scheduler in the reproduction reads symbiosis rates through the
:class:`~repro.microarch.rates.RateSource` protocol, historically
straight from the microarch model — an oracle the paper's real SMT
hardware never had.  This module adds the realistic alternative in the
Gavel/Shockwave idiom: policies decide on *estimates* maintained from
noisy observed progress, while the simulator keeps stepping jobs with
the true rates (the physics never lies; only the scheduler's view of
it does).

:class:`ThroughputEstimator` implements the split.  It maintains
per-coschedule EMA estimates (``est += alpha * (observed - est)``) from
observations fed by the engines' sync loop, with configurable
multiplicative or additive observation noise drawn from a dedicated
derived RNG stream (:func:`repro.util.rng.derive_rng`), cold-start
priors built from single-run profiles, per-coschedule confidence
tracked by observation count, and **epoch publishing**: observations
accumulate into a pending table and only become visible to policies
when the estimator publishes (every ``reopt_observations``
observations), at which point registered listeners fire — the cluster
uses them to flush the policy-side rate memo and re-solve dispatcher
affinity matrices (the "periodic re-optimization rounds").

Bit-identity discipline (load-bearing for the differential harness):
with ``noise=0`` and the warm ``"oracle"`` prior, every estimate is
initialized to the exact true float and the EMA update adds exactly
``alpha * 0.0``, so estimates stay bit-equal to the oracle forever and
estimated-mode runs are pick-for-pick identical to oracle mode.  The
update is deliberately written ``e + alpha * (o - e)`` — the algebraic
twin ``(1-alpha)*e + alpha*o`` would *not* round-trip bit-exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import EstimationError
from repro.microarch.rates import RateSource, canonical_coschedule
from repro.util.rng import derive_rng

__all__ = [
    "EstimationConfig",
    "ThroughputEstimator",
    "NOISE_MODELS",
    "PRIORS",
    "EMA_ALPHA",
    "REOPT_OBSERVATIONS",
]

NOISE_MODELS = ("multiplicative", "additive")
PRIORS = ("oracle", "optimistic", "pessimistic", "single_run")

# Gavel/Shockwave defaults (SNIPPETS.md Snippet 2): a fast-moving EMA
# republished to the optimizer every few rounds of observations.
EMA_ALPHA = 0.5
REOPT_OBSERVATIONS = 64

NOISE_STREAM = "observation-noise"


@dataclass(frozen=True)
class EstimationConfig:
    """Knobs of a :class:`ThroughputEstimator`.

    Attributes:
        alpha: EMA smoothing factor in ``(0, 1]`` (1.0 = keep only the
            latest observation).
        noise: observation-noise level.  Multiplicative noise scales
            each observed rate by ``1 + noise * N(0, 1)``; additive
            noise adds ``noise * N(0, 1)`` in absolute rate units.
            ``0.0`` reproduces the true rates bit for bit.
        noise_model: ``"multiplicative"`` or ``"additive"``.
        prior: cold-start estimate for a coschedule never observed.
            ``"oracle"`` warm-starts at the true rates (the
            equivalence-test mode); the realistic modes query the true
            source only for *single-run* (size-1) coschedules — the
            profiling the paper's hardware could actually do — and
            assume ``"optimistic"`` (no interference),
            ``"pessimistic"`` (full time-sharing, alone rate divided
            by the coschedule size), or ``"single_run"`` (the midpoint
            degradation ``2 / (1 + size)`` between those two).
        reopt_observations: publish the pending estimates (and fire
            re-optimization listeners) every this many observations;
            ``0`` disables periodic publishing entirely.
        confidence_scale: half-saturation constant of the confidence
            curve ``n / (n + scale)``.
        seed: seed of the dedicated ``observation-noise`` RNG stream.
    """

    alpha: float = EMA_ALPHA
    noise: float = 0.0
    noise_model: str = "multiplicative"
    prior: str = "oracle"
    reopt_observations: int = REOPT_OBSERVATIONS
    confidence_scale: float = 4.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise EstimationError(
                f"alpha must be in (0, 1], got {self.alpha}"
            )
        if not self.noise >= 0.0:
            raise EstimationError(
                f"noise level must be non-negative, got {self.noise}"
            )
        if self.noise_model not in NOISE_MODELS:
            raise EstimationError(
                f"unknown noise model {self.noise_model!r}; "
                f"choose one of {NOISE_MODELS}"
            )
        if self.prior not in PRIORS:
            raise EstimationError(
                f"unknown prior {self.prior!r}; choose one of {PRIORS}"
            )
        if self.reopt_observations < 0:
            raise EstimationError(
                "reopt_observations must be >= 0, "
                f"got {self.reopt_observations}"
            )
        if not self.confidence_scale > 0.0:
            raise EstimationError(
                f"confidence_scale must be positive, "
                f"got {self.confidence_scale}"
            )


class ThroughputEstimator:
    """Per-coschedule EMA rate estimates from noisy observed progress.

    The estimator is a :class:`~repro.microarch.rates.RateSource`:
    ``type_rates`` serves the **published** table, which changes only
    at publish points, so per-run memoization on top of it stays exact
    between re-optimization rounds.  The engines feed it one
    observation per positive-span machine sync via
    :meth:`observe_interval`.

    Args:
        source: the true rate source observations are drawn from (and
            the single-run profiles priors are built from).  Unknown
            attributes delegate to it.
        config: estimation knobs (:class:`EstimationConfig`).
    """

    kind = "estimated"

    def __init__(
        self, source: RateSource, config: EstimationConfig | None = None
    ) -> None:
        self.source = source
        self.config = config if config is not None else EstimationConfig()
        self.epoch = 0
        self.total_observations = 0
        self._since_publish = 0
        self._rng = derive_rng(self.config.seed, NOISE_STREAM)
        self._published: dict[tuple[str, ...], dict[str, float]] = {}
        self._pending: dict[tuple[str, ...], dict[str, float]] = {}
        self._counts: dict[tuple[str, ...], int] = {}
        self._alone: dict[str, float] = {}
        self._listeners: list[Callable[["ThroughputEstimator"], None]] = []

    # ------------------------------------------------------------------
    # RateSource protocol: serve the published estimates
    # ------------------------------------------------------------------
    def type_rates(self, coschedule: Sequence[str]) -> dict[str, float]:
        """Published estimate for ``coschedule`` (prior on first sight)."""
        key = canonical_coschedule(tuple(coschedule))
        entry = self._published.get(key)
        if entry is None:
            entry = self._cold_start(key)
        return entry

    def _cold_start(self, key: tuple[str, ...]) -> dict[str, float]:
        prior = self._prior_entry(key)
        self._published[key] = prior
        self._pending[key] = dict(prior)
        return prior

    def _alone_rate(self, name: str) -> float:
        rate = self._alone.get(name)
        if rate is None:
            rate = self.source.type_rates((name,))[name]
            self._alone[name] = rate
        return rate

    def _prior_entry(self, key: tuple[str, ...]) -> dict[str, float]:
        mode = self.config.prior
        if mode == "oracle":
            # Warm start at the exact true floats, in the true source's
            # key order — the zero-noise bit-identity anchor.
            return dict(self.source.type_rates(key))
        size = len(key)
        entry: dict[str, float] = {}
        for name, count in Counter(key).items():
            alone = self._alone_rate(name)
            if mode == "optimistic":
                total = alone * count
            elif mode == "pessimistic":
                total = alone * count / size
            else:  # single_run: midpoint degradation between the two
                total = alone * count * 2.0 / (1.0 + size)
            entry[name] = total if total > 0.0 else 0.0
        return entry

    # ------------------------------------------------------------------
    # Observation feed
    # ------------------------------------------------------------------
    def observe_interval(
        self, coschedule: Sequence[str], span: float
    ) -> None:
        """Fold one observed interval of ``coschedule`` into the
        pending estimates.

        Zero- and negative-span intervals are ignored (the compiled
        engine fuses zero-span syncs away, so skipping them here keeps
        the observation sequence — and therefore the noise-RNG draw
        order — identical on both engines).  Within one observation the
        per-type draws follow the canonical coschedule's name order,
        never the source's dict order: a table built by iterating a
        ``set`` orders its entries by ``PYTHONHASHSEED``.
        """
        if span <= 0.0 or not coschedule:
            return
        key = canonical_coschedule(tuple(coschedule))
        truth = self.source.type_rates(key)
        pending = self._pending.get(key)
        if pending is None:
            self._cold_start(key)
            pending = self._pending[key]
        config = self.config
        alpha = config.alpha
        noise = config.noise
        gauss = self._rng.gauss
        draws = [
            (name, truth[name]) for name in dict.fromkeys(key) if name in truth
        ]
        if config.noise_model == "multiplicative":
            for name, true_rate in draws:
                observed = true_rate * (1.0 + noise * gauss(0.0, 1.0))
                if observed < 0.0:
                    observed = 0.0
                pending[name] = pending[name] + alpha * (
                    observed - pending[name]
                )
        else:
            for name, true_rate in draws:
                observed = true_rate + noise * gauss(0.0, 1.0)
                if observed < 0.0:
                    observed = 0.0
                pending[name] = pending[name] + alpha * (
                    observed - pending[name]
                )
        self._counts[key] = self._counts.get(key, 0) + 1
        self.total_observations += 1
        self._since_publish += 1
        interval = config.reopt_observations
        if interval and self._since_publish >= interval:
            self.publish()

    def publish(self) -> None:
        """Expose the pending estimates to policies and fire the
        re-optimization listeners (one "round")."""
        for key, pending in self._pending.items():
            self._published[key] = dict(pending)
        self.epoch += 1
        self._since_publish = 0
        for listener in list(self._listeners):
            listener(self)

    def add_listener(
        self, listener: Callable[["ThroughputEstimator"], None]
    ) -> None:
        """Register a callback fired after every :meth:`publish`."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # Confidence and introspection
    # ------------------------------------------------------------------
    def observations(
        self, coschedule: Sequence[str] | None = None
    ) -> int:
        """Observation count for one coschedule (or the grand total)."""
        if coschedule is None:
            return self.total_observations
        key = canonical_coschedule(tuple(coschedule))
        return self._counts.get(key, 0)

    def confidence(self, coschedule: Sequence[str]) -> float:
        """Saturating confidence ``n / (n + scale)`` in ``[0, 1)``."""
        n = self.observations(coschedule)
        return n / (n + self.config.confidence_scale)

    def mean_relative_error(self) -> float:
        """Mean |estimate - truth| / truth over all tracked rates
        (truth-zero rates are skipped)."""
        total = 0.0
        count = 0
        for key, entry in self._published.items():
            truth = self.source.type_rates(key)
            for name, true_rate in truth.items():
                if true_rate > 0.0:
                    total += abs(entry.get(name, 0.0) - true_rate) / true_rate
                    count += 1
        return total / count if count else 0.0

    def stats_dict(self) -> dict[str, object]:
        """JSON-friendly estimator state summary."""
        return {
            "epoch": self.epoch,
            "observations": self.total_observations,
            "tracked_coschedules": len(self._published),
            "mean_relative_error": self.mean_relative_error(),
            "prior": self.config.prior,
            "noise": self.config.noise,
            "noise_model": self.config.noise_model,
        }

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.source, name)
