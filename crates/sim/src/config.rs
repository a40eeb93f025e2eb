//! Engine configuration: link delays, loss/duplication models, clocks,
//! bookkeeping limits.

use crate::clock::ClockConfig;
use crate::congestion::CongestionConfig;
use crate::sink::{SinkFactory, SinkKind};

/// Parameters of the two-state Gilbert–Elliott bursty-loss channel.
///
/// Each directed edge carries an independent two-state Markov chain
/// (`good` / `bad`). The chain advances one step per message sent on the
/// edge, *before* the loss draw for that message; the message is then lost
/// with `loss_good` or `loss_bad` according to the current state. With
/// `loss_bad` near 1 and small transition probabilities this produces the
/// correlated loss bursts that i.i.d. loss cannot: long clean stretches
/// punctuated by windows where nearly every message on the edge dies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Per-message probability of moving `good -> bad`.
    pub p_good_to_bad: f64,
    /// Per-message probability of moving `bad -> good`.
    pub p_bad_to_good: f64,
    /// Loss probability while in the `good` state.
    pub loss_good: f64,
    /// Loss probability while in the `bad` state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// Validates all four probabilities.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is NaN or outside `[0, 1]`.
    pub fn validate(&self) {
        for (name, p) in [
            ("p_good_to_bad", self.p_good_to_bad),
            ("p_bad_to_good", self.p_bad_to_good),
            ("loss_good", self.loss_good),
            ("loss_bad", self.loss_bad),
        ] {
            assert!(!p.is_nan(), "Gilbert-Elliott {name} must not be NaN");
            assert!(
                (0.0..=1.0).contains(&p),
                "Gilbert-Elliott {name} must be in [0, 1]"
            );
        }
    }
}

/// Per-message loss model for links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// Independent per-message loss with the given probability (the classic
    /// ablation; `Iid(0.0)` is the paper's reliable-link model).
    Iid(f64),
    /// Bursty loss from a per-directed-edge two-state Markov chain.
    GilbertElliott(GilbertElliott),
}

impl LossModel {
    /// Validates the model parameters.
    ///
    /// # Panics
    ///
    /// Panics if any probability is NaN or outside `[0, 1]`.
    pub fn validate(&self) {
        match self {
            LossModel::Iid(p) => {
                assert!(!p.is_nan(), "loss probability must not be NaN");
                assert!(
                    (0.0..=1.0).contains(p),
                    "loss probability must be in [0, 1]"
                );
            }
            LossModel::GilbertElliott(ge) => ge.validate(),
        }
    }

    /// Whether this model can never lose a message.
    pub fn is_lossless(&self) -> bool {
        match self {
            LossModel::Iid(p) => *p == 0.0,
            LossModel::GilbertElliott(ge) => ge.loss_good == 0.0 && ge.loss_bad == 0.0,
        }
    }
}

impl Default for LossModel {
    fn default() -> Self {
        LossModel::Iid(0.0)
    }
}

/// Message-passing link parameters (§II: "message passing delay along an
/// edge is bounded from above and from below by `d` and `u`").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Lower bound `u > 0` on per-message delay.
    pub delay_min: f64,
    /// Upper bound `d >= u` on per-message delay.
    pub delay_max: f64,
    /// Per-directed-edge FIFO ordering (default `true`). Mirror
    /// convergence — a node's view of its neighbor settling to the
    /// neighbor's *latest* broadcast — requires it (DESIGN.md §5);
    /// disabling it is an ablation switch that lets jittered links reorder
    /// messages.
    pub fifo: bool,
    /// Per-message loss model (default lossless). The paper's model
    /// assumes reliable links; loss is a robustness ablation — LSRP
    /// tolerates it when the periodic `SYN` refresh is enabled, since
    /// every variable is re-advertised within one period.
    pub loss: LossModel,
    /// Per-message duplication probability (default 0). A duplicated
    /// message is delivered twice, each copy with its own sampled delay
    /// (FIFO ordering, when on, still applies to both copies).
    pub duplicate_probability: f64,
}

impl LinkConfig {
    /// Constant-delay links (the paper's worked examples assume link delay
    /// is a constant `u`).
    pub fn constant(delay: f64) -> Self {
        LinkConfig {
            delay_min: delay,
            delay_max: delay,
            fifo: true,
            loss: LossModel::default(),
            duplicate_probability: 0.0,
        }
    }

    /// Uniformly jittered delay in `[min, max]`.
    pub fn jittered(min: f64, max: f64) -> Self {
        LinkConfig {
            delay_min: min,
            delay_max: max,
            fifo: true,
            loss: LossModel::default(),
            duplicate_probability: 0.0,
        }
    }

    /// Disables per-edge FIFO ordering (ablation).
    #[must_use]
    pub fn without_fifo(mut self) -> Self {
        self.fifo = false;
        self
    }

    /// Sets an independent per-message loss probability (ablation).
    #[must_use]
    pub fn with_loss(mut self, probability: f64) -> Self {
        self.loss = LossModel::Iid(probability);
        self
    }

    /// Sets a Gilbert–Elliott bursty loss model (adversarial conditions).
    #[must_use]
    pub fn with_bursty_loss(mut self, model: GilbertElliott) -> Self {
        self.loss = LossModel::GilbertElliott(model);
        self
    }

    /// Sets a per-message duplication probability (adversarial conditions).
    #[must_use]
    pub fn with_duplication(mut self, probability: f64) -> Self {
        self.duplicate_probability = probability;
        self
    }

    /// Validates the bounds.
    ///
    /// # Panics
    ///
    /// Panics if the delay bounds are not `0 < min <= max < ∞` (NaN bounds
    /// are rejected explicitly), or if any loss/duplication probability is
    /// NaN or outside `[0, 1]`.
    pub fn validate(&self) {
        assert!(!self.delay_min.is_nan(), "delay_min must not be NaN");
        assert!(!self.delay_max.is_nan(), "delay_max must not be NaN");
        assert!(
            self.delay_min > 0.0 && self.delay_min.is_finite(),
            "delay_min must be positive and finite"
        );
        assert!(
            self.delay_max >= self.delay_min && self.delay_max.is_finite(),
            "delay_max must be >= delay_min and finite"
        );
        self.loss.validate();
        assert!(
            !self.duplicate_probability.is_nan(),
            "duplicate_probability must not be NaN"
        );
        assert!(
            (0.0..=1.0).contains(&self.duplicate_probability),
            "duplicate_probability must be in [0, 1]"
        );
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig::constant(1.0)
    }
}

/// Full engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Link delay bounds.
    pub link: LinkConfig,
    /// Clock assignment.
    pub clocks: ClockConfig,
    /// Seed for all engine randomness (delays, clock rates).
    pub seed: u64,
    /// Hard cap on processed events per `run_*` call; exceeding it is
    /// reported as [`crate::engine::EngineError::EventBudgetExhausted`]
    /// (it almost always indicates a zero-hold action livelock in a
    /// protocol under test).
    pub max_events: u64,
    /// Which [`crate::sink::TraceSink`] the engine writes its
    /// observability stream through. Sink choice never affects simulation
    /// behavior, only what is recorded.
    pub sink: SinkKind,
    /// Optional custom sink constructor, consulted before `sink`. When
    /// present and it yields a sink, the engine installs that instead of
    /// building one from `sink` (a one-shot factory that arms exactly one
    /// engine per campaign is the usual pattern — see `lsrp-trace`).
    /// `None` (the default) changes nothing. Like `sink`, this can never
    /// affect simulation behavior, only what is recorded.
    pub sink_factory: Option<SinkFactory>,
    /// Data-plane resource limits (link rate, port queue bound,
    /// discipline). The default is the unlimited PR-5 lane; the control
    /// plane never reads this, so zero-traffic trajectories are identical
    /// for every setting.
    pub congestion: CongestionConfig,
    /// Number of topology regions the engine partitions the graph into
    /// (see [`lsrp_graph::partition`]). Each region runs its own event
    /// queue inside conservative lookahead windows; results are
    /// byte-identical for every region count. `1` (the default) is the
    /// plain sequential engine. The engine builds at most one region per
    /// node, and exactly one under the PFC pause discipline.
    pub regions: usize,
    /// Worker threads executing regions inside a window. `1` (the
    /// default) runs regions inline on the calling thread; higher values
    /// fan out over `std::thread::scope`. Like `regions`, this can never
    /// change a trajectory.
    pub jobs: usize,
}

impl EngineConfig {
    /// The configuration of the paper's worked examples: ideal clocks and
    /// constant unit link delay.
    pub fn paper_example() -> Self {
        EngineConfig::default()
    }

    /// Sets the seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the link config (builder style).
    #[must_use]
    pub fn with_link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Sets the clock config (builder style).
    #[must_use]
    pub fn with_clocks(mut self, clocks: ClockConfig) -> Self {
        self.clocks = clocks;
        self
    }

    /// Sets the trace sink kind (builder style).
    #[must_use]
    pub fn with_sink(mut self, sink: SinkKind) -> Self {
        self.sink = sink;
        self
    }

    /// Sets a custom sink constructor (builder style).
    #[must_use]
    pub fn with_sink_factory(mut self, factory: SinkFactory) -> Self {
        self.sink_factory = Some(factory);
        self
    }

    /// Drops any custom sink constructor (builder style) — campaigns use
    /// this to restrict tracing to a single designated run.
    #[must_use]
    pub fn without_sink_factory(mut self) -> Self {
        self.sink_factory = None;
        self
    }

    /// Sets the data-plane congestion limits (builder style).
    #[must_use]
    pub fn with_congestion(mut self, congestion: CongestionConfig) -> Self {
        self.congestion = congestion;
        self
    }

    /// Sets the region count (builder style). Zero is treated as 1.
    #[must_use]
    pub fn with_regions(mut self, regions: usize) -> Self {
        self.regions = regions.max(1);
        self
    }

    /// Sets the worker-thread count (builder style). Zero is treated as 1.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            link: LinkConfig::default(),
            clocks: ClockConfig::Ideal,
            seed: 0,
            max_events: 50_000_000,
            sink: SinkKind::Full,
            sink_factory: None,
            congestion: CongestionConfig::default(),
            regions: 1,
            jobs: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_link_is_valid() {
        let l = LinkConfig::constant(1.0);
        l.validate();
        assert_eq!(l.delay_min, l.delay_max);
    }

    #[test]
    #[should_panic(expected = "delay_min must be positive")]
    fn zero_delay_rejected() {
        LinkConfig::constant(0.0).validate();
    }

    #[test]
    #[should_panic(expected = "delay_max must be >= delay_min")]
    fn inverted_bounds_rejected() {
        LinkConfig::jittered(2.0, 1.0).validate();
    }

    #[test]
    #[should_panic(expected = "delay_min must not be NaN")]
    fn nan_delay_min_rejected() {
        LinkConfig::jittered(f64::NAN, 1.0).validate();
    }

    #[test]
    #[should_panic(expected = "delay_max must not be NaN")]
    fn nan_delay_max_rejected() {
        LinkConfig::jittered(1.0, f64::NAN).validate();
    }

    #[test]
    #[should_panic(expected = "loss probability must not be NaN")]
    fn nan_loss_rejected() {
        LinkConfig::constant(1.0).with_loss(f64::NAN).validate();
    }

    #[test]
    #[should_panic(expected = "loss probability must be in [0, 1]")]
    fn out_of_range_loss_rejected() {
        LinkConfig::constant(1.0).with_loss(1.5).validate();
    }

    #[test]
    #[should_panic(expected = "duplicate_probability must not be NaN")]
    fn nan_duplication_rejected() {
        LinkConfig::constant(1.0)
            .with_duplication(f64::NAN)
            .validate();
    }

    #[test]
    #[should_panic(expected = "Gilbert-Elliott loss_bad must not be NaN")]
    fn nan_gilbert_elliott_rejected() {
        LinkConfig::constant(1.0)
            .with_bursty_loss(GilbertElliott {
                p_good_to_bad: 0.1,
                p_bad_to_good: 0.2,
                loss_good: 0.0,
                loss_bad: f64::NAN,
            })
            .validate();
    }

    #[test]
    fn total_loss_is_now_a_valid_probability() {
        // p = 1.0 is deliberately allowed (chaos campaigns use it to model
        // a blackholed link without touching the topology).
        LinkConfig::constant(1.0).with_loss(1.0).validate();
    }

    #[test]
    fn lossless_predicate() {
        assert!(LossModel::Iid(0.0).is_lossless());
        assert!(!LossModel::Iid(0.2).is_lossless());
        assert!(LossModel::GilbertElliott(GilbertElliott {
            p_good_to_bad: 0.5,
            p_bad_to_good: 0.5,
            loss_good: 0.0,
            loss_bad: 0.0,
        })
        .is_lossless());
    }

    #[test]
    fn builder_style_updates() {
        let c = EngineConfig::paper_example()
            .with_seed(7)
            .with_link(LinkConfig::jittered(0.5, 1.5))
            .with_clocks(ClockConfig::Drifting { rho: 1.2 });
        assert_eq!(c.seed, 7);
        assert_eq!(c.link.delay_max, 1.5);
        assert_eq!(c.clocks.rho(), 1.2);
    }

    #[test]
    fn congestion_defaults_to_the_unlimited_lane() {
        let c = EngineConfig::default();
        assert!(!c.congestion.enabled());
        let c = c.with_congestion(CongestionConfig::limited(50.0, 32));
        assert_eq!(c.congestion.link_rate, Some(50.0));
        assert_eq!(c.congestion.queue_capacity, Some(32));
    }
}
