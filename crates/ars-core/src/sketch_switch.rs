//! The sketch-switching pool (Algorithm 1, Lemma 3.6, and the optimized
//! restart variant of Theorem 4.1).
//!
//! Sketch switching maintains a pool of independent copies of a static
//! strong-tracking estimator. Every update reaches all copies (unless it
//! provably changes none, see [Skipping repeats](#skipping-repeats); a
//! copy not being read may receive it later, see [Deferred
//! fan-out](#deferred-fan-out)), but only the *active* copy's estimate is
//! consulted. The
//! [`crate::engine::Robustify`] engine publishes an ε/2-rounded value and
//! keeps publishing it unchanged as long as it stays within a `(1 ± ε/2)`
//! window of the active copy's current estimate; the moment the engine
//! publishes a new value it calls [`StrategyCore::on_publish`], and this
//! pool:
//!
//! 1. retires the active copy (its randomness has now been exposed through
//!    the published value), and
//! 2. activates the next copy in the pool — restarting the retired copy
//!    with fresh randomness under [`SwitchStrategy::Restart`].
//!
//! Because the adversary only ever sees rounded values that change at most
//! `λ_{ε/20,m}(g)` times (Lemma 3.3), a pool of `λ` copies suffices
//! (Lemma 3.6). The optimized variant of Theorem 4.1 cycles through a pool
//! of only `Θ(ε^{-1} log ε^{-1})` copies, *restarting* each retired copy
//! with fresh randomness on the remaining suffix of the stream: by the time
//! a copy is reused the tracked quantity has grown by a `(1+ε)^{pool}`
//! factor, so the prefix the restarted copy missed contributes only an
//! `O(ε)` fraction of the mass.
//!
//! This module used to publish (and round) outputs itself; publication now
//! lives exactly once in the engine, and `SketchSwitch` is purely the pool
//! state machine behind the [`StrategyCore`] seam.
//!
//! # Skipping repeats
//!
//! Line 6 of Algorithm 1 feeds every update to every copy. When every copy
//! declares [`Estimator::duplicate_invariant`] (the KMV ensembles behind
//! the `F₀` routes), the pool skips only the updates that provably change
//! no copy. It keeps a 256-entry direct-mapped table of the items inserted
//! since it last restarted a copy, and drops an insertion whose item is in
//! the table before the fan-out. That is sound because every item in the
//! table has reached every copy now in the pool, or is queued for it (the
//! table is emptied in the `Restart` branch of `on_publish`, where a fresh
//! copy joins), and each copy ignores a repeat. So every copy's state,
//! every raw estimate and every published reading are bit-identical to the
//! unfiltered pool's.
//!
//! A miss records the item, evicting the slot's previous one, which only
//! costs a later skip: items chosen to collide (the slot hash is public)
//! bring back the unfiltered cost, never a wrong reading. Deletions always
//! pass through. A batch of at most 64 updates (every live request) is
//! filtered into a stack buffer; a larger one (a restore or re-provision
//! replay) is filtered into one buffer per call and still reaches each
//! copy whole, so KMV's one-pass replay chunks are unchanged. The table is
//! 2,080 B (256 items and a 32-byte valid mask, so no sentinel item can
//! match an empty slot), counted in `space_bytes`; a pool whose copies do
//! not declare the capability keeps none.
//!
//! The table has to be the pool's own. The session's exact frequency
//! vector would also skip the suffix items a restarted copy has not yet
//! seen.
//!
//! # Deferred fan-out
//!
//! Only the active copy is ever read, so only it has to be current. A
//! pool whose copies declare [`Estimator::duplicate_invariant`] (the same
//! pools that keep the recent-items table) also keeps a log of up to
//! 1,024 updates the table let through, with one cursor per copy: copy
//! `i` has absorbed everything before its cursor. Each live batch (at
//! most 64 updates) is appended to the log and absorbed at once by the
//! active copy; then the one other copy with the oldest cursor catches up
//! on the log in a single `update_batch` call. Most of a KMV copy's cost
//! per call is bringing its stored minima into cache and merging into
//! them once, so one call carrying the ~23 batches a copy of a 24-copy
//! pool falls behind costs far less than 23 calls.
//!
//! - When a batch would overflow the log, the copies furthest behind
//!   catch up until it fits, and the absorbed prefix is dropped.
//! - A restarted copy was the active one, so its cursor already sits at
//!   the log's end: the fresh copy sees the suffix from its restart on, as
//!   before. `on_publish` catches the newly active copy up before anything
//!   reads it.
//! - A batch of more than 64 updates (a restore or re-provisioning replay)
//!   first catches every copy up and then reaches every copy whole, so a
//!   replay keeps its `max(k, 64)` chunks and a restored pool has nothing
//!   deferred.
//!
//! Every copy absorbs the same filtered sequence as in the eager pool,
//! only cut into different batches, and [`Estimator::update_batch`]
//! leaves the state one-at-a-time updates leave. So every copy's state
//! once caught up, every raw estimate and every published reading are
//! bit-identical to the eager pool's. The recent-items invariant becomes
//! "absorbed or queued": every item in the table has been absorbed by
//! every copy now in the pool or sits in the log past that copy's cursor.
//! The log is 16,384 B plus 8 B per cursor, counted in `space_bytes`;
//! every other pool keeps none, because a p-stable copy gains little from
//! longer batches and the log would add about a tenth to its space.

use ars_sketch::{Estimator, EstimatorFactory};
use ars_stream::Update;

use crate::engine::{derive_seed, StrategyCore};

/// Slots of the recent-items table.
const RECENT_SLOTS: usize = 256;

/// A batch of at most this many updates is filtered into a stack buffer,
/// so a live request allocates nothing; a larger batch is filtered into
/// one buffer per call.
const STACK_BATCH: usize = 64;

/// The items inserted since the pool last restarted a copy, direct-mapped:
/// each slot holds the last item that hashed to it. A valid mask, not a
/// sentinel item, marks the filled slots, so no item can match an empty
/// one.
#[derive(Debug, Clone)]
struct RecentItems {
    items: [u64; RECENT_SLOTS],
    valid: [u64; RECENT_SLOTS / 64],
}

impl RecentItems {
    fn new() -> Self {
        Self {
            items: [0; RECENT_SLOTS],
            valid: [0; RECENT_SLOTS / 64],
        }
    }

    /// Fibonacci hashing: the top 8 bits of `item · 2⁶⁴/φ`.
    fn slot(item: u64) -> usize {
        (item.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize
    }

    /// Whether `update` is an insertion of an item the table holds. A
    /// missed insertion is recorded; a deletion is neither recorded nor
    /// reported.
    fn is_repeat(&mut self, update: Update) -> bool {
        if update.delta <= 0 {
            return false;
        }
        let slot = Self::slot(update.item);
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        if self.valid[word] & bit != 0 && self.items[slot] == update.item {
            return true;
        }
        self.items[slot] = update.item;
        self.valid[word] |= bit;
        false
    }

    /// Copies the updates of `batch` that are not repeats into `kept`, in
    /// stream order, and returns how many it kept.
    fn filter(&mut self, batch: &[Update], kept: &mut [Update]) -> usize {
        let mut n = 0;
        for &update in batch {
            if !self.is_repeat(update) {
                kept[n] = update;
                n += 1;
            }
        }
        n
    }

    fn clear(&mut self) {
        self.valid = [0; RECENT_SLOTS / 64];
    }
}

/// Updates the pool log holds: 16 KB.
const LOG_UPDATES: usize = 1_024;

/// The kept updates not every copy has absorbed yet (see [Deferred
/// fan-out](self#deferred-fan-out)): copy `i` still has to absorb
/// `updates[cursors[i]..]`, and the active copy's cursor is always at the
/// end.
#[derive(Debug, Clone)]
struct PoolLog {
    updates: Vec<Update>,
    cursors: Vec<usize>,
}

impl PoolLog {
    fn new(copies: usize) -> Self {
        Self {
            updates: Vec::with_capacity(LOG_UPDATES),
            cursors: vec![0; copies],
        }
    }

    /// Feeds copy `i` everything queued past its cursor, in one batch.
    fn catch_up<E: Estimator>(&mut self, copies: &mut [E], i: usize) {
        let pending = &self.updates[self.cursors[i]..];
        if !pending.is_empty() {
            copies[i].update_batch(pending);
        }
        self.cursors[i] = self.updates.len();
    }

    /// Catches every copy up and empties the log.
    fn catch_up_all<E: Estimator>(&mut self, copies: &mut [E]) {
        for i in 0..copies.len() {
            self.catch_up(copies, i);
        }
        self.updates.clear();
        self.cursors.fill(0);
    }

    /// Queues `kept` (at most [`STACK_BATCH`] updates): makes room by
    /// catching up the copies furthest behind, feeds `kept` to the active
    /// copy, then catches up the one copy with the oldest cursor.
    fn push<E: Estimator>(&mut self, copies: &mut [E], active: usize, kept: &[Update]) {
        if kept.is_empty() {
            return;
        }
        let overflow = (self.updates.len() + kept.len()).saturating_sub(LOG_UPDATES);
        if overflow > 0 {
            for i in 0..copies.len() {
                if self.cursors[i] < overflow {
                    self.catch_up(copies, i);
                }
            }
            let absorbed = self.cursors.iter().copied().min().unwrap_or(0);
            self.updates.drain(..absorbed);
            for cursor in &mut self.cursors {
                *cursor -= absorbed;
            }
        }
        self.updates.extend_from_slice(kept);
        copies[active].update_batch(kept);
        self.cursors[active] = self.updates.len();
        let oldest = (0..copies.len())
            .min_by_key(|&i| self.cursors[i])
            .unwrap_or(active);
        self.catch_up(copies, oldest);
    }

    fn space_bytes(&self) -> usize {
        LOG_UPDATES * std::mem::size_of::<Update>()
            + self.cursors.len() * std::mem::size_of::<usize>()
    }
}

/// Line 6 of Algorithm 1: every copy streams the whole batch before the
/// next copy is touched.
fn feed<E: Estimator>(copies: &mut [E], updates: &[Update]) {
    if updates.is_empty() {
        return;
    }
    for copy in copies {
        copy.update_batch(updates);
    }
}

/// Which pool-management strategy the wrapper uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchStrategy {
    /// Lemma 3.6: a pool of `λ` copies consumed left to right, never reused.
    /// If the pool is exhausted the wrapper keeps using the last copy (and
    /// records that the λ budget was exceeded).
    Exhaustible,
    /// Theorem 4.1: a circular pool; a retired copy is immediately restarted
    /// with fresh randomness and rejoins the rotation, seeing only the
    /// suffix of the stream from that point on.
    Restart,
}

/// Configuration for [`SketchSwitch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchSwitchConfig {
    /// Target approximation parameter ε (used only to size restarting
    /// pools; the publication window itself belongs to the engine).
    pub epsilon: f64,
    /// Pool size: `λ_{ε/20,m}(g)` for [`SwitchStrategy::Exhaustible`],
    /// `Θ(ε^{-1} log ε^{-1})` for [`SwitchStrategy::Restart`].
    pub copies: usize,
    /// Pool-management strategy.
    pub strategy: SwitchStrategy,
}

impl SketchSwitchConfig {
    /// Plain Lemma 3.6 configuration with an explicit flip-number budget.
    #[must_use]
    pub fn exhaustible(epsilon: f64, flip_number: usize) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0);
        Self {
            epsilon,
            copies: flip_number.max(1),
            strategy: SwitchStrategy::Exhaustible,
        }
    }

    /// Optimized Theorem 4.1 configuration: pool of `Θ(ε^{-1} log ε^{-1})`
    /// restarting copies.
    ///
    /// The pool must be large enough that by the time a restarted copy is
    /// consulted again the tracked quantity has grown by a `Θ(1/ε)` factor,
    /// so the stream prefix the copy missed accounts for only an `O(ε)`
    /// fraction of the current value. Switches happen when the value moves
    /// by a `(1 + ε/2)` factor, so the pool size is
    /// `⌈ln(4/ε) / ln(1 + ε/2)⌉`.
    #[must_use]
    pub fn restarting(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0);
        let copies = ((4.0 / epsilon).ln() / (1.0 + epsilon / 2.0).ln()).ceil() as usize;
        Self {
            epsilon,
            copies: copies.max(4),
            strategy: SwitchStrategy::Restart,
        }
    }

    /// Restarting pool sized for tracking the *moment* `F_p = ‖f‖_p^p`
    /// (Theorem 4.1 for `F_p`): the restart argument needs the norm to grow
    /// by a `Θ(1/ε)` factor between reuses of a copy, so the pool is larger
    /// by a factor of `max(p, 1)` so the moment grows by `(Θ(1/ε))^p` over
    /// one rotation.
    #[must_use]
    pub fn restarting_for_moment(epsilon: f64, p: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0);
        assert!(p > 0.0);
        let growth = 8.0 * p.max(1.0) / epsilon;
        let copies = ((p.max(1.0) * growth.ln()) / (1.0 + epsilon / 2.0).ln()).ceil() as usize;
        Self {
            epsilon,
            copies: copies.max(4),
            strategy: SwitchStrategy::Restart,
        }
    }
}

/// The sketch-switching pool (Algorithm 1), driven through
/// [`StrategyCore`] by the [`crate::engine::Robustify`] engine.
#[derive(Debug, Clone)]
pub struct SketchSwitch<F: EstimatorFactory> {
    factory: F,
    config: SketchSwitchConfig,
    copies: Vec<F::Output>,
    /// Index ρ of the active copy.
    active: usize,
    /// Number of switches performed so far.
    switches: usize,
    /// Whether an exhaustible pool ran out of fresh copies.
    exhausted: bool,
    /// Seed material for restarted copies.
    next_seed: u64,
    /// The items every copy has absorbed or has queued, kept only when
    /// every copy declares [`Estimator::duplicate_invariant`].
    recent: Option<Box<RecentItems>>,
    /// The updates the lazy copies have yet to absorb, kept for the same
    /// pools as `recent`.
    log: Option<PoolLog>,
}

impl<F: EstimatorFactory> SketchSwitch<F> {
    /// Builds the pool, instantiating `config.copies` independent copies
    /// with seeds derived from `seed`.
    #[must_use]
    pub fn new(factory: F, config: SketchSwitchConfig, seed: u64) -> Self {
        assert!(config.copies >= 1, "the pool needs at least one copy");
        let copies: Vec<F::Output> = (0..config.copies)
            .map(|i| factory.build(derive_seed(seed, i as u64)))
            .collect();
        let declared = copies.iter().all(Estimator::duplicate_invariant);
        Self {
            factory,
            config,
            active: 0,
            switches: 0,
            exhausted: false,
            next_seed: derive_seed(seed, config.copies as u64),
            recent: declared.then(|| Box::new(RecentItems::new())),
            log: declared.then(|| PoolLog::new(copies.len())),
            copies,
        }
    }

    /// The number of switches (published-value changes) performed so far.
    /// Lemma 3.3 bounds this by the flip number of the tracked function.
    #[must_use]
    pub fn switches(&self) -> usize {
        self.switches
    }

    /// Index of the currently active copy.
    #[must_use]
    pub fn active_index(&self) -> usize {
        self.active
    }

    /// Whether an [`SwitchStrategy::Exhaustible`] pool ran out of copies
    /// (meaning the configured flip-number budget was too small for the
    /// observed stream).
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// The pool size.
    #[must_use]
    pub fn pool_size(&self) -> usize {
        self.copies.len()
    }

    /// Brings every copy up to date and empties the log.
    fn catch_up_all(&mut self) {
        if let Some(log) = &mut self.log {
            log.catch_up_all(&mut self.copies);
        }
    }
}

impl<F> StrategyCore for SketchSwitch<F>
where
    F: EstimatorFactory + Send,
    F::Output: Send,
{
    fn ingest(&mut self, update: Update) {
        if self
            .recent
            .as_mut()
            .is_some_and(|recent| recent.is_repeat(update))
        {
            return;
        }
        if let Some(log) = &mut self.log {
            return log.push(&mut self.copies, self.active, &[update]);
        }
        // Feed the update to every copy in the pool (line 6 of Algorithm 1).
        for copy in &mut self.copies {
            copy.update(update);
        }
    }

    /// Copy-major batch ingestion: each copy streams the whole batch
    /// before the next copy is touched. The copies are independent, so the
    /// final pool state is identical to update-major order, but each
    /// copy's counters stay cache-resident across the batch instead of the
    /// whole pool being re-fetched per update. Repeats are dropped first,
    /// and a pool with a log defers all but the active copy (see the
    /// module docs).
    fn ingest_batch(&mut self, updates: &[Update]) {
        if updates.len() > STACK_BATCH {
            self.catch_up_all();
        }
        let Some(recent) = self.recent.as_deref_mut() else {
            return feed(&mut self.copies, updates);
        };
        if updates.len() <= STACK_BATCH {
            let mut kept = [Update::insert(0); STACK_BATCH];
            let n = recent.filter(updates, &mut kept);
            match &mut self.log {
                Some(log) => log.push(&mut self.copies, self.active, &kept[..n]),
                None => feed(&mut self.copies, &kept[..n]),
            }
        } else {
            let mut kept = vec![Update::insert(0); updates.len()];
            let n = recent.filter(updates, &mut kept);
            feed(&mut self.copies, &kept[..n]);
        }
    }

    /// Consults only the active copy, which is always caught up.
    fn raw_estimate(&self) -> f64 {
        debug_assert!(
            self.log
                .as_ref()
                .is_none_or(|log| log.cursors[self.active] == log.updates.len()),
            "the active copy must have absorbed the whole log"
        );
        self.copies[self.active].estimate()
    }

    /// The engine published a new value: the active copy's randomness is
    /// exposed, so retire it and move to the next copy in the pool.
    fn on_publish(&mut self) {
        self.switches += 1;
        match self.config.strategy {
            SwitchStrategy::Exhaustible => {
                if self.active + 1 < self.copies.len() {
                    self.active += 1;
                } else {
                    self.exhausted = true;
                }
            }
            SwitchStrategy::Restart => {
                // Restart the copy whose randomness was just exposed, then
                // move to the next copy in the rotation.
                let retired = self.active;
                self.copies[retired] = self.factory.build(self.next_seed);
                self.next_seed = derive_seed(self.next_seed, 1);
                self.active = (self.active + 1) % self.copies.len();
                // The fresh copy has absorbed nothing yet. It was the
                // active copy, so its cursor already sits at the log's end
                // and it sees only what is queued from now on.
                if let Some(recent) = &mut self.recent {
                    recent.clear();
                }
            }
        }
        if let Some(log) = &mut self.log {
            log.catch_up(&mut self.copies, self.active);
        }
    }

    fn space_bytes(&self) -> usize {
        self.copies
            .iter()
            .map(Estimator::space_bytes)
            .sum::<usize>()
            + 64
            + self
                .recent
                .as_ref()
                .map_or(0, |_| std::mem::size_of::<RecentItems>())
            + self.log.as_ref().map_or(0, PoolLog::space_bytes)
    }

    fn copies(&self) -> usize {
        self.copies.len()
    }

    fn strategy_name(&self) -> &'static str {
        match self.config.strategy {
            SwitchStrategy::Exhaustible => "sketch-switching",
            SwitchStrategy::Restart => "sketch-switching (restarting)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::RobustEstimator;
    use crate::engine::{RobustPlan, Robustify};
    use ars_sketch::kmv::{KmvConfig, KmvFactory};
    use ars_sketch::pstable::{PStableConfig, PStableFactory};
    use ars_sketch::tracking::{MedianTrackingConfig, MedianTrackingFactory};
    use ars_stream::generator::{Generator, UniformGenerator, ZipfGenerator};
    use ars_stream::FrequencyVector;

    fn tracked_kmv_factory(epsilon: f64) -> MedianTrackingFactory<KmvFactory> {
        MedianTrackingFactory {
            inner: KmvFactory {
                config: KmvConfig::for_accuracy(epsilon / 4.0),
            },
            config: MedianTrackingConfig { copies: 5 },
        }
    }

    fn engine(
        config: SketchSwitchConfig,
        seed: u64,
    ) -> Robustify<SketchSwitch<MedianTrackingFactory<KmvFactory>>> {
        let factory = tracked_kmv_factory(config.epsilon);
        let mut plan = RobustPlan::new(config.epsilon, 10_000);
        plan.domain = 1 << 20;
        Robustify::new(SketchSwitch::new(factory, config, seed), plan).unwrap()
    }

    #[test]
    fn config_constructors_validate_and_size() {
        let plain = SketchSwitchConfig::exhaustible(0.1, 200);
        assert_eq!(plain.copies, 200);
        assert_eq!(plain.strategy, SwitchStrategy::Exhaustible);
        let opt = SketchSwitchConfig::restarting(0.1);
        assert_eq!(opt.strategy, SwitchStrategy::Restart);
        assert!(opt.copies >= 20, "pool of {} too small", opt.copies);
        let moment = SketchSwitchConfig::restarting_for_moment(0.1, 2.0);
        assert!(moment.copies > opt.copies, "moment pool must be larger");
    }

    #[test]
    fn published_output_tracks_f0_at_every_step() {
        let epsilon = 0.2;
        let mut robust = engine(SketchSwitchConfig::restarting(epsilon), 7);

        let updates = UniformGenerator::new(50_000, 3).take_updates(40_000);
        let mut truth = FrequencyVector::new();
        let mut worst: f64 = 0.0;
        for &u in &updates {
            truth.apply(u);
            robust.update(u);
            let t = truth.f0() as f64;
            if t >= 100.0 {
                worst = worst.max(((robust.estimate() - t) / t).abs());
            }
        }
        assert!(
            worst <= epsilon + 0.05,
            "worst-case tracking error {worst} exceeds epsilon {epsilon}"
        );
    }

    #[test]
    fn switches_are_bounded_by_the_flip_number() {
        let epsilon = 0.2;
        let mut robust = engine(SketchSwitchConfig::restarting(epsilon), 11);

        let m = 30_000usize;
        let updates = UniformGenerator::new(1 << 20, 5).take_updates(m);
        for &u in &updates {
            robust.update(u);
        }
        // F0 grows monotonically up to ~m, so the number of published-value
        // changes is at most ~log_{1+eps/2}(m) plus slack.
        let bound = ((m as f64).ln() / (1.0 + epsilon / 2.0).ln()).ceil() as usize + 5;
        assert!(
            robust.core().switches() <= bound,
            "switches {} exceed flip bound {bound}",
            robust.core().switches()
        );
        assert_eq!(robust.core().switches(), robust.output_changes());
    }

    #[test]
    fn exhaustible_pool_reports_exhaustion() {
        let epsilon = 0.2;
        // Deliberately undersized pool: F0 doubles far more than twice.
        let mut robust = engine(SketchSwitchConfig::exhaustible(epsilon, 2), 13);
        for i in 0..10_000u64 {
            robust.insert(i);
        }
        assert!(robust.core().is_exhausted());
        // A generously sized pool is not exhausted.
        let mut robust = engine(SketchSwitchConfig::exhaustible(epsilon, 200), 13);
        for i in 0..10_000u64 {
            robust.insert(i);
        }
        assert!(!robust.core().is_exhausted());
    }

    #[test]
    fn output_changes_only_at_switches() {
        let epsilon = 0.3;
        let mut robust = engine(SketchSwitchConfig::restarting(epsilon), 17);
        let mut outputs = Vec::new();
        for i in 0..5_000u64 {
            robust.insert(i);
            outputs.push(robust.estimate());
        }
        let distinct_outputs = {
            let mut changes = 1;
            for w in outputs.windows(2) {
                if (w[0] - w[1]).abs() > f64::EPSILON {
                    changes += 1;
                }
            }
            changes
        };
        assert_eq!(
            distinct_outputs,
            robust.core().switches(),
            "published value must change exactly when the pool switches"
        );
    }

    #[test]
    fn restart_strategy_cycles_through_the_pool() {
        let epsilon = 0.25;
        let config = SketchSwitchConfig {
            epsilon,
            copies: 3,
            strategy: SwitchStrategy::Restart,
        };
        let mut robust = engine(config, 19);
        for i in 0..20_000u64 {
            robust.insert(i);
        }
        assert!(
            robust.core().switches() > 3,
            "should have wrapped around the pool"
        );
        assert!(!robust.core().is_exhausted());
        assert!(robust.core().active_index() < 3);
    }

    #[test]
    fn space_scales_with_pool_size() {
        let small = engine(
            SketchSwitchConfig {
                epsilon: 0.2,
                copies: 2,
                strategy: SwitchStrategy::Restart,
            },
            0,
        );
        let large = engine(
            SketchSwitchConfig {
                epsilon: 0.2,
                copies: 20,
                strategy: SwitchStrategy::Restart,
            },
            0,
        );
        assert!(large.space_bytes() > 5 * small.space_bytes());
    }

    #[test]
    fn estimate_before_any_update_is_zero() {
        let robust = engine(SketchSwitchConfig::restarting(0.2), 1);
        assert_eq!(robust.estimate(), 0.0);
    }

    /// KMV behind the default `duplicate_invariant() == false`: a pool of
    /// these keeps no recent-items table and no log, so it is the
    /// unfiltered, eager twin. It prints as the sketch it wraps, so twin
    /// copies compare by `Debug`.
    #[derive(Clone)]
    struct PlainKmv(ars_sketch::KmvSketch);

    impl std::fmt::Debug for PlainKmv {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.0.fmt(f)
        }
    }

    impl Estimator for PlainKmv {
        fn update(&mut self, update: Update) {
            self.0.update(update);
        }

        fn update_batch(&mut self, updates: &[Update]) {
            self.0.update_batch(updates);
        }

        fn estimate(&self) -> f64 {
            self.0.estimate()
        }

        fn space_bytes(&self) -> usize {
            self.0.space_bytes()
        }
    }

    #[derive(Debug, Clone, Copy)]
    struct PlainKmvFactory(KmvFactory);

    impl EstimatorFactory for PlainKmvFactory {
        type Output = PlainKmv;

        fn build(&self, seed: u64) -> PlainKmv {
            PlainKmv(self.0.build(seed))
        }

        fn name(&self) -> String {
            format!("plain {}", self.0.name())
        }
    }

    /// Everything a pool shows: the reading's JSON, the value and raw
    /// estimate bits, the output changes, the switches and the active copy.
    fn reading<F>(robust: &Robustify<SketchSwitch<F>>) -> (String, u64, u64, usize, usize, usize)
    where
        F: EstimatorFactory + Send,
        F::Output: Send,
    {
        (
            robust.query().to_json(),
            robust.estimate().to_bits(),
            robust.core().raw_estimate().to_bits(),
            robust.output_changes(),
            robust.core().switches(),
            robust.core().active_index(),
        )
    }

    /// Streams `updates` into a filtered, deferring pool and its
    /// unfiltered, eager twin, cycling through `batches` for the batch
    /// sizes (1 goes through `update`). Checks every reading after every
    /// batch, and every copy's state (the filtered pool's once caught up)
    /// every 50 batches and at the end. Returns the number of switches.
    fn assert_twins_agree(
        config: SketchSwitchConfig,
        updates: &[Update],
        batches: &[usize],
    ) -> usize {
        let kmv = KmvFactory {
            config: KmvConfig { k: 32 },
        };
        let median = MedianTrackingConfig { copies: 3 };
        let mut plan = RobustPlan::new(config.epsilon, 10_000);
        plan.domain = 1 << 20;
        let filtered = MedianTrackingFactory {
            inner: kmv,
            config: median,
        };
        let twin = MedianTrackingFactory {
            inner: PlainKmvFactory(kmv),
            config: median,
        };
        let mut filtered = Robustify::new(SketchSwitch::new(filtered, config, 5), plan).unwrap();
        let mut twin = Robustify::new(SketchSwitch::new(twin, config, 5), plan).unwrap();
        assert!(filtered.core().recent.is_some() && filtered.core().log.is_some());
        assert!(twin.core().recent.is_none() && twin.core().log.is_none());
        let copies_agree = |filtered: &Robustify<SketchSwitch<_>>,
                            twin: &Robustify<SketchSwitch<_>>| {
            let mut pool = filtered.core().clone();
            pool.catch_up_all();
            format!("{:?}", pool.copies) == format!("{:?}", twin.core().copies)
        };
        let (mut rest, mut t) = (updates, 0);
        while !rest.is_empty() {
            let (chunk, tail) = rest.split_at(batches[t % batches.len()].min(rest.len()));
            rest = tail;
            if chunk.len() == 1 {
                filtered.update(chunk[0]);
                twin.update(chunk[0]);
            } else {
                filtered.update_batch(chunk);
                twin.update_batch(chunk);
            }
            let context = format!(
                "{:?} with {} copies, batches {batches:?}, step {t}",
                config.strategy, config.copies
            );
            assert_eq!(reading(&filtered), reading(&twin), "{context}");
            assert_eq!(filtered.core().is_exhausted(), twin.core().is_exhausted());
            if t % 50 == 0 || rest.is_empty() {
                assert!(copies_agree(&filtered, &twin), "{context}: copies");
            }
            t += 1;
        }
        filtered.core().switches()
    }

    /// Runs of fresh items alternate with runs that replay a few items
    /// already inserted, the shape of a dip hunter that has locked on.
    fn dip_hunter_stream(n: usize) -> Vec<Update> {
        let mut fresh = 1u64;
        (0..n)
            .map(|t| {
                if (t / 150) % 2 == 0 {
                    fresh += 1;
                    Update::insert(fresh)
                } else {
                    Update::insert([1, 0, u64::MAX, fresh][t % 4])
                }
            })
            .collect()
    }

    #[test]
    fn skipping_repeats_changes_no_reading() {
        let zipf = ZipfGenerator::new(1 << 14, 1.1, 3).take_updates(6_000);
        let with_deletions: Vec<Update> = zipf
            .iter()
            .enumerate()
            .flat_map(|(t, &u)| {
                let deletion = (t % 3 == 0).then(|| Update::delete(u.item));
                std::iter::once(u).chain(deletion)
            })
            .collect();
        let streams = [
            ("zipf", zipf),
            ("dip hunter", dip_hunter_stream(6_000)),
            ("zipf with deletions", with_deletions),
        ];
        let restart = SketchSwitchConfig {
            epsilon: 0.3,
            copies: 3,
            strategy: SwitchStrategy::Restart,
        };
        let exhaustible = SketchSwitchConfig::exhaustible(0.3, 40);
        for (name, updates) in &streams {
            for batch in [1, 8, 64, 65, 700] {
                let restarts = assert_twins_agree(restart, updates, &[batch]);
                assert!(restarts >= 3, "{name}, batch {batch}: {restarts} restarts");
                assert_twins_agree(exhaustible, updates, &[batch]);
            }
        }
    }

    #[test]
    fn items_zero_and_max_miss_an_empty_table() {
        for item in [0, u64::MAX] {
            let mut recent = RecentItems::new();
            assert!(!recent.is_repeat(Update::insert(item)));
            assert!(recent.is_repeat(Update::insert(item)));
            recent.clear();
            assert!(!recent.is_repeat(Update::insert(item)));
        }
    }

    /// Records every update it receives and claims to ignore repeats, so
    /// a pool of these shows exactly what its table lets through.
    #[derive(Debug, Clone, Default)]
    struct Tally(Vec<Update>);

    impl Estimator for Tally {
        fn update(&mut self, update: Update) {
            self.0.push(update);
        }

        fn estimate(&self) -> f64 {
            self.0.len() as f64
        }

        fn space_bytes(&self) -> usize {
            8
        }

        fn duplicate_invariant(&self) -> bool {
            true
        }
    }

    struct TallyFactory;

    impl EstimatorFactory for TallyFactory {
        type Output = Tally;

        fn build(&self, _seed: u64) -> Tally {
            Tally::default()
        }

        fn name(&self) -> String {
            "tally".into()
        }
    }

    fn tally_pool(strategy: SwitchStrategy) -> SketchSwitch<TallyFactory> {
        let config = SketchSwitchConfig {
            epsilon: 0.2,
            copies: 2,
            strategy,
        };
        SketchSwitch::new(TallyFactory, config, 0)
    }

    /// What reached each copy of `pool` once every copy has caught up,
    /// which must be the same for all.
    fn reached(pool: &mut SketchSwitch<TallyFactory>) -> &[Update] {
        pool.catch_up_all();
        let first = &pool.copies[0].0;
        assert!(pool.copies.iter().all(|copy| &copy.0 == first));
        first
    }

    #[test]
    fn items_sharing_a_slot_both_reach_the_copies() {
        let a = 1u64;
        let b = (2..)
            .find(|&b| RecentItems::slot(b) == RecentItems::slot(a))
            .unwrap();
        let stream: Vec<Update> = [a, b, a, b, b].map(Update::insert).to_vec();
        let mut per_update = tally_pool(SwitchStrategy::Exhaustible);
        for &u in &stream {
            per_update.ingest(u);
        }
        let mut batched = tally_pool(SwitchStrategy::Exhaustible);
        batched.ingest_batch(&stream);
        // Only the last `b`, which follows a `b`, is a repeat.
        for pool in [&mut per_update, &mut batched] {
            assert_eq!(reached(pool), &stream[..4]);
        }
    }

    #[test]
    fn deletions_are_never_recorded_or_skipped() {
        let stream = [
            Update::delete(7),
            Update::delete(7),
            Update::new(7, 0),
            Update::insert(7),
            Update::delete(7),
            Update::insert(7),
            Update::new(7, 3),
        ];
        let mut pool = tally_pool(SwitchStrategy::Exhaustible);
        pool.ingest_batch(&stream);
        // The first insertion of 7 is recorded; the later ones repeat it.
        assert_eq!(reached(&mut pool), &stream[..5]);
    }

    #[test]
    fn a_restart_empties_the_table() {
        let mut pool = tally_pool(SwitchStrategy::Restart);
        pool.ingest(Update::insert(9));
        pool.ingest(Update::insert(9));
        pool.catch_up_all();
        assert_eq!(pool.copies[1].0, [Update::insert(9)]);
        pool.on_publish();
        pool.ingest(Update::insert(9));
        pool.catch_up_all();
        // The restarted copy 0 and copy 1 both receive the item again.
        assert_eq!(pool.copies[0].0, [Update::insert(9)]);
        assert_eq!(pool.copies[1].0, [Update::insert(9); 2]);
        // An exhaustible pool never restarts a copy, so it keeps skipping.
        let mut pool = tally_pool(SwitchStrategy::Exhaustible);
        pool.ingest(Update::insert(9));
        pool.on_publish();
        pool.ingest(Update::insert(9));
        assert_eq!(reached(&mut pool), [Update::insert(9)]);
    }

    #[test]
    fn only_declaring_pools_keep_a_table() {
        let config = SketchSwitchConfig::restarting_for_moment(0.3, 2.0);
        let pstable = MedianTrackingFactory {
            inner: PStableFactory {
                config: PStableConfig::for_tracking(2.0, 0.15, 0.01),
            },
            config: MedianTrackingConfig { copies: 3 },
        };
        let fp2 = SketchSwitch::new(pstable, config, 1);
        assert!(fp2.recent.is_none() && fp2.log.is_none());
        let copies: usize = fp2.copies.iter().map(Estimator::space_bytes).sum();
        assert_eq!(fp2.space_bytes(), copies + 64);

        // The fleet's F₀ pool: 24 copies, so its log and cursors take
        // 16,384 + 24 · 8 = 16,576 B.
        let config = SketchSwitchConfig::restarting(0.25);
        let f0 = SketchSwitch::new(tracked_kmv_factory(0.25), config, 1);
        assert!(f0.recent.is_some() && f0.log.is_some());
        assert_eq!(f0.pool_size(), 24);
        let copies: usize = f0.copies.iter().map(Estimator::space_bytes).sum();
        assert_eq!(f0.space_bytes(), copies + 64 + 2_080 + 16_576);
    }

    #[test]
    fn deferring_copies_changes_no_reading() {
        // Uniform batches of 64 new items: 23 lazy copies would queue
        // 1,472 updates, so the log overflows.
        let fresh: Vec<Update> = (0..16_000u64).map(|i| Update::insert(i * 7 + 1)).collect();
        let streams = [
            ("all new", fresh),
            (
                "zipf",
                ZipfGenerator::new(1 << 14, 1.1, 3).take_updates(16_000),
            ),
            ("dip hunter", dip_hunter_stream(16_000)),
        ];
        // At ε = 0.2 even the 24-copy pool wraps around, so restarted
        // copies are read again.
        let restart = |copies| SketchSwitchConfig {
            epsilon: 0.2,
            copies,
            strategy: SwitchStrategy::Restart,
        };
        let exhaustible = SketchSwitchConfig::exhaustible(0.3, 40);
        for (name, updates) in &streams {
            for batches in [&[1][..], &[8], &[64], &[65], &[64, 1, 8, 700, 64, 65]] {
                for copies in [3, 24] {
                    let switches = assert_twins_agree(restart(copies), updates, batches);
                    // The mixed schedule publishes less often.
                    let wraps = switches > copies || batches.len() > 1;
                    assert!(wraps, "{name}, {batches:?}: {switches} switches");
                }
                assert_twins_agree(exhaustible, updates, batches);
            }
        }
    }

    #[test]
    fn an_ingest_feeds_the_active_copy_and_at_most_one_other() {
        let config = SketchSwitchConfig {
            epsilon: 0.2,
            copies: 24,
            strategy: SwitchStrategy::Restart,
        };
        let mut pool = SketchSwitch::new(TallyFactory, config, 0);
        let (mut next, mut overflows) = (0u64, 0);
        // 23 lazy copies queue ~23 · 53 updates between catch-ups, more
        // than the log holds, and every 50th batch is replay-sized.
        let sizes = [64, 64, 8, 64, 64].into_iter().cycle();
        for (t, size) in sizes.take(400).enumerate() {
            let size = if t % 50 == 49 { 100 } else { size };
            let batch: Vec<Update> = (next..next + size).map(Update::insert).collect();
            next += size;
            let before: Vec<usize> = pool.copies.iter().map(|copy| copy.0.len()).collect();
            let log = pool.log.as_ref().unwrap();
            let fits = log.updates.len() + batch.len() <= LOG_UPDATES;
            pool.ingest_batch(&batch);
            let log = pool.log.as_ref().unwrap();
            assert!(log.updates.len() <= LOG_UPDATES);
            assert_eq!(log.cursors[pool.active], log.updates.len());
            let fed = (0..24)
                .filter(|&i| pool.copies[i].0.len() > before[i])
                .count();
            if batch.len() > STACK_BATCH {
                // A replay-sized batch reaches every copy, deferring none.
                assert_eq!((fed, log.updates.len()), (24, 0), "batch {t}");
            } else if fits {
                assert!(fed <= 2, "batch {t}: {fed} copies fed without an overflow");
            } else {
                overflows += 1;
            }
            if t % 37 == 0 {
                pool.on_publish();
            }
        }
        assert!(overflows > 0, "the log never filled");
        // Once caught up, every copy holds, in stream order, the whole
        // suffix since it was last restarted, and a copy never restarted
        // holds the whole stream.
        let all: Vec<Update> = (0..next).map(Update::insert).collect();
        pool.catch_up_all();
        assert!(pool.copies.iter().all(|copy| all.ends_with(&copy.0)));
        assert!(pool.copies.iter().any(|copy| copy.0 == all));
    }
}
