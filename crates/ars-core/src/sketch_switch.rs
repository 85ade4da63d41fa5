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
//! Only the active copy is ever read, so only it has to be current. Every
//! pool keeps a log of the updates its table let through (all of them,
//! in a pool without a table), with one cursor per copy: copy `i` has
//! absorbed everything before its cursor. Each live batch (at most 64
//! updates) is appended to the log and absorbed at once by the active
//! copy; then the one other copy with the oldest cursor catches up on the
//! log in a single `update_batch` call. A copy pays a fixed cost per
//! call: a KMV copy brings its stored minima into cache and merges into
//! them once, and the p = 2 p-stable kernel adds to every row once per
//! chunk of up to 64 unit updates. So one call carrying the ~40 batches of
//! 4 a copy of a 41-copy `F₂` pool falls behind costs far less than 40
//! calls.
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
//! - In an [`SwitchStrategy::Exhaustible`] pool the copies before the
//!   active one are retired for good and never read again, so they absorb
//!   nothing more: only the copies from the active one on count for the
//!   catch-ups and the drain, and a replay reaches only them.
//!
//! The log's updates take a 64th of the copies' space (one 16-byte update
//! per KiB of copy state), clamped to 64–1,024 updates. The `F₀` fleet
//! pools (~1.75 MB of KMV copies) keep 1,024 updates. A fleet `F₂` pool
//! (41 copies of 461 rows, 3,752 B each) keeps 150, a little fewer than
//! the ~160 its 40 lazy copies fall behind between two catch-ups of one
//! copy. The log and its cursors are counted in `space_bytes`.
//!
//! Every copy still read absorbs the same filtered sequence as in the
//! eager pool, only cut into different batches, and
//! [`Estimator::update_batch`] leaves the state one-at-a-time updates
//! leave. So every such copy's state once caught up, every raw estimate
//! and every published reading are bit-identical to the eager pool's. The
//! recent-items invariant becomes "absorbed or queued": every item in the
//! table has been absorbed by every copy now in the pool or sits in the
//! log past that copy's cursor.

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

/// A pool log's updates take this fraction's inverse of the copies'
/// space, before the clamp to [`LOG_MIN_UPDATES`, `LOG_MAX_UPDATES`].
const LOG_SPACE_DIVISOR: usize = 64;
/// The fewest updates a pool log holds: one live batch always fits.
const LOG_MIN_UPDATES: usize = STACK_BATCH;
/// The most updates a pool log holds: 16 KB.
const LOG_MAX_UPDATES: usize = 1_024;

/// The kept updates not every copy has absorbed yet (see [Deferred
/// fan-out](self#deferred-fan-out)): copy `i` still has to absorb
/// `updates[cursors[i]..]`, and the active copy's cursor is always at the
/// end. Methods taking `first` act on copies `first..` only; the copies
/// before it are retired and their cursors are stale.
#[derive(Debug, Clone)]
struct PoolLog {
    updates: Vec<Update>,
    cursors: Vec<usize>,
    /// The most updates the log holds.
    capacity: usize,
}

impl PoolLog {
    /// A log sized from the copies' own space (see the module docs).
    fn new<E: Estimator>(copies: &[E]) -> Self {
        let space: usize = copies.iter().map(Estimator::space_bytes).sum();
        let capacity = (space / LOG_SPACE_DIVISOR / std::mem::size_of::<Update>())
            .clamp(LOG_MIN_UPDATES, LOG_MAX_UPDATES);
        Self {
            updates: Vec::with_capacity(capacity),
            cursors: vec![0; copies.len()],
            capacity,
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

    /// Catches every copy from `first` on up and empties the log.
    fn catch_up_all<E: Estimator>(&mut self, copies: &mut [E], first: usize) {
        for i in first..copies.len() {
            self.catch_up(copies, i);
        }
        self.updates.clear();
        self.cursors.fill(0);
    }

    /// Queues `kept` (at most [`STACK_BATCH`] updates): makes room by
    /// catching up the copies furthest behind, feeds `kept` to the active
    /// copy, then catches up the one copy with the oldest cursor.
    fn push<E: Estimator>(
        &mut self,
        copies: &mut [E],
        first: usize,
        active: usize,
        kept: &[Update],
    ) {
        if kept.is_empty() {
            return;
        }
        let overflow = (self.updates.len() + kept.len()).saturating_sub(self.capacity);
        if overflow > 0 {
            for i in first..copies.len() {
                if self.cursors[i] < overflow {
                    self.catch_up(copies, i);
                }
            }
            let absorbed = self.cursors[first..].iter().copied().min().unwrap_or(0);
            self.updates.drain(..absorbed);
            for cursor in &mut self.cursors[first..] {
                *cursor -= absorbed;
            }
        }
        self.updates.extend_from_slice(kept);
        copies[active].update_batch(kept);
        self.cursors[active] = self.updates.len();
        let oldest = (first..copies.len())
            .min_by_key(|&i| self.cursors[i])
            .unwrap_or(active);
        self.catch_up(copies, oldest);
    }

    fn space_bytes(&self) -> usize {
        self.capacity * std::mem::size_of::<Update>()
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
    /// The updates the lazy copies have yet to absorb.
    log: PoolLog,
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
            log: PoolLog::new(&copies),
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

    /// The first copy that may still be read: an exhaustible pool never
    /// returns to the copies before the active one.
    fn first_live(&self) -> usize {
        match self.config.strategy {
            SwitchStrategy::Exhaustible => self.active,
            SwitchStrategy::Restart => 0,
        }
    }

    /// Brings every copy that may still be read up to date and empties
    /// the log.
    fn catch_up_all(&mut self) {
        let first = self.first_live();
        self.log.catch_up_all(&mut self.copies, first);
    }
}

impl<F> StrategyCore for SketchSwitch<F>
where
    F: EstimatorFactory + Send,
    F::Output: Send,
{
    fn ingest(&mut self, update: Update) {
        self.ingest_batch(&[update]);
    }

    /// Repeats are dropped first. A live batch reaches the active copy and
    /// the log (see the module docs). A replay-sized batch catches every
    /// copy up, then goes copy-major: each copy streams the whole batch
    /// before the next copy is touched, so each copy's counters stay
    /// cache-resident across it.
    fn ingest_batch(&mut self, updates: &[Update]) {
        let first = self.first_live();
        if updates.len() <= STACK_BATCH {
            let mut buffer = [Update::insert(0); STACK_BATCH];
            let kept = match self.recent.as_deref_mut() {
                Some(recent) => {
                    let n = recent.filter(updates, &mut buffer);
                    &buffer[..n]
                }
                None => updates,
            };
            return self.log.push(&mut self.copies, first, self.active, kept);
        }
        self.catch_up_all();
        let live = &mut self.copies[first..];
        match self.recent.as_deref_mut() {
            Some(recent) => {
                let mut kept = vec![Update::insert(0); updates.len()];
                let n = recent.filter(updates, &mut kept);
                feed(live, &kept[..n]);
            }
            None => feed(live, updates),
        }
    }

    /// Consults only the active copy, which is always caught up.
    fn raw_estimate(&self) -> f64 {
        debug_assert!(
            self.log.cursors[self.active] == self.log.updates.len(),
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
        self.log.catch_up(&mut self.copies, self.active);
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
            + self.log.space_bytes()
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

    /// The eager reference: Algorithm 1 as written, every update reaching
    /// every copy at once. It drives the copies and the switching of a
    /// [`SketchSwitch`] directly, so that pool's table and log stay empty
    /// and its `on_publish` has nobody to catch up.
    struct Eager<F: EstimatorFactory>(SketchSwitch<F>);

    impl<F> StrategyCore for Eager<F>
    where
        F: EstimatorFactory + Send,
        F::Output: Send,
    {
        fn ingest(&mut self, update: Update) {
            for copy in &mut self.0.copies {
                copy.update(update);
            }
        }

        fn ingest_batch(&mut self, updates: &[Update]) {
            feed(&mut self.0.copies, updates);
        }

        fn raw_estimate(&self) -> f64 {
            self.0.raw_estimate()
        }

        fn on_publish(&mut self) {
            self.0.on_publish();
        }

        fn space_bytes(&self) -> usize {
            self.0.space_bytes()
        }

        fn copies(&self) -> usize {
            self.0.copies()
        }

        fn strategy_name(&self) -> &'static str {
            "eager sketch-switching"
        }
    }

    /// Everything a pool shows: the reading's JSON, the value and raw
    /// estimate bits, the output changes, the switches and the active copy.
    fn reading<C, F>(
        robust: &Robustify<C>,
        pool: &SketchSwitch<F>,
    ) -> (String, u64, u64, usize, usize, usize)
    where
        C: StrategyCore,
        F: EstimatorFactory,
    {
        (
            robust.query().to_json(),
            robust.estimate().to_bits(),
            robust.core().raw_estimate().to_bits(),
            robust.output_changes(),
            pool.switches(),
            pool.active_index(),
        )
    }

    /// Streams `updates` into a pool of `factory`'s copies and into its
    /// eager reference, cycling through `batches` for the batch sizes (1
    /// goes through `update`). Checks every reading after every batch, and
    /// the state of every copy that may still be read (the pool's once
    /// caught up) every 50 batches and at the end. Returns the number of
    /// switches.
    fn assert_twins_agree<F>(
        factory: F,
        config: SketchSwitchConfig,
        updates: &[Update],
        batches: &[usize],
    ) -> usize
    where
        F: EstimatorFactory + Clone + Send,
        F::Output: Clone + Send + std::fmt::Debug,
    {
        let mut plan = RobustPlan::new(config.epsilon, 10_000);
        plan.domain = 1 << 20;
        let mut lazy = Robustify::new(SketchSwitch::new(factory.clone(), config, 5), plan).unwrap();
        let mut eager = Robustify::new(Eager(SketchSwitch::new(factory, config, 5)), plan).unwrap();
        let copies_agree = |lazy: &SketchSwitch<F>, eager: &SketchSwitch<F>| {
            let mut pool = lazy.clone();
            pool.catch_up_all();
            let first = pool.first_live();
            format!("{:?}", &pool.copies[first..]) == format!("{:?}", &eager.copies[first..])
        };
        let (mut rest, mut t) = (updates, 0);
        while !rest.is_empty() {
            let (chunk, tail) = rest.split_at(batches[t % batches.len()].min(rest.len()));
            rest = tail;
            if chunk.len() == 1 {
                lazy.update(chunk[0]);
                eager.update(chunk[0]);
            } else {
                lazy.update_batch(chunk);
                eager.update_batch(chunk);
            }
            let context = format!(
                "{:?} with {} copies, batches {batches:?}, step {t}",
                config.strategy, config.copies
            );
            let (pool, reference) = (lazy.core(), &eager.core().0);
            assert_eq!(
                reading(&lazy, pool),
                reading(&eager, reference),
                "{context}"
            );
            assert_eq!(pool.is_exhausted(), reference.is_exhausted());
            if t % 50 == 0 || rest.is_empty() {
                assert!(copies_agree(pool, reference), "{context}: copies");
            }
            t += 1;
        }
        lazy.core().switches()
    }

    /// The KMV ensemble of the twin tests: three copies of k = 32.
    fn small_kmv() -> MedianTrackingFactory<KmvFactory> {
        MedianTrackingFactory {
            inner: KmvFactory {
                config: KmvConfig { k: 32 },
            },
            config: MedianTrackingConfig { copies: 3 },
        }
    }

    /// A p-stable copy of `rows` rows.
    fn pstable(p: f64, rows: usize) -> PStableFactory {
        PStableFactory {
            config: PStableConfig { p, rows },
        }
    }

    /// A fleet `F₂` tenant's pool (`perfbench/fleets/fp2.json`, ε = 0.4):
    /// 41 restarting copies, of 461 rows each in the fleet.
    fn fleet_fp() -> SketchSwitchConfig {
        SketchSwitchConfig::restarting_for_moment(0.4, 2.0)
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
                let restarts = assert_twins_agree(small_kmv(), restart, updates, &[batch]);
                assert!(restarts >= 3, "{name}, batch {batch}: {restarts} restarts");
                assert_twins_agree(small_kmv(), exhaustible, updates, &[batch]);
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
    /// a pool of these shows exactly what its table lets through. It
    /// reports 64 KiB, so a pool of 16 or more keeps the longest log.
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
            1 << 16
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

    fn tally_pool(strategy: SwitchStrategy, copies: usize) -> SketchSwitch<TallyFactory> {
        let config = SketchSwitchConfig {
            epsilon: 0.2,
            copies,
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

    fn inserts(items: std::ops::Range<u64>) -> Vec<Update> {
        items.map(Update::insert).collect()
    }

    #[test]
    fn items_sharing_a_slot_both_reach_the_copies() {
        let a = 1u64;
        let b = (2..)
            .find(|&b| RecentItems::slot(b) == RecentItems::slot(a))
            .unwrap();
        let stream: Vec<Update> = [a, b, a, b, b].map(Update::insert).to_vec();
        let mut per_update = tally_pool(SwitchStrategy::Exhaustible, 2);
        for &u in &stream {
            per_update.ingest(u);
        }
        let mut batched = tally_pool(SwitchStrategy::Exhaustible, 2);
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
        let mut pool = tally_pool(SwitchStrategy::Exhaustible, 2);
        pool.ingest_batch(&stream);
        // The first insertion of 7 is recorded; the later ones repeat it.
        assert_eq!(reached(&mut pool), &stream[..5]);
    }

    #[test]
    fn a_restart_empties_the_table() {
        let mut pool = tally_pool(SwitchStrategy::Restart, 2);
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
        let mut pool = tally_pool(SwitchStrategy::Exhaustible, 2);
        pool.ingest(Update::insert(9));
        pool.on_publish();
        pool.ingest(Update::insert(9));
        assert_eq!(reached(&mut pool), [Update::insert(9)]);
    }

    #[test]
    fn a_retired_copy_receives_nothing_more() {
        let mut pool = tally_pool(SwitchStrategy::Exhaustible, 3);
        pool.ingest_batch(&inserts(0..8));
        pool.on_publish();
        // Copy 0 is retired: single updates, live batches and a
        // replay-sized batch reach only copies 1 and 2.
        pool.ingest(Update::insert(8));
        pool.ingest_batch(&inserts(9..20));
        pool.ingest_batch(&inserts(20..200));
        pool.ingest_batch(&inserts(200..210));
        pool.catch_up_all();
        assert_eq!(pool.copies[0].0, inserts(0..8));
        assert_eq!(pool.copies[1].0, inserts(0..210));
        assert_eq!(pool.copies[2].0, inserts(0..210));
        // The pool runs out: copy 2 stays active, and only it absorbs.
        pool.on_publish();
        pool.on_publish();
        assert!(pool.is_exhausted() && pool.active_index() == 2);
        pool.ingest_batch(&inserts(210..220));
        pool.ingest_batch(&inserts(220..300));
        pool.ingest(Update::insert(300));
        pool.catch_up_all();
        assert_eq!(pool.copies[1].0, inserts(0..210));
        assert_eq!(pool.copies[2].0, inserts(0..301));
    }

    #[test]
    fn every_pool_keeps_a_log_only_declaring_pools_keep_a_table() {
        // The fleet's F₂ pool: 41 copies of 3,752 B, so its log holds
        // 41 · 3,752 / 64 / 16 = 150 updates.
        let fp2 = SketchSwitch::new(pstable(2.0, 461), fleet_fp(), 1);
        assert!(fp2.recent.is_none());
        let copies: usize = fp2.copies.iter().map(Estimator::space_bytes).sum();
        assert_eq!((fp2.pool_size(), copies), (41, 41 * 3_752));
        assert_eq!(fp2.log.capacity, 150);
        assert_eq!(fp2.space_bytes(), copies + 64 + 150 * 16 + 41 * 8);

        // The fleet's F₀ pool: 24 copies of 9 KMV sketches (~1.75 MB), so
        // its log holds the most updates, and the log and cursors take
        // 16,384 + 24 · 8 = 16,576 B.
        let config = SketchSwitchConfig::restarting(0.25);
        let fleet_kmv = MedianTrackingFactory {
            config: MedianTrackingConfig { copies: 9 },
            ..tracked_kmv_factory(0.25)
        };
        let f0 = SketchSwitch::new(fleet_kmv, config, 1);
        assert!(f0.recent.is_some());
        assert_eq!((f0.pool_size(), f0.log.capacity), (24, LOG_MAX_UPDATES));
        let copies: usize = f0.copies.iter().map(Estimator::space_bytes).sum();
        assert_eq!(f0.space_bytes(), copies + 64 + 2_080 + 16_576);

        // A small pool keeps the shortest log, which one live batch fits.
        let config = SketchSwitchConfig::exhaustible(0.3, 3);
        let small = SketchSwitch::new(pstable(1.0, 61), config, 1);
        assert_eq!(small.log.capacity, LOG_MIN_UPDATES);
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
                    let switches =
                        assert_twins_agree(small_kmv(), restart(copies), updates, batches);
                    // The mixed schedule publishes less often.
                    let wraps = switches > copies || batches.len() > 1;
                    assert!(wraps, "{name}, {batches:?}: {switches} switches");
                }
                assert_twins_agree(small_kmv(), exhaustible, updates, batches);
            }
        }
    }

    #[test]
    fn deferring_pstable_copies_changes_no_reading() {
        // Deletions and non-unit updates break the p = 2 counting kernel's
        // runs of unit updates, so both of its paths are exercised.
        let updates: Vec<Update> = ZipfGenerator::new(1 << 12, 1.1, 5)
            .take_updates(1_000)
            .into_iter()
            .enumerate()
            .map(|(t, u)| match t % 7 {
                3 => Update::delete(u.item),
                5 => Update::new(u.item, 3),
                _ => u,
            })
            .collect();
        // A restarted p = 1 copy computes its calibration constant, so the
        // pools publish at ε = 0.3 to keep the restarts few.
        let restart = |copies| SketchSwitchConfig {
            epsilon: 0.3,
            copies,
            strategy: SwitchStrategy::Restart,
        };
        let exhaustible = SketchSwitchConfig::exhaustible(0.3, 20);
        for p in [1.0, 2.0] {
            for batches in [
                &[1][..],
                &[4],
                &[64],
                &[65],
                &[700],
                &[4, 1, 64, 700, 4, 65],
            ] {
                for copies in [3, 12] {
                    let switches =
                        assert_twins_agree(pstable(p, 61), restart(copies), &updates, batches);
                    // Without replay-sized batches the 3-copy pool wraps
                    // around, so restarted copies are read again.
                    let wraps = switches > copies || copies > 3 || batches.iter().any(|&b| b > 65);
                    assert!(wraps, "p = {p}, {batches:?}: {switches} switches");
                }
                assert_twins_agree(pstable(p, 61), exhaustible, &updates, batches);
            }
        }
        // The fleet's F₂ pool keeps a 150-update log, not the shortest.
        for batches in [&[4][..], &[4, 4, 1, 4, 65]] {
            assert_twins_agree(pstable(2.0, 461), fleet_fp(), &updates, batches);
        }
    }

    /// Counts the updates the copy it wraps receives.
    #[derive(Debug, Clone)]
    struct Counted<E>(E, usize);

    impl<E: Estimator> Estimator for Counted<E> {
        fn update(&mut self, update: Update) {
            self.0.update(update);
            self.1 += 1;
        }

        fn update_batch(&mut self, updates: &[Update]) {
            self.0.update_batch(updates);
            self.1 += updates.len();
        }

        fn estimate(&self) -> f64 {
            self.0.estimate()
        }

        fn space_bytes(&self) -> usize {
            self.0.space_bytes()
        }
    }

    struct CountedFactory<F>(F);

    impl<F: EstimatorFactory> EstimatorFactory for CountedFactory<F> {
        type Output = Counted<F::Output>;

        fn build(&self, seed: u64) -> Self::Output {
            Counted(self.0.build(seed), 0)
        }

        fn name(&self) -> String {
            format!("counted {}", self.0.name())
        }
    }

    /// Streams 400 batches of fresh items into `pool`, with sizes from
    /// `sizes` and every 50th batch replay-sized, and publishes after
    /// every 37th. Checks, by the updates each copy has `received`, that a
    /// live batch that fits the log reaches at most two copies (the active
    /// one and the one catching up), that a replay-sized batch leaves
    /// nothing queued, and that no retired copy receives anything. Returns
    /// the fresh items streamed and the overflows.
    fn assert_an_ingest_feeds_at_most_two<F>(
        pool: &mut SketchSwitch<F>,
        sizes: &[u64],
        received: impl Fn(&F::Output) -> usize,
    ) -> (u64, usize)
    where
        F: EstimatorFactory + Send,
        F::Output: Send,
    {
        let state =
            |pool: &SketchSwitch<F>| -> Vec<usize> { pool.copies.iter().map(&received).collect() };
        let (mut next, mut overflows) = (0u64, 0);
        for (t, &size) in sizes.iter().cycle().take(400).enumerate() {
            let size = if t % 50 == 49 { 100 } else { size };
            let batch = inserts(next..next + size);
            next += size;
            let (before, first) = (state(pool), pool.first_live());
            let fits = pool.log.updates.len() + batch.len() <= pool.log.capacity;
            pool.ingest_batch(&batch);
            let after = state(pool);
            let log = &pool.log;
            assert!(log.updates.len() <= log.capacity);
            assert_eq!(log.cursors[pool.active], log.updates.len());
            let fed: Vec<usize> = (0..after.len())
                .filter(|&i| before[i] != after[i])
                .collect();
            assert!(
                fed.iter().all(|&i| i >= first),
                "batch {t}: retired copy fed"
            );
            if batch.len() > STACK_BATCH {
                // A replay-sized batch reaches every live copy, deferring none.
                let live = after.len() - first;
                assert_eq!((fed.len(), log.updates.len()), (live, 0), "batch {t}");
            } else if fits {
                let fed = fed.len();
                assert!(fed <= 2, "batch {t}: {fed} copies fed without an overflow");
            } else {
                overflows += 1;
            }
            if t % 37 == 0 {
                pool.on_publish();
            }
        }
        (next, overflows)
    }

    #[test]
    fn an_ingest_feeds_the_active_copy_and_at_most_one_other() {
        for strategy in [SwitchStrategy::Restart, SwitchStrategy::Exhaustible] {
            // 23 lazy copies queue ~23 · 53 updates between catch-ups,
            // more than the 1,024-update log holds.
            let mut pool = tally_pool(strategy, 24);
            let (next, overflows) =
                assert_an_ingest_feeds_at_most_two(&mut pool, &[64, 64, 8, 64, 64], |copy| {
                    copy.0.len()
                });
            assert!(overflows > 0, "{strategy:?}: the log never filled");
            // Once caught up, every copy that may be read holds, in stream
            // order, the whole suffix since it was last restarted, and a
            // copy never restarted holds the whole stream. A retired copy
            // holds a prefix.
            let all = inserts(0..next);
            let first = pool.first_live();
            pool.catch_up_all();
            assert!(pool.copies[first..]
                .iter()
                .all(|copy| all.ends_with(&copy.0)));
            assert!(pool.copies[first..].iter().any(|copy| copy.0 == all));
            assert!(pool.copies[..first]
                .iter()
                .all(|copy| all.starts_with(&copy.0)));
        }
        // The fleet's F₂ pools: 40 lazy copies queue ~40 · 4.2 updates
        // between catch-ups, a little more than their 150-update log.
        for p in [1.0, 2.0] {
            let mut pool = SketchSwitch::new(CountedFactory(pstable(p, 461)), fleet_fp(), 1);
            let sizes = [4, 4, 1, 4, 8];
            let (_, overflows) =
                assert_an_ingest_feeds_at_most_two(&mut pool, &sizes, |copy| copy.1);
            assert!(overflows > 0, "p = {p}: the log never filled");
        }
    }
}
