//! Admission control and accuracy shedding for the serving layer.
//!
//! Approximate query processing gives the server a degradation axis no
//! exact engine has: under overload it can *lower the accuracy* of answers
//! — raise the tolerated error, shrink the I/O budget — instead of turning
//! queries away.  This module holds the pure policy: [`ShedTier`] (how much
//! accuracy to give up), [`ShedPolicy`] (which queue depth maps to which
//! tier), and [`AdmissionController`] (the depth-tracking gate the server
//! consults per statement).  Keeping the logic here, free of sockets and
//! threads, makes the invariants directly property-testable:
//!
//! * tiers are **monotone** in queue depth — accuracy degrades before
//!   refusal, never after;
//! * refusal (`BUSY`) happens **only** at the queue's capacity watermark;
//! * every admission is paired with exactly one release (the server turns
//!   this into "every admitted query gets exactly one terminal frame").

use crate::config::VerdictConfig;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// How much accuracy the server sheds for one admitted query.
///
/// Tiers are ordered: a higher tier never reports a *tighter* accuracy
/// contract than a lower one.  `None` is the no-shedding fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ShedTier {
    /// No shedding: the query runs under the session's own options.
    #[default]
    None,
    /// Light shedding: a session's error target is loosened to ≥ 2%
    /// relative error; the I/O budget is kept.
    Light,
    /// Heavy shedding: error target loosened to ≥ 5%, I/O budget halved.
    Heavy,
    /// Critical shedding (last step before refusal): error target loosened
    /// to ≥ 10%, I/O budget quartered.
    Critical,
}

impl ShedTier {
    /// The floor this tier raises a session's `max_relative_error` to
    /// (`None` for the unshedded tier).  A session that already tolerates
    /// *more* error than the floor keeps its own setting, and a session with
    /// no target at all keeps none — shedding never tightens a contract, and
    /// never creates one: an answer over its target is re-run exactly on the
    /// base tables, the opposite of what overload needs.
    pub fn target_error_floor(self) -> Option<f64> {
        match self {
            ShedTier::None => None,
            ShedTier::Light => Some(0.02),
            ShedTier::Heavy => Some(0.05),
            ShedTier::Critical => Some(0.10),
        }
    }

    /// Multiplier applied to the effective I/O budget (≤ 1).
    pub fn io_budget_scale(self) -> f64 {
        match self {
            ShedTier::None | ShedTier::Light => 1.0,
            ShedTier::Heavy => 0.5,
            ShedTier::Critical => 0.25,
        }
    }

    /// Numeric level (0 = unshedded), reported on the wire as `shed=<n>`.
    pub fn level(self) -> u8 {
        match self {
            ShedTier::None => 0,
            ShedTier::Light => 1,
            ShedTier::Heavy => 2,
            ShedTier::Critical => 3,
        }
    }

    /// The tier for a numeric level (saturating at `Critical`).
    pub fn from_level(level: u8) -> ShedTier {
        match level {
            0 => ShedTier::None,
            1 => ShedTier::Light,
            2 => ShedTier::Heavy,
            _ => ShedTier::Critical,
        }
    }

    /// Human-readable tag used in `DEGRADED` annotations and stats.
    pub fn label(self) -> &'static str {
        match self {
            ShedTier::None => "none",
            ShedTier::Light => "light",
            ShedTier::Heavy => "heavy",
            ShedTier::Critical => "critical",
        }
    }

    /// Folds the tier into an effective per-statement configuration:
    /// raises an existing relative-error target to the tier's floor (no
    /// target stays no target) and scales the I/O budget down.  Both knobs
    /// are [`AnswerSettings`](crate::config::AnswerSettings), part of every
    /// answer-cache key, so degraded answers never pollute unshedded
    /// entries.
    pub fn apply(self, cfg: &mut VerdictConfig) {
        if let Some(floor) = self.target_error_floor() {
            cfg.max_relative_error = cfg.max_relative_error.map(|t| t.max(floor));
            // Keep at least a sliver of budget so the plan stays feasible.
            cfg.io_budget = (cfg.io_budget * self.io_budget_scale()).max(1e-4);
        }
    }
}

/// Maps queue depth to a [`ShedTier`] via fractional watermarks of the
/// queue capacity; refusal happens only when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedPolicy {
    /// Maximum number of concurrently admitted (queued + executing)
    /// statements; depth at capacity refuses with `BUSY`.
    pub queue_capacity: usize,
    /// Depth fraction at which [`ShedTier::Light`] begins.
    pub light_watermark: f64,
    /// Depth fraction at which [`ShedTier::Heavy`] begins.
    pub heavy_watermark: f64,
    /// Depth fraction at which [`ShedTier::Critical`] begins.
    pub critical_watermark: f64,
}

impl ShedPolicy {
    /// The default watermarks (50% / 75% / 90%) over the given capacity.
    pub fn for_capacity(queue_capacity: usize) -> ShedPolicy {
        ShedPolicy {
            queue_capacity: queue_capacity.max(1),
            light_watermark: 0.50,
            heavy_watermark: 0.75,
            critical_watermark: 0.90,
        }
    }

    /// The tier applied to a query admitted at the given depth (depth =
    /// statements already admitted, not counting this one).  The watermark
    /// fraction counts the arriving statement itself, so the final slot
    /// before refusal always sheds at [`ShedTier::Critical`] — degradation
    /// strictly precedes refusal at every capacity.
    pub fn tier_at(&self, depth: usize) -> ShedTier {
        let cap = self.queue_capacity.max(1) as f64;
        let fraction = (depth + 1) as f64 / cap;
        if fraction >= self.critical_watermark {
            ShedTier::Critical
        } else if fraction >= self.heavy_watermark {
            ShedTier::Heavy
        } else if fraction >= self.light_watermark {
            ShedTier::Light
        } else {
            ShedTier::None
        }
    }

    /// True when a query arriving at the given depth must be refused.
    pub fn refuses_at(&self, depth: usize) -> bool {
        depth >= self.queue_capacity
    }
}

/// The admission decision for one arriving statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admitted, to run under the given shed tier.
    Admit(ShedTier),
    /// Refused: the run queue is at its capacity watermark (`BUSY`).
    Refuse,
}

/// Counters published by an [`AdmissionController`] (all monotone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Statements admitted (any tier).
    pub admitted: u64,
    /// Statements admitted with a non-trivial shed tier.
    pub shed: u64,
    /// Statements refused with `BUSY`.
    pub refused: u64,
    /// Highest concurrently-admitted depth observed.
    pub peak_depth: u64,
    /// Statements admitted and not yet released when the snapshot was taken.
    pub depth: u64,
}

/// Thread-safe admission gate: tracks the number of admitted-but-unfinished
/// statements and applies a [`ShedPolicy`] to each arrival.
///
/// The contract is strict ticketing: every [`Self::try_admit`] returning
/// [`Admission::Admit`] must be paired with exactly one [`Self::release`].
#[derive(Debug)]
pub struct AdmissionController {
    policy: ShedPolicy,
    depth: AtomicUsize,
    admitted: AtomicU64,
    shed: AtomicU64,
    refused: AtomicU64,
    peak_depth: AtomicU64,
}

impl AdmissionController {
    /// A controller over the given policy, starting idle.
    pub fn new(policy: ShedPolicy) -> AdmissionController {
        AdmissionController {
            policy,
            depth: AtomicUsize::new(0),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            peak_depth: AtomicU64::new(0),
        }
    }

    /// The policy this controller enforces.
    pub fn policy(&self) -> &ShedPolicy {
        &self.policy
    }

    /// Number of statements currently admitted and not yet released.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    /// Attempts to admit one statement: refuses iff the queue is at its
    /// capacity watermark, otherwise reserves a slot and reports the shed
    /// tier the statement must run under.
    pub fn try_admit(&self) -> Admission {
        // Reserve optimistically, then check the watermark: compare-exchange
        // free, and over-admission is impossible because the reservation
        // itself is counted against capacity.
        let prior = self.depth.fetch_add(1, Ordering::SeqCst);
        if self.policy.refuses_at(prior) {
            self.depth.fetch_sub(1, Ordering::SeqCst);
            self.refused.fetch_add(1, Ordering::Relaxed);
            return Admission::Refuse;
        }
        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.peak_depth
            .fetch_max(prior as u64 + 1, Ordering::Relaxed);
        let tier = self.policy.tier_at(prior);
        if tier != ShedTier::None {
            self.shed.fetch_add(1, Ordering::Relaxed);
        }
        Admission::Admit(tier)
    }

    /// Releases one previously admitted statement's slot.
    pub fn release(&self) {
        let prior = self.depth.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prior > 0, "release without a matching admit");
    }

    /// A snapshot of the monotone counters and the current depth.
    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            peak_depth: self.peak_depth.load(Ordering::Relaxed),
            depth: self.depth() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_are_monotone_in_depth() {
        let policy = ShedPolicy::for_capacity(100);
        let mut last = ShedTier::None;
        for depth in 0..=100 {
            let tier = policy.tier_at(depth);
            assert!(tier >= last, "tier regressed at depth {depth}");
            last = tier;
        }
    }

    #[test]
    fn refusal_only_at_capacity() {
        let policy = ShedPolicy::for_capacity(8);
        for depth in 0..8 {
            assert!(!policy.refuses_at(depth));
        }
        assert!(policy.refuses_at(8));
        assert!(policy.refuses_at(9));
    }

    #[test]
    fn degradation_precedes_refusal() {
        // Just below capacity the policy must already be shedding hard:
        // accuracy degrades before any refusal.
        for cap in [4usize, 10, 64, 1000] {
            let policy = ShedPolicy::for_capacity(cap);
            assert_eq!(policy.tier_at(cap - 1), ShedTier::Critical, "cap {cap}");
        }
    }

    #[test]
    fn apply_never_tightens_the_contract() {
        let mut cfg = VerdictConfig::default();
        cfg.max_relative_error = Some(0.5);
        let budget = cfg.io_budget;
        ShedTier::Critical.apply(&mut cfg);
        assert_eq!(cfg.max_relative_error, Some(0.5));
        assert!(cfg.io_budget <= budget);

        // A tighter target is loosened to the floor...
        let mut cfg = VerdictConfig::default();
        cfg.max_relative_error = Some(0.001);
        ShedTier::Light.apply(&mut cfg);
        assert_eq!(cfg.max_relative_error, Some(0.02));

        // ...but a session without a target gets none: a target makes
        // `pipeline::finish` re-run answers over it exactly.
        for tier in [ShedTier::Light, ShedTier::Heavy, ShedTier::Critical] {
            let mut cfg = VerdictConfig::default();
            assert_eq!(cfg.max_relative_error, None);
            tier.apply(&mut cfg);
            assert_eq!(cfg.max_relative_error, None, "{tier:?}");
            assert!(cfg.io_budget <= budget);
        }
    }

    #[test]
    fn controller_ticketing_round_trips() {
        let ctl = AdmissionController::new(ShedPolicy::for_capacity(2));
        assert!(matches!(ctl.try_admit(), Admission::Admit(_)));
        assert!(matches!(ctl.try_admit(), Admission::Admit(_)));
        assert_eq!(ctl.try_admit(), Admission::Refuse);
        ctl.release();
        assert!(matches!(ctl.try_admit(), Admission::Admit(_)));
        ctl.release();
        ctl.release();
        assert_eq!(ctl.depth(), 0);
        let stats = ctl.stats();
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.refused, 1);
        assert_eq!(stats.peak_depth, 2);
    }

    #[test]
    fn levels_round_trip() {
        for tier in [
            ShedTier::None,
            ShedTier::Light,
            ShedTier::Heavy,
            ShedTier::Critical,
        ] {
            assert_eq!(ShedTier::from_level(tier.level()), tier);
        }
    }
}
