//! Deterministic chaos schedules for soaking the campaign service.
//!
//! A [`ChaosPlan`] is a seeded, reproducible sequence of hostile actions
//! — server kills, transport abuse, queue pressure, client churn — that
//! the `chaos` bench binary replays against a real `campaignd`. The plan
//! is a pure function of `(seed, len)` through the same splitmix64 mix
//! the engine's [`FaultPlan`](crate::resilience::FaultPlan) rolls with,
//! so a failing soak is re-runnable bit-for-bit from its seed alone: the
//! seed *is* the repro.
//!
//! The module holds only the schedule (generation, rendering, round-trip
//! parsing) so it can be unit-tested without a server; driving the
//! actions against live binaries is the harness's job. The invariants
//! the harness checks after the storm:
//!
//! 1. every accepted job reaches a terminal state exactly once;
//! 2. recovered outputs are byte-identical to an undisturbed reference;
//! 3. idempotency keys never map to two job ids;
//! 4. the state dir passes `verify` (`--strict` when no I/O faults were
//!    injected — torn writes legitimately leave recoverable debris).

use crate::codec::Word;
use crate::run::splitmix64;

/// One hostile action in a chaos schedule.
///
/// Each variant maps to a concrete abuse the harness inflicts on the
/// running service; together they cover every failure injector the
/// stack exposes, composed in one randomized storm instead of one
/// polite test apiece.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// `kill -9` the server (no goodbye), then restart it on the same
    /// state dir — the crash-recovery path under test.
    Kill9,
    /// SIGTERM the server (graceful drain), then restart it.
    Sigterm,
    /// Send a line that is not a valid request.
    MalformedFrame,
    /// Send a request line past the server's bound (no newline in the
    /// first `MAX_REQUEST_LINE` bytes).
    OversizedFrame,
    /// Connect, send half a request, go silent — the read timeout must
    /// shed it.
    WedgedClient,
    /// Open a watch stream, read one frame, vanish mid-stream.
    ClientDisconnect,
    /// Burst sacrificial low-priority submissions past the queue bound —
    /// backpressure and shedding under load.
    QueueBurst,
    /// Submit a sacrificial job and cancel it.
    CancelJob,
    /// Re-submit an already-submitted idempotency key verbatim and check
    /// the same job id comes back.
    DuplicateSubmit,
    /// An innocent `status` probe — chaos includes normal traffic.
    StatusProbe,
}

// The canonical one-word names (plan rendering, `--require-action`).
crate::codec::words! {
    ChaosAction {
        Kill9 = "kill9",
        Sigterm = "sigterm",
        MalformedFrame = "malformed-frame",
        OversizedFrame = "oversized-frame",
        WedgedClient = "wedged-client",
        ClientDisconnect = "client-disconnect",
        QueueBurst = "queue-burst",
        CancelJob = "cancel-job",
        DuplicateSubmit = "duplicate-submit",
        StatusProbe = "status-probe",
    }
}

/// A seeded, reproducible schedule of chaos actions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    /// The seed the schedule was generated from.
    pub seed: u64,
    /// The actions, in execution order.
    pub actions: Vec<ChaosAction>,
}

impl ChaosPlan {
    /// Generates the schedule for `(seed, len)` — a pure function: the
    /// same pair always yields the same plan, on every platform.
    ///
    /// Server kills are rolled at a lower weight than transport abuse:
    /// each kill costs a full restart round-trip, and a soak that spends
    /// all its wall clock rebooting exercises recovery but never load.
    /// The weights still make a kill near-certain in any schedule of a
    /// dozen or more actions.
    pub fn generate(seed: u64, len: usize) -> ChaosPlan {
        // Two kill variants in 16 buckets: ~12% of actions restart the
        // server, the rest abuse it while it runs.
        const BUCKETS: [ChaosAction; 16] = [
            ChaosAction::Kill9,
            ChaosAction::Sigterm,
            ChaosAction::MalformedFrame,
            ChaosAction::OversizedFrame,
            ChaosAction::WedgedClient,
            ChaosAction::WedgedClient,
            ChaosAction::ClientDisconnect,
            ChaosAction::ClientDisconnect,
            ChaosAction::QueueBurst,
            ChaosAction::QueueBurst,
            ChaosAction::CancelJob,
            ChaosAction::CancelJob,
            ChaosAction::DuplicateSubmit,
            ChaosAction::DuplicateSubmit,
            ChaosAction::StatusProbe,
            ChaosAction::StatusProbe,
        ];
        let actions = (0..len as u64)
            .map(|i| {
                BUCKETS[(splitmix64(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % 16) as usize]
            })
            .collect();
        ChaosPlan { seed, actions }
    }

    /// True if the schedule fires `action` at least once — CI pins seeds
    /// whose plan is known to contain a `kill9`.
    pub fn contains(&self, action: ChaosAction) -> bool {
        self.actions.contains(&action)
    }

    /// Renders the schedule deterministically, one numbered action per
    /// line under a seed header — the harness prints this before the
    /// storm so a failure transcript always carries its own repro.
    pub fn render(&self) -> String {
        let mut out = format!("chaos-plan seed={} len={}\n", self.seed, self.actions.len());
        for (i, a) in self.actions.iter().enumerate() {
            out.push_str(&format!("{i:3} {}\n", a.name()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_pure_functions_of_seed_and_length() {
        let a = ChaosPlan::generate(7, 32);
        let b = ChaosPlan::generate(7, 32);
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        // A different seed reshuffles the schedule...
        let c = ChaosPlan::generate(8, 32);
        assert_ne!(a.actions, c.actions, "distinct seeds give distinct storms");
        // ...and a prefix relationship holds across lengths: the first k
        // actions do not depend on how long the schedule is.
        let long = ChaosPlan::generate(7, 64);
        assert_eq!(&long.actions[..32], &a.actions[..]);
    }

    #[test]
    fn action_names_round_trip() {
        for &action in ChaosAction::ALL {
            assert_eq!(ChaosAction::from_name(action.name()), Some(action));
        }
        assert_eq!(ChaosAction::from_name("nonsense"), None);
    }

    #[test]
    fn every_action_shows_up_across_a_modest_seed_sweep() {
        // No bucket is unreachable: across a handful of seeds every
        // action fires somewhere. Guards the weights against a refactor
        // that silently drops an injector from the storm.
        let mut seen = Vec::new();
        for seed in 0..16 {
            seen.extend(ChaosPlan::generate(seed, 32).actions);
        }
        for &action in ChaosAction::ALL {
            assert!(seen.contains(&action), "{} never rolled", action.name());
        }
    }

    #[test]
    fn renders_carry_the_repro_header() {
        let plan = ChaosPlan::generate(42, 3);
        let text = plan.render();
        assert!(text.starts_with("chaos-plan seed=42 len=3\n"), "{text}");
        assert_eq!(text.lines().count(), 4);
    }
}
