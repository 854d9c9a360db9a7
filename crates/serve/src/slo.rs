//! Per-tenant service-level objectives over scheduler rounds.
//!
//! The serve runtime is coordinator-free: every rank folds the same outcome
//! allgather into the same job table. The SLO engine rides that replication
//! — it observes only fold-derived facts (queue wait, end-to-end latency,
//! success, all measured in *scheduler rounds*, the runtime's deterministic
//! clock) and evaluates burn rates in pure integer arithmetic, so every
//! rank computes bit-identical alert state with **zero extra
//! communication**, and a seeded chaos replay reproduces the alert log
//! byte-for-byte.
//!
//! Alerting follows the multi-window burn-rate recipe: an objective's error
//! budget is `allowed` (e.g. 5% of requests may miss a p95 latency target);
//! the burn rate is `bad_fraction / allowed`. An alert **fires** when the
//! burn rate meets the threshold over *both* a fast window (catches acute
//! breakage quickly) and a slow window (suppresses blips), and **resolves**
//! when the fast window recovers.

use std::collections::BTreeMap;

use diffreg_comm::Fnv1a;
use diffreg_telemetry::MetricsRegistry;

/// The three serve objectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Objective {
    /// 95% of jobs start within `queue_wait_rounds` of submission.
    QueueWaitP95,
    /// 95% of jobs finish within `latency_rounds` of submission.
    LatencyP95,
    /// At least `success_target_milli`/1000 of jobs complete successfully.
    SuccessRate,
}

impl Objective {
    /// Stable kebab-case name (metrics labels, alert log, bundles).
    pub fn name(self) -> &'static str {
        match self {
            Objective::QueueWaitP95 => "queue-wait-p95",
            Objective::LatencyP95 => "latency-p95",
            Objective::SuccessRate => "success-rate",
        }
    }

    /// All objectives in evaluation order.
    pub const ALL: [Objective; 3] =
        [Objective::QueueWaitP95, Objective::LatencyP95, Objective::SuccessRate];
}

/// The per-tenant objective targets and alerting windows. One policy
/// applies to every tenant (per-tenant *state* is tracked separately).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloPolicy {
    /// Queue-wait p95 target, in rounds (a job should start within this).
    pub queue_wait_rounds: u64,
    /// End-to-end p95 target, in rounds (submit → terminal).
    pub latency_rounds: u64,
    /// Success-rate target in milli (990 = 99.0%). The error budget is
    /// `1000 - success_target_milli`.
    pub success_target_milli: u64,
    /// Fast alerting window, in rounds.
    pub fast_window: usize,
    /// Slow alerting window, in rounds (≥ fast).
    pub slow_window: usize,
    /// Burn-rate threshold in milli (2000 = alert at 2× budget burn).
    pub burn_threshold_milli: u64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            queue_wait_rounds: 4,
            latency_rounds: 24,
            success_target_milli: 950,
            fast_window: 8,
            slow_window: 32,
            burn_threshold_milli: 2000,
        }
    }
}

impl SloPolicy {
    /// Error budget for `obj` as a rational `(numerator, denominator)`
    /// fraction of observations allowed to be bad. p95 objectives allow
    /// 5%; the success objective allows `1000 - target` milli.
    pub fn allowed_frac(&self, obj: Objective) -> (u64, u64) {
        match obj {
            Objective::QueueWaitP95 | Objective::LatencyP95 => (5, 100),
            Objective::SuccessRate => (1000 - self.success_target_milli.min(1000), 1000),
        }
    }
}

/// One round's observations for one (tenant, objective): how many terminal
/// jobs landed in the round, and how many blew the objective's budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Bucket {
    round: u64,
    total: u64,
    bad: u64,
}

/// Alert state for one (tenant, objective).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Within budget.
    Ok,
    /// Burn rate at/above threshold in both windows.
    Firing,
}

#[derive(Debug, Clone, Default)]
struct ObjectiveTrack {
    /// Newest-last per-round buckets; pruned to `slow_window` rounds.
    buckets: Vec<Bucket>,
    firing: bool,
    fired_count: u64,
}

impl ObjectiveTrack {
    fn observe(&mut self, round: u64, bad: bool) {
        match self.buckets.last_mut() {
            Some(b) if b.round == round => {
                b.total += 1;
                b.bad += u64::from(bad);
            }
            _ => self.buckets.push(Bucket { round, total: 1, bad: u64::from(bad) }),
        }
    }

    fn prune(&mut self, round: u64, slow_window: usize) {
        let keep_from = (round + 1).saturating_sub(slow_window as u64);
        self.buckets.retain(|b| b.round >= keep_from);
    }

    /// `(total, bad)` over the last `window` rounds ending at `round`.
    fn window_counts(&self, round: u64, window: usize) -> (u64, u64) {
        let keep_from = (round + 1).saturating_sub(window as u64);
        let mut total = 0;
        let mut bad = 0;
        for b in self.buckets.iter().filter(|b| b.round >= keep_from && b.round <= round) {
            total += b.total;
            bad += b.bad;
        }
        (total, bad)
    }
}

/// Burn rate in milli over a window, as pure integer math:
/// `burn = (bad / total) / (allowed_num / allowed_den)`, scaled ×1000.
/// Returns 0 for an empty window (no data ⇒ no burn).
pub fn burn_milli(total: u64, bad: u64, allowed: (u64, u64)) -> u64 {
    let (num, den) = allowed;
    if total == 0 || num == 0 {
        // A zero budget with any bad observation is an infinite burn.
        return if bad > 0 { u64::MAX } else { 0 };
    }
    // (bad * den * 1000) / (total * num) — u128 to dodge overflow.
    ((bad as u128 * den as u128 * 1000) / (total as u128 * num as u128)).min(u64::MAX as u128)
        as u64
}

/// One alert transition, for the deterministic alert log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloAlert {
    /// Round the transition happened.
    pub round: u64,
    /// Tenant the alert belongs to.
    pub tenant: String,
    /// Objective that breached/recovered.
    pub objective: Objective,
    /// New state.
    pub state: AlertState,
    /// Fast-window burn rate in milli at transition time.
    pub fast_burn_milli: u64,
    /// Slow-window burn rate in milli at transition time.
    pub slow_burn_milli: u64,
}

impl SloAlert {
    /// Renders the alert-log line (deterministic; no wall clock).
    pub fn render(&self) -> String {
        format!(
            "round {:>4}: {}/{} {} (burn fast={}m slow={}m)",
            self.round,
            self.tenant,
            self.objective.name(),
            match self.state {
                AlertState::Firing => "FIRING",
                AlertState::Ok => "resolved",
            },
            self.fast_burn_milli,
            self.slow_burn_milli
        )
    }
}

/// The replicated SLO engine: every rank feeds it the same fold-derived
/// observations in the same order, so its entire state — windows, alert
/// transitions, digest — is bit-identical across ranks and replays.
#[derive(Debug, Clone, Default)]
pub struct SloEngine {
    /// The active policy.
    pub policy: SloPolicy,
    tracks: BTreeMap<(String, Objective), ObjectiveTrack>,
    /// Every alert transition, in order.
    pub alert_log: Vec<SloAlert>,
}

impl SloEngine {
    /// A new engine with `policy`.
    pub fn new(policy: SloPolicy) -> Self {
        SloEngine { policy, tracks: BTreeMap::new(), alert_log: Vec::new() }
    }

    /// Records one job reaching a terminal state at `round`.
    /// `queue_wait`/`e2e` are in rounds; `success` means `Completed`.
    pub fn observe_terminal(
        &mut self,
        tenant: &str,
        round: u64,
        queue_wait: u64,
        e2e: u64,
        success: bool,
    ) {
        let bads = [
            (Objective::QueueWaitP95, queue_wait > self.policy.queue_wait_rounds),
            (Objective::LatencyP95, e2e > self.policy.latency_rounds),
            (Objective::SuccessRate, !success),
        ];
        for (obj, bad) in bads {
            self.tracks.entry((tenant.to_string(), obj)).or_default().observe(round, bad);
        }
    }

    /// Ends `round`: rotates windows and evaluates alert transitions.
    /// Returns the transitions that happened this round (also appended to
    /// [`SloEngine::alert_log`]).
    pub fn advance_round(&mut self, round: u64) -> Vec<SloAlert> {
        let mut out = Vec::new();
        let policy = self.policy.clone();
        for ((tenant, obj), track) in self.tracks.iter_mut() {
            track.prune(round, policy.slow_window);
            let allowed = policy.allowed_frac(*obj);
            let (ft, fb) = track.window_counts(round, policy.fast_window);
            let (st, sb) = track.window_counts(round, policy.slow_window);
            let fast = burn_milli(ft, fb, allowed);
            let slow = burn_milli(st, sb, allowed);
            let breach = fast >= policy.burn_threshold_milli && slow >= policy.burn_threshold_milli;
            let next = if track.firing {
                // Resolve on the fast window: acute breakage over.
                fast >= policy.burn_threshold_milli
            } else {
                breach
            };
            if next != track.firing {
                track.firing = next;
                if next {
                    track.fired_count += 1;
                }
                let alert = SloAlert {
                    round,
                    tenant: tenant.clone(),
                    objective: *obj,
                    state: if next { AlertState::Firing } else { AlertState::Ok },
                    fast_burn_milli: fast,
                    slow_burn_milli: slow,
                };
                self.alert_log.push(alert.clone());
                out.push(alert);
            }
        }
        out
    }

    /// `tenant/objective` names currently firing, in deterministic order.
    pub fn firing(&self) -> Vec<String> {
        self.tracks
            .iter()
            .filter(|(_, t)| t.firing)
            .map(|((tenant, obj), _)| format!("{tenant}/{}", obj.name()))
            .collect()
    }

    /// FNV-1a digest over the complete alert-relevant state: every tracked
    /// (tenant, objective) window, firing flag, and the full alert log.
    /// Equal digests across ranks prove bit-identical alert state.
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for ((tenant, obj), track) in &self.tracks {
            h.str(tenant).str(obj.name());
            h.u64(u64::from(track.firing)).u64(track.fired_count);
            for b in &track.buckets {
                h.u64(b.round).u64(b.total).u64(b.bad);
            }
        }
        for a in &self.alert_log {
            h.str(&a.render());
        }
        h.finish()
    }

    /// Renders the full alert log, one line per transition.
    pub fn render_alert_log(&self) -> Vec<String> {
        self.alert_log.iter().map(SloAlert::render).collect()
    }

    /// Exports burn rates and alert state into `metrics` (Prometheus-style
    /// label-in-name keys).
    pub fn export(&self, round: u64, metrics: &mut MetricsRegistry) {
        let policy = &self.policy;
        for ((tenant, obj), track) in &self.tracks {
            let allowed = policy.allowed_frac(*obj);
            let (ft, fb) = track.window_counts(round, policy.fast_window);
            let (st, sb) = track.window_counts(round, policy.slow_window);
            // Tenant ids are caller-supplied: escape them per the
            // exposition format before quoting.
            let tenant = diffreg_telemetry::escape_label_value(tenant);
            let base = format!("tenant=\"{tenant}\",objective=\"{}\"", obj.name());
            metrics.set_gauge(
                &format!("diffreg_slo_burn_milli{{{base},window=\"fast\"}}"),
                burn_milli(ft, fb, allowed) as f64,
            );
            metrics.set_gauge(
                &format!("diffreg_slo_burn_milli{{{base},window=\"slow\"}}"),
                burn_milli(st, sb, allowed) as f64,
            );
            metrics.set_gauge(
                &format!("diffreg_slo_firing{{{base}}}"),
                f64::from(u8::from(track.firing)),
            );
            metrics.set_gauge(
                &format!("diffreg_slo_alerts_fired_total{{{base}}}"),
                track.fired_count as f64,
            );
        }
        metrics.set_gauge("diffreg_slo_alert_transitions", self.alert_log.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffreg_testkit::prop_check;

    fn policy(fast: usize, slow: usize, thr: u64) -> SloPolicy {
        SloPolicy {
            queue_wait_rounds: 2,
            latency_rounds: 10,
            success_target_milli: 900,
            fast_window: fast,
            slow_window: slow,
            burn_threshold_milli: thr,
        }
    }

    #[test]
    fn burn_rate_is_exact_integer_math() {
        // 10% bad against a 5% budget = 2.0x burn.
        assert_eq!(burn_milli(100, 10, (5, 100)), 2000);
        // Empty window burns nothing.
        assert_eq!(burn_milli(0, 0, (5, 100)), 0);
        // Zero budget: any failure is infinite burn.
        assert_eq!(burn_milli(10, 1, (0, 1000)), u64::MAX);
        assert_eq!(burn_milli(10, 0, (0, 1000)), 0);
    }

    #[test]
    fn fires_only_when_both_windows_breach_and_resolves_on_fast() {
        let mut e = SloEngine::new(policy(2, 8, 2000));
        // Rounds 0..5: all failures for tenant "acme" → success-rate burn
        // 10x (budget 10%). Slow window needs enough data too.
        for r in 0..3 {
            e.observe_terminal("acme", r, 0, 1, false);
            let alerts = e.advance_round(r);
            if r == 0 {
                // Fast and slow windows both see 1/1 bad already.
                assert_eq!(alerts.len(), 1, "{alerts:?}");
                assert_eq!(alerts[0].state, AlertState::Firing);
                assert_eq!(alerts[0].objective, Objective::SuccessRate);
            }
        }
        assert!(e.firing().contains(&"acme/success-rate".to_string()));
        // Recovery: successes push the fast window under threshold.
        let mut resolved_round = None;
        for r in 3..12 {
            for _ in 0..4 {
                e.observe_terminal("acme", r, 0, 1, true);
            }
            let alerts = e.advance_round(r);
            if alerts.iter().any(|a| a.state == AlertState::Ok) && resolved_round.is_none() {
                resolved_round = Some(r);
            }
        }
        let resolved = resolved_round.expect("alert must resolve on fast-window recovery");
        // Fast window = 2 rounds: once both contain only successes the
        // burn is 0; resolution must not wait for the slow window.
        assert!(resolved <= 4, "resolved at {resolved}, expected fast-window recovery");
        assert!(e.firing().is_empty());
        // The alert log holds exactly one FIRING and one resolved line.
        let log = e.render_alert_log();
        assert_eq!(log.len(), 2, "{log:?}");
        assert!(log[0].contains("FIRING"), "{}", log[0]);
        assert!(log[1].contains("resolved"), "{}", log[1]);
    }

    #[test]
    fn prop_sliding_window_rotation_matches_brute_force() {
        prop_check!(cases = 200, |rng| {
            let slow = 1 + rng.index(12);
            let fast = 1 + rng.index(slow);
            let rounds = 1 + rng.index(40) as u64;
            let mut track = ObjectiveTrack::default();
            let mut all: Vec<(u64, bool)> = Vec::new();
            for r in 0..rounds {
                for _ in 0..rng.index(4) {
                    let bad = rng.chance(0.5);
                    track.observe(r, bad);
                    all.push((r, bad));
                }
                track.prune(r, slow);
                for (window, label) in [(fast, "fast"), (slow, "slow")] {
                    let keep_from = (r + 1).saturating_sub(window as u64);
                    let want_total =
                        all.iter().filter(|(br, _)| *br >= keep_from && *br <= r).count() as u64;
                    let want_bad = all
                        .iter()
                        .filter(|(br, bad)| *br >= keep_from && *br <= r && *bad)
                        .count() as u64;
                    let (got_total, got_bad) = track.window_counts(r, window);
                    assert_eq!(
                        (got_total, got_bad),
                        (want_total, want_bad),
                        "{label} window mismatch at round {r} (fast={fast}, slow={slow})"
                    );
                }
            }
        });
    }

    #[test]
    fn prop_burn_threshold_exact_at_window_boundaries() {
        prop_check!(cases = 200, |rng| {
            let total = 1 + rng.index(1000) as u64;
            let bad = rng.index(total as usize + 1) as u64;
            let num = 1 + rng.index(100) as u64;
            let den = num + rng.index(1000) as u64;
            let burn = burn_milli(total, bad, (num, den));
            // burn >= thr  ⇔  bad * den * 1000 >= thr * num * total,
            // checked against the definition in u128 with no rounding.
            for thr in [burn.saturating_sub(1), burn, burn.saturating_add(1)] {
                let lhs = bad as u128 * den as u128 * 1000;
                let rhs = thr as u128 * num as u128 * total as u128;
                let by_def = lhs >= rhs;
                let by_burn = burn >= thr;
                // burn is floor(lhs / (num*total)); both sides agree except
                // in the floor gap, where by_def may be true one earlier.
                if by_burn {
                    assert!(by_def, "burn {burn} >= thr {thr} but definition disagrees");
                }
            }
        });
    }

    #[test]
    fn prop_engine_state_digest_is_replay_deterministic() {
        prop_check!(cases = 50, |rng| {
            let pol = policy(1 + rng.index(4), 4 + rng.index(8), 1500);
            let mut script: Vec<(u64, String, u64, u64, bool)> = Vec::new();
            let rounds = 1 + rng.index(20) as u64;
            for r in 0..rounds {
                for _ in 0..rng.index(3) {
                    let tenant = format!("t{}", rng.index(3));
                    script.push((r, tenant, rng.index(6) as u64, rng.index(30) as u64, rng.chance(0.66)));
                }
            }
            let run = |script: &[(u64, String, u64, u64, bool)]| {
                let mut e = SloEngine::new(pol.clone());
                let mut round = 0;
                for (r, tenant, qw, e2e, ok) in script {
                    while round < *r {
                        e.advance_round(round);
                        round += 1;
                    }
                    e.observe_terminal(tenant, *r, *qw, *e2e, *ok);
                }
                e.advance_round(round);
                (e.state_digest(), e.render_alert_log())
            };
            let (d1, log1) = run(&script);
            let (d2, log2) = run(&script);
            assert_eq!(d1, d2, "identical observation scripts must give identical digests");
            assert_eq!(log1, log2);
        });
    }

    #[test]
    fn export_escapes_tenant_label_values() {
        let mut e = SloEngine::new(SloPolicy::default());
        e.observe_terminal("acme\"corp\\eu\n", 0, 0, 0, true);
        e.advance_round(0);
        let mut m = MetricsRegistry::new();
        e.export(0, &mut m);
        let out = m.render_prometheus();
        assert!(
            out.contains(
                "diffreg_slo_burn_milli{tenant=\"acme\\\"corp\\\\eu\\n\",objective=\"latency-p95\",window=\"fast\"}"
            ),
            "escaped tenant label pinned: {out}"
        );
        assert!(!out.contains("eu\n\""), "raw newline must not survive in a label: {out}");
    }
}
