//! Availability sessions: volunteer hosts are not merely *churning at a
//! rate* — they come and go on heavy-tailed session lengths (the XtremLab
//! measurements the paper cites (its reference 5) exist precisely to characterize this).
//! This module turns a synthetic host population into a deterministic
//! join/leave schedule that a simulator can replay, giving the churn
//! experiments realistic *per-host* dynamics instead of a uniform rate.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{lognormal, Host};

/// One membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEvent {
    /// Host `host` comes online (by trace index).
    Join {
        /// Index into the host population.
        host: usize,
    },
    /// Host `host` goes offline ungracefully.
    Leave {
        /// Index into the host population.
        host: usize,
    },
}

/// A time-ordered join/leave schedule over a host population.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// `(time in seconds, event)`, sorted by time.
    events: Vec<(u64, SessionEvent)>,
}

impl Schedule {
    /// Generates a schedule over `horizon_s` seconds: each host alternates
    /// online sessions (log-normal around its `uptime_hours`) and offline
    /// gaps (log-normal around `offline_mean_s`). Hosts start online with
    /// probability equal to their availability.
    ///
    /// Deterministic per seed.
    pub fn generate(hosts: &[Host], horizon_s: u64, offline_mean_s: u64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        for (i, h) in hosts.iter().enumerate() {
            let online_mean_s = (h.uptime_hours.max(1) * 3600) as f64;
            let mu_on = online_mean_s.ln();
            let mu_off = (offline_mean_s.max(1) as f64).ln();
            let mut t = 0u64;
            let mut online = rng.gen_range(0..100u64) < h.availability_pct;
            if online {
                events.push((0, SessionEvent::Join { host: i }));
            }
            while t < horizon_s {
                let mu = if online { mu_on } else { mu_off };
                let dur = lognormal(&mut rng, mu, 0.7).clamp(60.0, horizon_s as f64) as u64;
                t = t.saturating_add(dur);
                if t >= horizon_s {
                    break;
                }
                online = !online;
                events.push((
                    t,
                    if online {
                        SessionEvent::Join { host: i }
                    } else {
                        SessionEvent::Leave { host: i }
                    },
                ));
            }
        }
        events.sort_by_key(|&(t, _)| t);
        Schedule { events }
    }

    /// All events in time order.
    pub fn events(&self) -> &[(u64, SessionEvent)] {
        &self.events
    }

    /// Events in the half-open window `[from_s, to_s)`.
    pub fn window(&self, from_s: u64, to_s: u64) -> impl Iterator<Item = &(u64, SessionEvent)> {
        self.events
            .iter()
            .skip_while(move |&&(t, _)| t < from_s)
            .take_while(move |&&(t, _)| t < to_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traces::HostGenerator;

    fn hosts(n: usize) -> Vec<Host> {
        HostGenerator::new(4).take(n).collect()
    }

    #[test]
    fn deterministic_per_seed() {
        let h = hosts(50);
        let a = Schedule::generate(&h, 10_000, 3_600, 7);
        let b = Schedule::generate(&h, 10_000, 3_600, 7);
        assert_eq!(a.events(), b.events());
        let c = Schedule::generate(&h, 10_000, 3_600, 8);
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn events_are_time_ordered_and_alternating() {
        let h = hosts(30);
        let s = Schedule::generate(&h, 50_000, 1_800, 1);
        let mut last = 0;
        for &(t, _) in s.events() {
            assert!(t >= last);
            last = t;
        }
        // Per host: joins and leaves strictly alternate.
        for i in 0..h.len() {
            let mut online = false;
            for &(_, ev) in s.events() {
                match ev {
                    SessionEvent::Join { host } if host == i => {
                        assert!(!online, "double join for host {i}");
                        online = true;
                    }
                    SessionEvent::Leave { host } if host == i => {
                        assert!(online, "leave before join for host {i}");
                        online = false;
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn window_selects_subrange() {
        let h = hosts(40);
        let s = Schedule::generate(&h, 30_000, 1_200, 3);
        let total = s.events().len();
        let windowed: usize = s.window(0, 30_000).count();
        assert_eq!(windowed, total);
        let early: usize = s.window(0, 1).count();
        assert!(early <= total);
        for &(t, _) in s.window(5_000, 10_000) {
            assert!((5_000..10_000).contains(&t));
        }
    }
}
