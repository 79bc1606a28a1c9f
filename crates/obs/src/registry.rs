//! Counters and log2-bucketed histograms with deterministic snapshots.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::event::{Event, Layer};
use crate::observer::Observer;

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket `b` holds samples whose bit length is `b` (so bucket 0 is the
/// value 0, bucket 1 is value 1, bucket 2 is 2–3, bucket 3 is 4–7, …).
/// 65 buckets cover the whole `u64` range; recording is O(1) and the
/// digest of a histogram is independent of sample order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen, 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The non-empty buckets as `(lower_bound, count)` pairs in ascending
    /// order. `lower_bound` is the smallest value the bucket can hold.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| (if b == 0 { 0 } else { 1u64 << (b - 1) }, c))
            .collect()
    }

    /// Folds another histogram into this one (bucket-wise addition).
    ///
    /// Because buckets are positional the merge is exact — merging then
    /// querying equals querying the union of both sample streams.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, &c) in other.buckets.iter().enumerate() {
            self.buckets[b] += c;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Estimated `q`-quantile of the recorded samples, `q ∈ [0, 1]`.
    ///
    /// Walks the cumulative bucket counts to the bucket holding the sample
    /// of rank `ceil(q · count)` and linearly interpolates inside it
    /// (bucket `b > 0` spans `[2^(b-1), 2^b)`), clamped to [`max`]. Returns
    /// 0.0 when the histogram is empty; `quantile(0.0)` selects the
    /// smallest recorded sample's bucket and `quantile(1.0)` is exactly
    /// [`max`].
    ///
    /// **Error bound.** The true rank-`r` sample lies in the same bucket
    /// the estimate is drawn from, so estimate and truth are both within
    /// one power-of-two span: the estimate is off by strictly less than a
    /// factor of 2 (relative error < 100%), never exceeds [`max`], and for
    /// bucket 0 (the value 0) it is exact. With every sample an exact power
    /// of two, the rank-selection step itself is exact and only the
    /// intra-bucket interpolation adds error.
    ///
    /// Monotone in `q` by construction: cumulative counts only grow and the
    /// interpolation within a bucket is increasing.
    ///
    /// [`max`]: Histogram::max
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the selected sample, 1-based: ceil(q·count), at least 1.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                if b == 0 {
                    return 0.0; // bucket 0 holds only the value 0
                }
                // Bucket b spans [2^(b-1), 2^b − 1]; bucket 64 tops out at
                // u64::MAX. Interpolating toward the *inclusive* top keeps
                // single-value buckets (b = 1) exact.
                let lo = 1u64 << (b - 1);
                let hi = if b >= 64 { u64::MAX } else { (1u64 << b) - 1 };
                let into = (rank - seen) as f64 / c as f64; // (0, 1]
                let est = lo as f64 + (hi - lo) as f64 * into;
                return est.min(self.max as f64);
            }
            seen += c;
        }
        self.max as f64 // unreachable in practice: rank ≤ count
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A deterministic point-in-time copy of a [`Registry`], sorted by key.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// All counters, ascending by name.
    pub counters: Vec<(String, u64)>,
    /// All histograms, ascending by name.
    pub histograms: Vec<(String, Histogram)>,
}

impl Snapshot {
    /// Renders the snapshot as stable, diff-friendly text: one
    /// `name = value` line per counter, one block per histogram.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name} = {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{name}: count={} sum={} max={} mean={:.2}",
                h.count(),
                h.sum(),
                h.max(),
                h.mean()
            );
            for (lo, c) in h.nonzero_buckets() {
                let _ = writeln!(out, "  >={lo}: {c}");
            }
        }
        out
    }
}

/// A shared registry of named counters and histograms.
///
/// "Lock-free-enough": one short mutex held per update — contention only
/// matters when the network runtime's shards share one registry, where
/// each update is a map lookup plus an integer add, orders of magnitude
/// cheaper than the protocol step around it. Iteration order is `BTreeMap` order, so
/// [`Registry::snapshot`] is deterministic by construction.
///
/// `Registry` also implements [`Observer`], aggregating a standard set of
/// gauges: per-kind event counters (`event.<kind>`), query health
/// (`query.duplicates`, `reply.count`), gossip health per layer
/// (`gossip.view_size.<layer>`, `gossip.mean_age_x1000.<layer>`,
/// `gossip.replaced.<layer>`) and routing health (`routing.links`,
/// `routing.zero_slots`).
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds 1 to the named counter (creating it at 0).
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `delta` to the named counter (creating it at 0).
    pub fn add(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().expect("registry lock");
        *slot(&mut inner.counters, name, || 0) += delta;
    }

    /// Records a sample into the named histogram (creating it empty).
    pub fn record(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock().expect("registry lock");
        slot(&mut inner.histograms, name, Histogram::default).record(value);
    }

    /// Current value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .expect("registry lock")
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// A copy of the named histogram, when present.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner
            .lock()
            .expect("registry lock")
            .histograms
            .get(name)
            .cloned()
    }

    /// A deterministic snapshot: every counter and histogram, sorted by
    /// name. Two runs that observed the same events snapshot identically.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("registry lock");
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }
}

/// `map[name]`, made by `make` on first use: an update allocates the key's
/// `String` only then.
fn slot<'m, V>(
    map: &'m mut BTreeMap<String, V>,
    name: &str,
    make: impl FnOnce() -> V,
) -> &'m mut V {
    if !map.contains_key(name) {
        map.insert(name.to_owned(), make());
    }
    map.get_mut(name).expect("inserted above")
}

/// The per-layer gossip gauges `gossip.{view_size, mean_age_x1000,
/// replaced}.<layer>`, spelled out so a gossip round formats nothing.
fn gossip_names(layer: Layer) -> [&'static str; 3] {
    match layer {
        Layer::Random => [
            "gossip.view_size.random",
            "gossip.mean_age_x1000.random",
            "gossip.replaced.random",
        ],
        Layer::Semantic => [
            "gossip.view_size.semantic",
            "gossip.mean_age_x1000.semantic",
            "gossip.replaced.semantic",
        ],
    }
}

impl Observer for Registry {
    fn on_event(&self, event: &Event) {
        self.inc(event.counter_name());
        match *event {
            Event::QueryReceived {
                duplicate: true, ..
            } => self.inc("query.duplicates"),
            Event::ReplySent { count, .. } => self.record("reply.count", count),
            Event::QueryCompleted { count, .. } => self.record("query.final_count", count),
            Event::GossipRound {
                layer,
                view_size,
                mean_age_x1000,
                replaced,
                ..
            } => {
                let [size, age, replacements] = gossip_names(layer);
                self.record(size, view_size as u64);
                self.record(age, mean_age_x1000);
                self.add(replacements, replaced);
            }
            Event::ViewChange {
                links,
                zero,
                changed,
                ..
            } => {
                self.record("routing.links", links as u64);
                self.record("routing.zero_slots", zero as u64);
                self.add("routing.slots_changed", changed as u64);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::QueryRef;

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.max(), u64::MAX);
        let buckets = h.nonzero_buckets();
        // 0 | 1 | {2,3} | {4..7} | {8} | {1024} | {u64::MAX}
        assert_eq!(
            buckets,
            vec![
                (0, 1),
                (1, 1),
                (2, 2),
                (4, 2),
                (8, 1),
                (1024, 1),
                (1 << 63, 1)
            ]
        );
    }

    #[test]
    fn snapshot_order_is_sorted_and_stable() {
        let r = Registry::new();
        r.inc("zeta");
        r.inc("alpha");
        r.add("alpha", 4);
        r.record("hist.b", 10);
        r.record("hist.a", 3);
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("alpha".into(), 5), ("zeta".into(), 1)]);
        let names: Vec<&str> = snap.histograms.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["hist.a", "hist.b"]);
        assert_eq!(snap, r.snapshot());
    }

    #[test]
    fn quantile_exact_on_power_of_two_samples() {
        // Samples that each own a bucket: rank selection is exact and the
        // intra-bucket interpolation lands on the sample's own power of two
        // only at the bucket's top — so assert bucket containment plus the
        // exact endpoints instead of equality.
        let mut h = Histogram::default();
        for v in [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 512] {
            h.record(v);
        }
        assert_eq!(h.quantile(1.0), 512.0, "q=1 is exactly max");
        assert_eq!(
            h.quantile(0.1),
            1.0,
            "rank 1 is the 1-bucket, clamped to its only value"
        );
        // The median of 10 samples is rank 5 → the 16-bucket [16, 32).
        let p50 = h.quantile(0.5);
        assert!((16.0..32.0).contains(&p50), "p50={p50} outside its bucket");
        // p99 → rank 10 → the 512-bucket, clamped to max.
        assert_eq!(h.quantile(0.99), 512.0);
    }

    #[test]
    fn quantile_single_bucket_interpolates_within_it() {
        let mut h = Histogram::default();
        for _ in 0..1_000 {
            h.record(100); // bucket [64, 128)
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.999, 1.0] {
            let est = h.quantile(q);
            assert!(
                (64.0..=100.0).contains(&est),
                "q={q}: {est} outside [bucket lo, max]"
            );
        }
        assert_eq!(h.quantile(1.0), 100.0);
        // All-zero samples are exact (bucket 0 holds only the value 0).
        let mut z = Histogram::default();
        for _ in 0..5 {
            z.record(0);
        }
        assert_eq!(z.quantile(0.5), 0.0);
        assert_eq!(z.quantile(1.0), 0.0);
    }

    #[test]
    fn quantile_overflow_bucket_is_clamped_to_max() {
        let mut h = Histogram::default();
        h.record(5);
        h.record(u64::MAX); // bucket 64, lower bound 2^63
        h.record(u64::MAX - 1);
        let p99 = h.quantile(0.99);
        assert!(
            p99 >= (1u64 << 63) as f64,
            "p99={p99} below the overflow bucket"
        );
        assert!(p99 <= u64::MAX as f64, "clamped to max");
        assert_eq!(h.quantile(1.0), u64::MAX as f64);
        // Empty histogram: defined as 0.
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }

    #[test]
    fn merge_equals_union_of_streams() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut union = Histogram::default();
        for v in [0u64, 3, 17, 900, 64] {
            a.record(v);
            union.record(v);
        }
        for v in [5u64, 5, 2_048, u64::MAX] {
            b.record(v);
            union.record(v);
        }
        a.merge(&b);
        assert_eq!(a, union);
    }

    #[test]
    fn registry_observes_standard_gauges() {
        let r = Registry::new();
        let q = QueryRef::new(1, 0);
        r.on_event(&Event::QueryReceived {
            at: 1,
            query: q,
            node: 2,
            parent: 1,
            level: 0,
            matched: true,
            duplicate: true,
        });
        r.on_event(&Event::GossipRound {
            at: 2,
            node: 2,
            layer: Layer::Random,
            view_size: 8,
            mean_age_x1000: 1500,
            replaced: 2,
        });
        assert_eq!(r.counter("event.query_received"), 1);
        assert_eq!(r.counter("query.duplicates"), 1);
        assert_eq!(r.counter("gossip.replaced.random"), 2);
        assert_eq!(r.histogram("gossip.view_size.random").unwrap().sum(), 8);
        let text = r.snapshot().render();
        assert!(text.contains("query.duplicates = 1"));
        assert!(text.contains("gossip.view_size.random: count=1"));
    }

    /// Every event kind, both layers and the update calls, three times
    /// over: the rendered snapshot.
    fn repeated_updates() -> String {
        let r = Registry::new();
        let q = QueryRef::new(1, 0);
        for round in 0..3u64 {
            let at = round * 700;
            let n = round as u32;
            for e in [
                Event::QueryIssued {
                    at,
                    query: q,
                    node: 1,
                    sigma: Some(4),
                    count_only: false,
                    matched: true,
                },
                Event::QueryForwarded {
                    at,
                    query: q,
                    from: 1,
                    to: 2,
                    level: 1,
                    attempt: n,
                },
                Event::QueryReceived {
                    at,
                    query: q,
                    node: 2,
                    parent: 1,
                    level: 1,
                    matched: true,
                    duplicate: round == 1,
                },
                Event::ReplySent {
                    at,
                    query: q,
                    node: 2,
                    to: 1,
                    count: round + 2,
                    attempt: n,
                },
                Event::ReplyMerged {
                    at,
                    query: q,
                    node: 1,
                    from: 2,
                    count: round,
                    fresh: true,
                    attempt: n,
                },
                Event::TimeoutFired {
                    at,
                    query: q,
                    node: 1,
                    peer: 3,
                },
                Event::SigmaStop {
                    at,
                    query: q,
                    node: 1,
                    count: 4,
                },
                Event::QueryCompleted {
                    at,
                    query: q,
                    node: 1,
                    count: 5 * round,
                },
                Event::GossipRound {
                    at,
                    node: 2,
                    layer: Layer::Random,
                    view_size: 20 - n,
                    mean_age_x1000: 1_500 + at,
                    replaced: round,
                },
                Event::GossipRound {
                    at,
                    node: 2,
                    layer: Layer::Semantic,
                    view_size: 19,
                    mean_age_x1000: 900,
                    replaced: 2 * round,
                },
                Event::ViewChange {
                    at,
                    node: 2,
                    links: 12 + n,
                    zero: 3,
                    changed: n,
                },
                Event::NodeCrashed { at, node: 4 },
                Event::NodeRestarted { at, node: 4 },
            ] {
                r.on_event(&e);
            }
            r.add("plain", round);
            r.record("plain.hist", round * 3);
            r.add("stamped", 2);
            r.record("stamped.hist", round + 1);
        }
        r.snapshot().render()
    }

    /// Captured before lookups stopped allocating keys: repeated updates
    /// through every path must keep rendering these bytes.
    const PINNED_SNAPSHOT: &str = r"event.gossip_round = 6
event.node_crashed = 3
event.node_restarted = 3
event.query_completed = 3
event.query_forwarded = 3
event.query_issued = 3
event.query_received = 3
event.reply_merged = 3
event.reply_sent = 3
event.sigma_stop = 3
event.timeout_fired = 3
event.view_change = 3
gossip.replaced.random = 3
gossip.replaced.semantic = 6
plain = 3
query.duplicates = 1
routing.slots_changed = 3
stamped = 6
gossip.mean_age_x1000.random: count=3 sum=6600 max=2900 mean=2200.00
  >=1024: 1
  >=2048: 2
gossip.mean_age_x1000.semantic: count=3 sum=2700 max=900 mean=900.00
  >=512: 3
gossip.view_size.random: count=3 sum=57 max=20 mean=19.00
  >=16: 3
gossip.view_size.semantic: count=3 sum=57 max=19 mean=19.00
  >=16: 3
plain.hist: count=3 sum=9 max=6 mean=3.00
  >=0: 1
  >=2: 1
  >=4: 1
query.final_count: count=3 sum=15 max=10 mean=5.00
  >=0: 1
  >=4: 1
  >=8: 1
reply.count: count=3 sum=9 max=4 mean=3.00
  >=2: 2
  >=4: 1
routing.links: count=3 sum=39 max=14 mean=13.00
  >=8: 3
routing.zero_slots: count=3 sum=9 max=3 mean=3.00
  >=2: 3
stamped.hist: count=3 sum=6 max=3 mean=2.00
  >=1: 1
  >=2: 2
";

    #[test]
    fn render_bytes_hold_across_repeated_updates() {
        assert_eq!(repeated_updates(), PINNED_SNAPSHOT);
    }

    mod quantile_properties {
        use super::super::Histogram;
        use proptest::prelude::*;

        proptest! {
            /// For any sample set and any ladder of probabilities,
            /// `quantile` is monotone in `q` and every estimate is bounded
            /// by the tracked max (and non-negative).
            #[test]
            fn quantiles_are_monotone_in_q_and_bounded_by_max(
                samples in prop::collection::vec(any::<u64>(), 1..200),
                // The vendored proptest has no f64 range strategy; draw
                // ppm and scale to [0, 1].
                q_ppm in prop::collection::vec(0u64..=1_000_000, 1..20),
            ) {
                let mut h = Histogram::default();
                for &v in &samples {
                    h.record(v);
                }
                let mut qs: Vec<f64> =
                    q_ppm.iter().map(|&p| p as f64 / 1e6).collect();
                qs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in 0..=1"));
                let mut prev = f64::NEG_INFINITY;
                for &q in &qs {
                    let est = h.quantile(q);
                    prop_assert!(est >= 0.0, "quantile({q}) = {est} below zero");
                    prop_assert!(
                        est <= h.max() as f64,
                        "quantile({q}) = {est} exceeds max {}",
                        h.max()
                    );
                    prop_assert!(
                        est >= prev,
                        "quantile not monotone: q={q} gave {est} after {prev}"
                    );
                    prev = est;
                }
            }
        }
    }
}
