use autosel_core::fasthash::FastSet;

use epigossip::NodeId;

/// Everything the paper's figures need to know about one query's execution.
///
/// `PartialEq` compares every field — the determinism regression tests rely
/// on two same-seed runs producing *identical* stats, not just close ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryStats {
    /// Virtual time the query was issued.
    pub issued_at: u64,
    /// Number of nodes matching at issue time (alive ones).
    pub truth: u32,
    /// The `σ` bound the query was issued with, if any. Recorded so the
    /// invariant checker can assert early-stopped queries report at most a
    /// bounded excess over `σ`.
    pub sigma: Option<u32>,
    /// Matching nodes that actually received the QUERY message (plus the
    /// origin if it matched) — the numerator of the paper's *delivery*.
    pub matched_reached: FastSet<NodeId>,
    /// QUERY deliveries to nodes that did **not** match — the paper's
    /// *routing overhead* (§6: "hops traveled by a query through nodes that
    /// did not match the query themselves").
    pub overhead: u64,
    /// Times any node received this query more than once (must be 0; §6).
    pub duplicates: u64,
    /// Total protocol messages (queries + replies) attributed to this query.
    pub messages: u64,
    /// Whether the originator observed completion.
    pub completed: bool,
    /// Virtual time the originator observed completion, if it did.
    pub completed_at: Option<u64>,
    /// Matches reported to the originator at completion.
    pub reported: u32,
    /// Every node that received the QUERY message (for duplicate detection).
    pub(crate) receivers: FastSet<NodeId>,
}

impl QueryStats {
    pub(crate) fn new(issued_at: u64, truth: u32) -> Self {
        QueryStats {
            issued_at,
            truth,
            sigma: None,
            matched_reached: FastSet::default(),
            overhead: 0,
            duplicates: 0,
            messages: 0,
            completed: false,
            completed_at: None,
            reported: 0,
            receivers: FastSet::default(),
        }
    }

    /// Wall-clock (virtual) time from issue to completion, if completed.
    pub fn latency(&self) -> Option<u64> {
        self.completed_at.map(|t| t.saturating_sub(self.issued_at))
    }

    /// Fraction of matching nodes reached in `[0,1]`; `1.0` when nothing
    /// matched (vacuous delivery).
    pub fn delivery(&self) -> f64 {
        if self.truth == 0 {
            1.0
        } else {
            self.matched_reached.len() as f64 / f64::from(self.truth)
        }
    }

    /// One flat JSON object per query, hand-rolled (no serde in this tree).
    /// Sets are reduced to their cardinality; `delivery` and other ratios
    /// are left to the consumer so the object stays integer-only and
    /// byte-stable across platforms.
    pub fn to_json(&self) -> String {
        let mut w = autosel_obs::json::ObjectWriter::new();
        w.u64_field("issued_at", self.issued_at);
        w.u64_field("truth", u64::from(self.truth));
        match self.sigma {
            Some(s) => w.u64_field("sigma", u64::from(s)),
            None => w.null_field("sigma"),
        }
        w.u64_field("matched_reached", self.matched_reached.len() as u64);
        w.u64_field("overhead", self.overhead);
        w.u64_field("duplicates", self.duplicates);
        w.u64_field("messages", self.messages);
        w.bool_field("completed", self.completed);
        match self.completed_at {
            Some(t) => w.u64_field("completed_at", t),
            None => w.null_field("completed_at"),
        }
        match self.latency() {
            Some(l) => w.u64_field("latency_ms", l),
            None => w.null_field("latency_ms"),
        }
        w.u64_field("reported", u64::from(self.reported));
        w.u64_field("receivers", self.receivers.len() as u64);
        w.finish()
    }

    /// A canonical, byte-stable rendering of every field (sets are sorted).
    /// Two runs are byte-identical iff their fingerprints are equal — this is
    /// what the golden-determinism tests and `sweepbench`'s serial-vs-parallel
    /// check compare, because `Debug` on the inner `HashSet`s has no stable
    /// order.
    pub fn fingerprint(&self) -> String {
        let mut matched: Vec<NodeId> = self.matched_reached.iter().copied().collect();
        matched.sort_unstable();
        let mut receivers: Vec<NodeId> = self.receivers.iter().copied().collect();
        receivers.sort_unstable();
        format!(
            "issued={};truth={};sigma={:?};matched={:?};overhead={};dups={};msgs={};done={};done_at={:?};reported={};recv={:?}",
            self.issued_at,
            self.truth,
            self.sigma,
            matched,
            self.overhead,
            self.duplicates,
            self.messages,
            self.completed,
            self.completed_at,
            self.reported,
            receivers,
        )
    }
}

/// A histogram over per-node values (message counts, link counts) —
/// the shape of Figs. 9 and 10(b).
#[derive(Debug, Clone)]
pub struct LoadHistogram {
    values: Vec<u64>,
}

impl LoadHistogram {
    /// Wraps raw per-node values.
    pub fn new(mut values: Vec<u64>) -> Self {
        values.sort_unstable();
        LoadHistogram { values }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the histogram is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.values.last().copied().unwrap_or(0)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<u64>() as f64 / self.values.len() as f64
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.values.is_empty() {
            return 0;
        }
        let idx = ((self.values.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        self.values[idx]
    }

    /// Buckets observations into `bins` ranges of `bin_width` and returns
    /// the *percentage of nodes* per bin — the exact y-axis of Fig. 9.
    /// The last bin absorbs the tail.
    pub fn percent_per_bin(&self, bins: usize, bin_width: u64) -> Vec<f64> {
        assert!(bins > 0 && bin_width > 0, "bins and width must be positive");
        let mut counts = vec![0u64; bins];
        for &v in &self.values {
            let b = ((v / bin_width) as usize).min(bins - 1);
            counts[b] += 1;
        }
        let n = self.values.len().max(1) as f64;
        counts.into_iter().map(|c| 100.0 * c as f64 / n).collect()
    }

    /// Normalizes values to percent-of-max and bins them into ten 10%-wide
    /// buckets — Fig. 9's "number of messages per node (%)" x-axis.
    pub fn percent_of_max_deciles(&self) -> Vec<f64> {
        let max = self.max().max(1);
        let mut counts = [0u64; 10];
        for &v in &self.values {
            let pct = (v * 100) / max;
            let bin = ((pct.saturating_sub(1)) / 10).min(9) as usize;
            counts[bin] += 1;
        }
        let n = self.values.len().max(1) as f64;
        counts.iter().map(|&c| 100.0 * c as f64 / n).collect()
    }

    /// The raw sorted values.
    pub fn values(&self) -> &[u64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_handles_empty_truth() {
        let s = QueryStats::new(0, 0);
        assert_eq!(s.delivery(), 1.0);
        let mut s = QueryStats::new(0, 4);
        s.matched_reached.insert(1);
        s.matched_reached.insert(2);
        assert_eq!(s.delivery(), 0.5);
    }

    #[test]
    fn stats_json_is_flat_and_stable() {
        let mut s = QueryStats::new(7, 4);
        s.sigma = Some(2);
        s.matched_reached.insert(1);
        s.matched_reached.insert(2);
        s.receivers.insert(1);
        s.receivers.insert(2);
        s.receivers.insert(3);
        s.overhead = 1;
        s.messages = 9;
        s.completed = true;
        s.completed_at = Some(19);
        s.reported = 2;
        assert_eq!(
            s.to_json(),
            "{\"issued_at\":7,\"truth\":4,\"sigma\":2,\"matched_reached\":2,\
             \"overhead\":1,\"duplicates\":0,\"messages\":9,\"completed\":true,\
             \"completed_at\":19,\"latency_ms\":12,\"reported\":2,\"receivers\":3}"
        );
        // Incomplete query: the option fields serialize as null.
        let s = QueryStats::new(0, 0);
        let parsed = autosel_obs::json::parse_object(&s.to_json()).expect("valid JSON");
        assert!(matches!(
            parsed.get("sigma"),
            Some(autosel_obs::json::JsonValue::Null)
        ));
        assert!(matches!(
            parsed.get("latency_ms"),
            Some(autosel_obs::json::JsonValue::Null)
        ));
    }

    #[test]
    fn histogram_stats() {
        let h = LoadHistogram::new(vec![5, 1, 3, 1]);
        assert_eq!(h.len(), 4);
        assert_eq!(h.max(), 5);
        assert_eq!(h.mean(), 2.5);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 5);
    }

    #[test]
    fn percent_per_bin_sums_to_100() {
        let h = LoadHistogram::new((0..100).collect());
        let bins = h.percent_per_bin(10, 10);
        assert_eq!(bins.len(), 10);
        assert!((bins.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        assert!((bins[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn deciles_capture_tail() {
        // One hot node, many cold ones: cold mass lands in the low deciles.
        let mut v = vec![100u64];
        v.extend(std::iter::repeat_n(5, 99));
        let h = LoadHistogram::new(v);
        let d = h.percent_of_max_deciles();
        assert!((d[0] - 99.0).abs() < 1e-9, "{d:?}");
        assert!((d[9] - 1.0).abs() < 1e-9);
    }
}
