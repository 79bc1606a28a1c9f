//! The typed event vocabulary shared by every sink.
//!
//! Events are deliberately **flat**: every field is a primitive (`u64`,
//! `u32`, `i8`, `bool`) so the crate needs no serialization dependency and
//! both substrates (virtual-time simulator, wall-clock network runtime) can
//! construct them without conversion. Causality is span-style but implicit
//! in the protocol: a query's routing tree visits each node at most once
//! (exactly-once delivery), so the pair `(query, node)` names a span and
//! the `parent`/`from` fields are the causal parent edges.

use std::fmt;

use crate::json::{self, JsonValue};

/// A node identifier as seen by the observability layer.
///
/// This is the raw `u64` behind both `epigossip::NodeId` and the core
/// crate's node ids; keeping it primitive here is what lets `autosel-obs`
/// sit below every other crate with zero dependencies.
pub type NodeRef = u64;

/// A query identifier: the issuing node plus its per-origin sequence
/// number. Mirrors `autosel_core::messages::QueryId` field-for-field and
/// shares its display syntax (`q<origin>#<seq>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryRef {
    /// Node that issued the query.
    pub origin: NodeRef,
    /// Per-origin sequence number.
    pub seq: u32,
}

impl QueryRef {
    /// Builds a reference from its raw parts.
    pub fn new(origin: NodeRef, seq: u32) -> Self {
        QueryRef { origin, seq }
    }

    /// Parses the `q<origin>#<seq>` display syntax back into a reference.
    pub fn parse(s: &str) -> Option<Self> {
        let rest = s.strip_prefix('q')?;
        let (origin, seq) = rest.split_once('#')?;
        Some(QueryRef {
            origin: origin.parse().ok()?,
            seq: seq.parse().ok()?,
        })
    }
}

impl fmt::Display for QueryRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}#{}", self.origin, self.seq)
    }
}

/// Which gossip layer a [`Event::GossipRound`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// The bottom CYCLON layer (random peer sampling).
    Random,
    /// The top Vicinity layer (semantic, selector-driven).
    Semantic,
}

impl Layer {
    /// Stable lowercase name used in JSON and metric keys.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Random => "random",
            Layer::Semantic => "semantic",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "random" => Some(Layer::Random),
            "semantic" => Some(Layer::Semantic),
            _ => None,
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One observed protocol, gossip, or membership fact.
///
/// Timestamps (`at`) are milliseconds: **virtual** milliseconds when the
/// emitter is the discrete-event simulator, **wall-clock** milliseconds
/// since cluster start when it is the network runtime. The schema is the
/// same either way — that is the point of the sans-IO design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A node issued a new query; the root span of its routing tree.
    QueryIssued {
        /// Timestamp in milliseconds.
        at: u64,
        /// The query this event belongs to.
        query: QueryRef,
        /// The issuing node (always `query.origin`).
        node: NodeRef,
        /// σ early-stop bound, when one was requested.
        sigma: Option<u32>,
        /// True when the query only counts matches instead of listing them.
        count_only: bool,
        /// Whether the origin itself matched the query.
        matched: bool,
    },
    /// A node handed a subtree of the traversal to a neighbor. This is the
    /// causal edge `from → to` in the query's routing tree.
    QueryForwarded {
        /// Timestamp in milliseconds.
        at: u64,
        /// The query this event belongs to.
        query: QueryRef,
        /// Sender (the causal parent of `to` in the tree).
        from: NodeRef,
        /// Receiver of the delegated subtree.
        to: NodeRef,
        /// Hierarchy level `l` the subtree covers (-1 = whole space).
        level: i8,
        /// Per-forward attempt id stamped on the QUERY; the subtree's REPLY
        /// echoes it, which is how stale replies are told apart from live
        /// ones in a trace.
        attempt: u32,
    },
    /// A node received a QUERY message. `duplicate` deliveries (fault
    /// injection, retransmits) are answered with an empty dedup-REPLY and
    /// open no span.
    QueryReceived {
        /// Timestamp in milliseconds.
        at: u64,
        /// The query this event belongs to.
        query: QueryRef,
        /// The receiving node.
        node: NodeRef,
        /// Causal parent: the node the QUERY arrived from.
        parent: NodeRef,
        /// Hierarchy level `l` of the received subtree (-1 = whole space).
        level: i8,
        /// Whether this node's resource matched the query.
        matched: bool,
        /// True when this delivery was a duplicate (already seen).
        duplicate: bool,
    },
    /// A node answered its upstream with its subtree's accumulated result.
    ReplySent {
        /// Timestamp in milliseconds.
        at: u64,
        /// The query this event belongs to.
        query: QueryRef,
        /// The replying node.
        node: NodeRef,
        /// Upstream node the reply is addressed to.
        to: NodeRef,
        /// Matches accumulated in the subtree rooted at `node`.
        count: u64,
        /// The attempt id the reply echoes (from the QUERY that opened this
        /// node's span).
        attempt: u32,
    },
    /// A node processed a REPLY from a downstream neighbor. `fresh` is
    /// false when the reply was genuinely stale — it echoed an attempt the
    /// node no longer waits on (superseded forward, duplicated delivery,
    /// post-timeout arrival) or the query had already concluded — and
    /// could not clear a waiting entry or add a count.
    ReplyMerged {
        /// Timestamp in milliseconds.
        at: u64,
        /// The query this event belongs to.
        query: QueryRef,
        /// The node merging the reply.
        node: NodeRef,
        /// Downstream node the reply came from.
        from: NodeRef,
        /// Matches carried by the reply.
        count: u64,
        /// Whether the sender was still awaited *for this exact attempt*.
        /// Stale (`fresh = false`) replies contribute nothing in count
        /// mode; in enumerate mode the per-id dedup set decides what, if
        /// anything, they add.
        fresh: bool,
        /// The attempt id the reply echoed.
        attempt: u32,
    },
    /// The query timeout `T(q)` fired: `node` stopped waiting on `peer`
    /// and gave up on its subtree. The subtree is not re-sent to another
    /// occupant of that subcell; the traversal continues past it.
    TimeoutFired {
        /// Timestamp in milliseconds.
        at: u64,
        /// The query this event belongs to.
        query: QueryRef,
        /// The node whose timer fired.
        node: NodeRef,
        /// The unresponsive downstream peer.
        peer: NodeRef,
    },
    /// The σ bound was met at `node`: the traversal stops early there.
    SigmaStop {
        /// Timestamp in milliseconds.
        at: u64,
        /// The query this event belongs to.
        query: QueryRef,
        /// The node that cut the traversal short.
        node: NodeRef,
        /// Matches accumulated when σ was met.
        count: u64,
    },
    /// The originator observed completion of its own query.
    QueryCompleted {
        /// Timestamp in milliseconds.
        at: u64,
        /// The query this event belongs to.
        query: QueryRef,
        /// The origin node (root of the tree).
        node: NodeRef,
        /// Total matches reported back to the origin.
        count: u64,
    },
    /// One gossip exchange round of one layer finished on a node.
    GossipRound {
        /// Timestamp in milliseconds.
        at: u64,
        /// The gossiping node.
        node: NodeRef,
        /// Which layer ran the round.
        layer: Layer,
        /// Entries in the layer's view after the round.
        view_size: u32,
        /// Mean descriptor age in the view, fixed-point ×1000 (so the
        /// schema stays integer-only).
        mean_age_x1000: u64,
        /// Distinct new peer ids that entered the view since the previous
        /// round (the replacement-rate gauge).
        replaced: u64,
    },
    /// The routing table was rebuilt from the current gossip view.
    ViewChange {
        /// Timestamp in milliseconds.
        at: u64,
        /// The node that rebuilt its table.
        node: NodeRef,
        /// Total live links after the rebuild (slot links + `C0` links).
        links: u32,
        /// `N(l,k)` slots left empty (no known peer covers that subcell).
        zero: u32,
        /// Slots whose occupant changed in this rebuild (table churn).
        changed: u32,
    },
    /// A node crashed (fault injection or real failure).
    NodeCrashed {
        /// Timestamp in milliseconds.
        at: u64,
        /// The crashed node.
        node: NodeRef,
    },
    /// A crashed node came back and re-bootstrapped.
    NodeRestarted {
        /// Timestamp in milliseconds.
        at: u64,
        /// The restarted node.
        node: NodeRef,
    },
}

/// [`Event::kind`] and [`Event::counter_name`] from one list, so a
/// variant's counter key cannot drift from its name.
macro_rules! event_kinds {
    ($($variant:ident => $kind:literal),* $(,)?) => {
        impl Event {
            /// Stable snake_case name of the variant, used as the JSON `ev`
            /// field and, prefixed, as the per-kind counter key in
            /// [`crate::Registry`].
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $kind,)*
                }
            }

            /// `event.<kind>`: the per-kind counter key in
            /// [`crate::Registry`], static so counting an event allocates
            /// nothing.
            pub fn counter_name(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => concat!("event.", $kind),)*
                }
            }
        }
    };
}

event_kinds! {
    QueryIssued => "query_issued",
    QueryForwarded => "query_forwarded",
    QueryReceived => "query_received",
    ReplySent => "reply_sent",
    ReplyMerged => "reply_merged",
    TimeoutFired => "timeout_fired",
    SigmaStop => "sigma_stop",
    QueryCompleted => "query_completed",
    GossipRound => "gossip_round",
    ViewChange => "view_change",
    NodeCrashed => "node_crashed",
    NodeRestarted => "node_restarted",
}

impl Event {
    /// The event's timestamp in milliseconds.
    pub fn at(&self) -> u64 {
        match *self {
            Event::QueryIssued { at, .. }
            | Event::QueryForwarded { at, .. }
            | Event::QueryReceived { at, .. }
            | Event::ReplySent { at, .. }
            | Event::ReplyMerged { at, .. }
            | Event::TimeoutFired { at, .. }
            | Event::SigmaStop { at, .. }
            | Event::QueryCompleted { at, .. }
            | Event::GossipRound { at, .. }
            | Event::ViewChange { at, .. }
            | Event::NodeCrashed { at, .. }
            | Event::NodeRestarted { at, .. } => at,
        }
    }

    /// The query this event belongs to, when it is a protocol event.
    pub fn query(&self) -> Option<QueryRef> {
        match *self {
            Event::QueryIssued { query, .. }
            | Event::QueryForwarded { query, .. }
            | Event::QueryReceived { query, .. }
            | Event::ReplySent { query, .. }
            | Event::ReplyMerged { query, .. }
            | Event::TimeoutFired { query, .. }
            | Event::SigmaStop { query, .. }
            | Event::QueryCompleted { query, .. } => Some(query),
            Event::GossipRound { .. }
            | Event::ViewChange { .. }
            | Event::NodeCrashed { .. }
            | Event::NodeRestarted { .. } => None,
        }
    }

    /// Serializes the event as one flat JSON object (no trailing newline).
    ///
    /// Field order is fixed per variant, so identical events serialize to
    /// identical bytes — trace files diff cleanly across runs.
    pub fn to_json(&self) -> String {
        let mut w = json::ObjectWriter::new();
        w.str_field("ev", self.kind());
        w.u64_field("at", self.at());
        if let Some(q) = self.query() {
            w.str_field("q", &q.to_string());
        }
        match *self {
            Event::QueryIssued {
                node,
                sigma,
                count_only,
                matched,
                ..
            } => {
                w.u64_field("node", node);
                match sigma {
                    Some(s) => w.u64_field("sigma", s as u64),
                    None => w.null_field("sigma"),
                }
                w.bool_field("count_only", count_only);
                w.bool_field("matched", matched);
            }
            Event::QueryForwarded {
                from,
                to,
                level,
                attempt,
                ..
            } => {
                w.u64_field("from", from);
                w.u64_field("to", to);
                w.i64_field("level", level as i64);
                w.u64_field("attempt", attempt as u64);
            }
            Event::QueryReceived {
                node,
                parent,
                level,
                matched,
                duplicate,
                ..
            } => {
                w.u64_field("node", node);
                w.u64_field("parent", parent);
                w.i64_field("level", level as i64);
                w.bool_field("matched", matched);
                w.bool_field("duplicate", duplicate);
            }
            Event::ReplySent {
                node,
                to,
                count,
                attempt,
                ..
            } => {
                w.u64_field("node", node);
                w.u64_field("to", to);
                w.u64_field("count", count);
                w.u64_field("attempt", attempt as u64);
            }
            Event::ReplyMerged {
                node,
                from,
                count,
                fresh,
                attempt,
                ..
            } => {
                w.u64_field("node", node);
                w.u64_field("from", from);
                w.u64_field("count", count);
                w.bool_field("fresh", fresh);
                w.u64_field("attempt", attempt as u64);
            }
            Event::TimeoutFired { node, peer, .. } => {
                w.u64_field("node", node);
                w.u64_field("peer", peer);
            }
            Event::SigmaStop { node, count, .. } | Event::QueryCompleted { node, count, .. } => {
                w.u64_field("node", node);
                w.u64_field("count", count);
            }
            Event::GossipRound {
                node,
                layer,
                view_size,
                mean_age_x1000,
                replaced,
                ..
            } => {
                w.u64_field("node", node);
                w.str_field("layer", layer.name());
                w.u64_field("view_size", view_size as u64);
                w.u64_field("mean_age_x1000", mean_age_x1000);
                w.u64_field("replaced", replaced);
            }
            Event::ViewChange {
                node,
                links,
                zero,
                changed,
                ..
            } => {
                w.u64_field("node", node);
                w.u64_field("links", links as u64);
                w.u64_field("zero", zero as u64);
                w.u64_field("changed", changed as u64);
            }
            Event::NodeCrashed { node, .. } | Event::NodeRestarted { node, .. } => {
                w.u64_field("node", node);
            }
        }
        w.finish()
    }

    /// Parses one JSONL line produced by [`Event::to_json`] back into an
    /// event. Field order does not matter; unknown fields are errors (the
    /// schema is closed so `tracedump --check` catches malformed traces).
    pub fn from_json(line: &str) -> Result<Event, String> {
        let obj = json::parse_object(line)?;
        let kind = obj.str("ev")?;
        let at = obj.u64("at")?;
        let query = || -> Result<QueryRef, String> {
            let s = obj.str("q")?;
            QueryRef::parse(s).ok_or_else(|| format!("bad query ref {s:?}"))
        };
        let known: &[&str] = match kind {
            "query_issued" => &["ev", "at", "q", "node", "sigma", "count_only", "matched"],
            "query_forwarded" => &["ev", "at", "q", "from", "to", "level", "attempt"],
            "query_received" => &[
                "ev",
                "at",
                "q",
                "node",
                "parent",
                "level",
                "matched",
                "duplicate",
            ],
            "reply_sent" => &["ev", "at", "q", "node", "to", "count", "attempt"],
            "reply_merged" => &["ev", "at", "q", "node", "from", "count", "fresh", "attempt"],
            "timeout_fired" => &["ev", "at", "q", "node", "peer"],
            "sigma_stop" | "query_completed" => &["ev", "at", "q", "node", "count"],
            "gossip_round" => &[
                "ev",
                "at",
                "node",
                "layer",
                "view_size",
                "mean_age_x1000",
                "replaced",
            ],
            "view_change" => &["ev", "at", "node", "links", "zero", "changed"],
            "node_crashed" | "node_restarted" => &["ev", "at", "node"],
            other => return Err(format!("unknown event kind {other:?}")),
        };
        obj.expect_only(known)?;
        let ev = match kind {
            "query_issued" => Event::QueryIssued {
                at,
                query: query()?,
                node: obj.u64("node")?,
                sigma: match obj.get("sigma") {
                    Some(JsonValue::Null) => None,
                    _ => Some(obj.u64("sigma")? as u32),
                },
                count_only: obj.bool("count_only")?,
                matched: obj.bool("matched")?,
            },
            "query_forwarded" => Event::QueryForwarded {
                at,
                query: query()?,
                from: obj.u64("from")?,
                to: obj.u64("to")?,
                level: obj.i64("level")? as i8,
                attempt: obj.u64("attempt")? as u32,
            },
            "query_received" => Event::QueryReceived {
                at,
                query: query()?,
                node: obj.u64("node")?,
                parent: obj.u64("parent")?,
                level: obj.i64("level")? as i8,
                matched: obj.bool("matched")?,
                duplicate: obj.bool("duplicate")?,
            },
            "reply_sent" => Event::ReplySent {
                at,
                query: query()?,
                node: obj.u64("node")?,
                to: obj.u64("to")?,
                count: obj.u64("count")?,
                attempt: obj.u64("attempt")? as u32,
            },
            "reply_merged" => Event::ReplyMerged {
                at,
                query: query()?,
                node: obj.u64("node")?,
                from: obj.u64("from")?,
                count: obj.u64("count")?,
                fresh: obj.bool("fresh")?,
                attempt: obj.u64("attempt")? as u32,
            },
            "timeout_fired" => Event::TimeoutFired {
                at,
                query: query()?,
                node: obj.u64("node")?,
                peer: obj.u64("peer")?,
            },
            "sigma_stop" => Event::SigmaStop {
                at,
                query: query()?,
                node: obj.u64("node")?,
                count: obj.u64("count")?,
            },
            "query_completed" => Event::QueryCompleted {
                at,
                query: query()?,
                node: obj.u64("node")?,
                count: obj.u64("count")?,
            },
            "gossip_round" => Event::GossipRound {
                at,
                node: obj.u64("node")?,
                layer: {
                    let name = obj.str("layer")?;
                    Layer::parse(name).ok_or_else(|| format!("bad layer {name:?}"))?
                },
                view_size: obj.u64("view_size")? as u32,
                mean_age_x1000: obj.u64("mean_age_x1000")?,
                replaced: obj.u64("replaced")?,
            },
            "view_change" => Event::ViewChange {
                at,
                node: obj.u64("node")?,
                links: obj.u64("links")? as u32,
                zero: obj.u64("zero")? as u32,
                changed: obj.u64("changed")? as u32,
            },
            "node_crashed" => Event::NodeCrashed {
                at,
                node: obj.u64("node")?,
            },
            "node_restarted" => Event::NodeRestarted {
                at,
                node: obj.u64("node")?,
            },
            _ => unreachable!("kind validated above"),
        };
        Ok(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The closed trace schema (docs/OBSERVABILITY.md): every JSON key,
    /// `ev` kind and enum string `to_json` may emit. Adding one is a
    /// deliberate edit here and to that table.
    const OBS_SCHEMA: &[&str] = &[
        // keys
        "ev",
        "at",
        "q",
        "node",
        "sigma",
        "count_only",
        "matched",
        "from",
        "to",
        "level",
        "attempt",
        "parent",
        "duplicate",
        "count",
        "fresh",
        "peer",
        "layer",
        "view_size",
        "mean_age_x1000",
        "replaced",
        "links",
        "zero",
        "changed",
        // event kinds
        "query_issued",
        "query_forwarded",
        "query_received",
        "reply_sent",
        "reply_merged",
        "timeout_fired",
        "sigma_stop",
        "query_completed",
        "gossip_round",
        "view_change",
        "node_crashed",
        "node_restarted",
        // enum values (gossip layers)
        "random",
        "semantic",
    ];

    /// The variant after `ev`'s in declaration order, `None` after the
    /// last. The match has no wildcard, so a new variant does not compile
    /// until it has an arm here, which is where it joins the chain.
    fn next_variant(ev: &Event) -> Option<Event> {
        let q = QueryRef::new(7, 3);
        Some(match ev {
            Event::QueryIssued { .. } => Event::QueryForwarded {
                at: 1,
                query: q,
                from: 7,
                to: 12,
                level: -1,
                attempt: 2,
            },
            Event::QueryForwarded { .. } => Event::QueryReceived {
                at: 2,
                query: q,
                node: 12,
                parent: 7,
                level: 2,
                matched: false,
                duplicate: true,
            },
            Event::QueryReceived { .. } => Event::ReplySent {
                at: 3,
                query: q,
                node: 12,
                to: 7,
                count: 4,
                attempt: 2,
            },
            Event::ReplySent { .. } => Event::ReplyMerged {
                at: 4,
                query: q,
                node: 7,
                from: 12,
                count: 4,
                fresh: true,
                attempt: 2,
            },
            Event::ReplyMerged { .. } => Event::TimeoutFired {
                at: 5,
                query: q,
                node: 7,
                peer: 12,
            },
            Event::TimeoutFired { .. } => Event::SigmaStop {
                at: 6,
                query: q,
                node: 9,
                count: 51,
            },
            Event::SigmaStop { .. } => Event::QueryCompleted {
                at: 7,
                query: q,
                node: 7,
                count: 51,
            },
            Event::QueryCompleted { .. } => Event::GossipRound {
                at: 8,
                node: 3,
                layer: Layer::Semantic,
                view_size: 16,
                mean_age_x1000: 2500,
                replaced: 3,
            },
            Event::GossipRound { .. } => Event::ViewChange {
                at: 9,
                node: 3,
                links: 14,
                zero: 2,
                changed: 1,
            },
            Event::ViewChange { .. } => Event::NodeCrashed { at: 10, node: 5 },
            Event::NodeCrashed { .. } => Event::NodeRestarted { at: 11, node: 5 },
            Event::NodeRestarted { .. } => return None,
        })
    }

    /// One instance of every variant (following [`next_variant`]), plus the
    /// field values that serialize differently: a null `sigma` and the
    /// other gossip layer.
    fn all_variants() -> Vec<Event> {
        let first = Event::QueryIssued {
            at: 0,
            query: QueryRef::new(7, 3),
            node: 7,
            sigma: Some(50),
            count_only: false,
            matched: true,
        };
        let mut all: Vec<Event> = std::iter::successors(Some(first), next_variant).collect();
        all.push(Event::QueryIssued {
            at: 0,
            query: QueryRef::new(7, 3),
            node: 7,
            sigma: None,
            count_only: true,
            matched: false,
        });
        all.push(Event::GossipRound {
            at: 8,
            node: 3,
            layer: Layer::Random,
            view_size: 16,
            mean_age_x1000: 2500,
            replaced: 3,
        });
        all
    }

    #[test]
    fn json_round_trips_every_variant() {
        for ev in all_variants() {
            let line = ev.to_json();
            let back = Event::from_json(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(ev, back, "round trip failed for {line}");
        }
    }

    #[test]
    fn to_json_emits_exactly_the_pinned_schema() {
        let mut emitted = std::collections::BTreeSet::new();
        for ev in all_variants() {
            let line = ev.to_json();
            let obj = json::parse_object(&line).expect("to_json writes one flat object");
            obj.expect_only(OBS_SCHEMA)
                .unwrap_or_else(|e| panic!("{line}: key outside the schema: {e}"));
            for &name in OBS_SCHEMA {
                match obj.get(name) {
                    Some(JsonValue::Str(value)) if name != "q" => {
                        let pinned = OBS_SCHEMA.iter().find(|&&s| s == value);
                        let value = pinned.unwrap_or_else(|| {
                            panic!("{line}: value {value:?} outside the schema")
                        });
                        emitted.extend([name, *value]);
                    }
                    Some(_) => {
                        emitted.insert(name);
                    }
                    None => {}
                }
            }
        }
        let pinned: std::collections::BTreeSet<&str> = OBS_SCHEMA.iter().copied().collect();
        assert_eq!(emitted, pinned, "a pinned name is never emitted");
    }

    #[test]
    fn query_ref_display_parses_back() {
        let q = QueryRef::new(123, 45);
        assert_eq!(q.to_string(), "q123#45");
        assert_eq!(QueryRef::parse("q123#45"), Some(q));
        assert_eq!(QueryRef::parse("123#45"), None);
        assert_eq!(QueryRef::parse("q123"), None);
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let line = r#"{"ev":"node_crashed","at":10,"node":5,"extra":1}"#;
        assert!(Event::from_json(line).is_err());
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let line = r#"{"ev":"warp_drive","at":10,"node":5}"#;
        assert!(Event::from_json(line).is_err());
    }

    #[test]
    fn serialization_is_stable() {
        let ev = Event::QueryForwarded {
            at: 17,
            query: QueryRef::new(2, 0),
            from: 2,
            to: 9,
            level: 3,
            attempt: 1,
        };
        assert_eq!(
            ev.to_json(),
            r#"{"ev":"query_forwarded","at":17,"q":"q2#0","from":2,"to":9,"level":3,"attempt":1}"#
        );
    }
}
