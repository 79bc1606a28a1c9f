//! Codec properties: every well-formed message round-trips bit-exactly,
//! *no* byte sequence can panic the decoder (inputs come from the network),
//! and no forged length field makes it allocate past the frame it came in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use attrspace::{Query, Range, Space};
use autosel_core::{DynamicConstraint, Match, Message, NodeProfile, QueryId, QueryMsg, ReplyMsg};
use autosel_net::wire::{decode, encode, WireError};
use autosel_net::NetMessage;
use bytes::{BufMut, Bytes, BytesMut};
use epigossip::{Descriptor, GossipMessage, Layer};
use proptest::prelude::*;
use proptest::strategy::ValueTree;

/// The system allocator, counting each thread's live heap bytes and their
/// high-water mark, so one decode's peak can be read while other tests
/// run on other threads.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    // `try_with`: the counters outlive nothing they count, but a thread
    // being torn down may still free memory.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// plain thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        track(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Decodes `frame` and returns the result with the most heap bytes this
/// thread held at once while decoding, above what it held before.
fn decode_peak(space: &Space, frame: &Bytes) -> (Result<NetMessage, WireError>, usize) {
    let frame = frame.clone();
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = decode(space, frame);
    let peak = PEAK.with(Cell::get) - base;
    (out, peak.max(0) as usize)
}

fn arb_range() -> impl Strategy<Value = Range> {
    (any::<u64>(), any::<u64>()).prop_map(|(a, b)| Range {
        lo: a.min(b),
        hi: a.max(b),
    })
}

fn arb_point(d: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), d)
}

fn arb_query_msg(space: Space) -> impl Strategy<Value = QueryMsg> {
    let d = space.dims();
    (
        any::<u64>(),
        any::<u32>(),
        prop::option::of(any::<u32>()),
        -1i8..=3,
        any::<u32>(),
        prop::collection::vec(arb_range(), d),
        prop::collection::vec((any::<u32>(), arb_range()), 0..4),
        prop::collection::vec(any::<u64>(), 0..8),
    )
        .prop_map(
            move |(origin, seq, sigma, level, dims, ranges, dynamic, visited)| QueryMsg {
                id: QueryId { origin, seq },
                query: Query::from_ranges(&space, ranges)
                    .expect("lo<=hi by construction")
                    .into(),
                sigma,
                level,
                dims,
                dynamic: dynamic
                    .into_iter()
                    .map(|(key, range)| DynamicConstraint { key, range })
                    .collect(),
                count_only: origin % 2 == 0,
                visited_zero: visited,
                attempt: seq ^ dims,
            },
        )
}

fn arb_reply_msg(space: Space) -> impl Strategy<Value = ReplyMsg> {
    let d = space.dims();
    (
        any::<u64>(),
        any::<u32>(),
        prop::collection::vec((any::<u64>(), arb_point(d)), 0..6),
    )
        .prop_map(move |(origin, seq, matching)| {
            let matching: Vec<Match> = matching
                .into_iter()
                .map(|(node, vals)| Match {
                    node,
                    values: space.point(&vals).expect("arity"),
                })
                .collect();
            ReplyMsg {
                id: QueryId { origin, seq },
                count: matching.len() as u64,
                matching: matching.into(),
                attempt: seq.rotate_left(7),
            }
        })
}

fn arb_gossip(space: Space) -> impl Strategy<Value = GossipMessage<NodeProfile>> {
    let d = space.dims();
    let s2 = space.clone();
    let descriptor =
        (any::<u64>(), any::<u32>(), arb_point(d)).prop_map(move |(id, age, vals)| Descriptor {
            id,
            age,
            profile: NodeProfile::new(&s2, s2.point(&vals).expect("arity")),
        });
    let batch = prop::collection::vec(descriptor, 0..5);
    let layer = prop_oneof![Just(Layer::Random), Just(Layer::Semantic)];
    let s3 = space;
    (layer, arb_point(d), batch, any::<bool>()).prop_map(move |(layer, vals, batch, req)| {
        if req {
            GossipMessage::Request {
                layer,
                from_profile: NodeProfile::new(&s3, s3.point(&vals).expect("arity")),
                batch,
            }
        } else {
            GossipMessage::Response { layer, batch }
        }
    })
}

proptest! {
    #[test]
    fn query_messages_roundtrip(d in 1usize..8, msg_seed in any::<u64>()) {
        let space = Space::uniform(d, 80, 3).unwrap();
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let _ = msg_seed; // population diversity comes from the outer cases
        let msg = arb_query_msg(space.clone())
            .new_tree(&mut runner)
            .unwrap()
            .current();
        let net = NetMessage::Protocol(Message::Query(msg));
        prop_assert_eq!(decode(&space, encode(&net)).unwrap(), net);
    }

    #[test]
    fn reply_messages_roundtrip(d in 1usize..8) {
        let space = Space::uniform(d, 80, 3).unwrap();
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let msg = arb_reply_msg(space.clone())
            .new_tree(&mut runner)
            .unwrap()
            .current();
        let net = NetMessage::Protocol(Message::Reply(msg));
        prop_assert_eq!(decode(&space, encode(&net)).unwrap(), net);
    }

    #[test]
    fn gossip_messages_roundtrip(d in 1usize..8) {
        let space = Space::uniform(d, 80, 3).unwrap();
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let msg = arb_gossip(space.clone())
            .new_tree(&mut runner)
            .unwrap()
            .current();
        let net = NetMessage::Gossip(msg);
        prop_assert_eq!(decode(&space, encode(&net)).unwrap(), net);
    }

    /// Fuzz: arbitrary bytes never panic the decoder — they produce a
    /// message or an error.
    #[test]
    fn decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let space = Space::uniform(5, 80, 3).unwrap();
        let _ = decode(&space, Bytes::from(bytes));
    }

    /// Fuzz: truncating a valid message at any point yields an error, not a
    /// bogus message or a panic.
    #[test]
    fn truncation_is_detected(cut in 0usize..200) {
        let space = Space::uniform(5, 80, 3).unwrap();
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let msg = arb_query_msg(space.clone()).new_tree(&mut runner).unwrap().current();
        let full = encode(&NetMessage::Protocol(Message::Query(msg)));
        if cut < full.len() {
            let sliced = full.slice(0..cut);
            prop_assert!(decode(&space, sliced).is_err());
        }
    }

    /// Fuzz: flipping one byte of a valid message never panics.
    #[test]
    fn bitflips_never_panic(pos in 0usize..200, flip in 1u8..255) {
        let space = Space::uniform(4, 80, 3).unwrap();
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let msg = arb_query_msg(space.clone()).new_tree(&mut runner).unwrap().current();
        let full = encode(&NetMessage::Protocol(Message::Query(msg)));
        let mut bytes = full.to_vec();
        if pos < bytes.len() {
            bytes[pos] ^= flip;
        }
        let _ = decode(&space, Bytes::from(bytes));
    }

    /// The same on REPLY and gossip frames, whose length fields size the
    /// largest preallocations.
    #[test]
    fn reply_and_gossip_bitflips_never_panic(pos in 0usize..300, flip in 1u8..255) {
        let space = Space::uniform(4, 80, 3).unwrap();
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let reply = arb_reply_msg(space.clone()).new_tree(&mut runner).unwrap().current();
        let gossip = arb_gossip(space.clone()).new_tree(&mut runner).unwrap().current();
        for msg in [NetMessage::Protocol(Message::Reply(reply)), NetMessage::Gossip(gossip)] {
            let mut bytes = encode(&msg).to_vec();
            if pos < bytes.len() {
                bytes[pos] ^= flip;
            }
            let _ = decode(&space, Bytes::from(bytes));
        }
    }
}

/// A frame built field by field, the way the encoder lays them out.
fn frame(build: impl FnOnce(&mut BytesMut)) -> Bytes {
    let mut b = BytesMut::with_capacity(128);
    build(&mut b);
    b.freeze()
}

/// QUERY header up to (not including) the range count: tag, id, attempt,
/// no σ, level, dims.
fn query_head(b: &mut BytesMut) {
    b.put_u8(0);
    b.put_u64_le(7);
    b.put_u32_le(3);
    b.put_u32_le(1);
    b.put_u8(0);
    b.put_i8(2);
    b.put_u32_le(0b11);
}

/// A QUERY header plus the whole range list for a `d`-dimensional space.
fn query_with_ranges(b: &mut BytesMut, d: usize) {
    query_head(b);
    b.put_u16_le(d as u16);
    for _ in 0..d {
        b.put_u64_le(0);
        b.put_u64_le(10);
    }
}

/// Every length field the decoder reads, forged to its maximum over a
/// frame of a few dozen bytes: the decoder must report `Truncated` and
/// never hold more heap than a small multiple of the frame it was given.
/// (Before bounded preallocation a forged `visited_zero` count reserved
/// 32 KiB and a forged REPLY count 24 KiB for a 40-byte frame.)
#[test]
fn forged_lengths_allocate_no_more_than_the_frame_holds() {
    let space = Space::uniform(2, 80, 3).unwrap();
    let d = space.dims();
    let cases: Vec<(&str, Bytes)> = vec![
        (
            "reply matches",
            frame(|b| {
                b.put_u8(1);
                b.put_u64_le(7);
                b.put_u32_le(3);
                b.put_u32_le(1);
                b.put_u64_le(9);
                b.put_u32_le(u32::MAX);
                b.put_u64_le(42);
                b.put_u16_le(d as u16);
                b.put_u64_le(1);
            }),
        ),
        (
            "query ranges",
            frame(|b| {
                query_head(b);
                b.put_u16_le(u16::MAX);
                b.put_u64_le(0);
                b.put_u64_le(10);
            }),
        ),
        (
            "dynamic constraints",
            frame(|b| {
                query_with_ranges(b, d);
                b.put_u16_le(u16::MAX);
                b.put_u32_le(5);
            }),
        ),
        (
            "visited_zero",
            frame(|b| {
                query_with_ranges(b, d);
                b.put_u16_le(0);
                b.put_u32_le(u32::MAX);
                b.put_u64_le(3);
            }),
        ),
        (
            "gossip response batch",
            frame(|b| {
                b.put_u8(3);
                b.put_u8(0);
                b.put_u16_le(u16::MAX);
                b.put_u64_le(4);
                b.put_u32_le(9);
                b.put_u16_le(d as u16);
                b.put_u64_le(1);
            }),
        ),
        (
            "gossip request batch",
            frame(|b| {
                b.put_u8(2);
                b.put_u8(1);
                b.put_u16_le(d as u16);
                for _ in 0..d {
                    b.put_u64_le(5);
                }
                b.put_u16_le(u16::MAX);
                b.put_u64_le(4);
            }),
        ),
    ];
    for (name, bytes) in &cases {
        let (out, peak) = decode_peak(&space, bytes);
        assert_eq!(
            out,
            Err(WireError::Truncated),
            "{name}: forged length not caught"
        );
        assert!(
            peak <= 4 * bytes.len(),
            "{name}: decoding a {}-byte frame held {peak} heap bytes",
            bytes.len()
        );
    }
}
