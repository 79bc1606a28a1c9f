//! Length-prefixed binary codec for protocol and gossip messages.
//!
//! Hand-rolled over byte slices: the message shapes are small and fixed
//! given the attribute space, so a serde format dependency would buy
//! nothing (DESIGN.md §5). All integers are little-endian. Only the public
//! [`encode`] and [`decode`] speak [`Bytes`]; the TCP links encode into
//! their batch buffers and the readers decode from theirs.
//!
//! Decoding is hostile-input safe: no byte sequence panics it, and no
//! length field reserves more elements than the rest of the frame could
//! encode, so a forged count costs at most what the frame's own bytes do.

use std::error::Error;
use std::fmt;

use attrspace::{Query, Range, Space, SpaceError};
use autosel_core::{
    DynamicConstraint, Match, Message, NetMessage, NodeProfile, QueryId, QueryMsg, ReplyMsg,
};
use bytes::Bytes;
use epigossip::{Descriptor, GossipMessage, Layer};

/// Codec failures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer ended before the message did.
    Truncated,
    /// Unknown message tag.
    BadTag(
        /// The offending tag byte.
        u8,
    ),
    /// The payload disagrees with the attribute space.
    BadSpace(
        /// The underlying space error.
        SpaceError,
    ),
    /// Bytes left over after a complete message.
    Trailing(
        /// Number of unread bytes.
        usize,
    ),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadSpace(e) => write!(f, "payload incompatible with space: {e}"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl Error for WireError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WireError::BadSpace(e) => Some(e),
            _ => None,
        }
    }
}

const TAG_QUERY: u8 = 0;
const TAG_REPLY: u8 = 1;
const TAG_GOSSIP_REQ: u8 = 2;
const TAG_GOSSIP_RESP: u8 = 3;

/// Serializes a message.
pub fn encode(msg: &NetMessage) -> Bytes {
    let mut buf = Vec::with_capacity(128);
    encode_into(msg, &mut buf);
    Bytes::from(buf)
}

/// Appends the encoding of `msg` to `buf`: what a TCP link writes after a
/// frame's header, straight into the link's batch buffer.
pub(crate) fn encode_into(msg: &NetMessage, buf: &mut Vec<u8>) {
    match msg {
        NetMessage::Protocol(Message::Query(q)) => {
            buf.push(TAG_QUERY);
            put_query_id(buf, q.id);
            buf.extend_from_slice(&q.attempt.to_le_bytes());
            match q.sigma {
                Some(s) => {
                    buf.push(1);
                    buf.extend_from_slice(&s.to_le_bytes());
                }
                None => buf.push(0),
            }
            buf.extend_from_slice(&q.level.to_le_bytes());
            buf.extend_from_slice(&q.dims.to_le_bytes());
            buf.extend_from_slice(&(q.query.ranges().len() as u16).to_le_bytes());
            for r in q.query.ranges() {
                put_range(buf, r);
            }
            buf.extend_from_slice(&(q.dynamic.len() as u16).to_le_bytes());
            for c in &q.dynamic {
                buf.extend_from_slice(&c.key.to_le_bytes());
                put_range(buf, &c.range);
            }
            buf.push(u8::from(q.count_only));
        }
        NetMessage::Protocol(Message::Reply(r)) => {
            buf.push(TAG_REPLY);
            put_query_id(buf, r.id);
            buf.extend_from_slice(&r.attempt.to_le_bytes());
            buf.extend_from_slice(&r.count.to_le_bytes());
            buf.extend_from_slice(&(r.matching.len() as u32).to_le_bytes());
            for m in r.matching.iter() {
                buf.extend_from_slice(&m.node.to_le_bytes());
                put_values(buf, m.values.values());
            }
        }
        NetMessage::Gossip(GossipMessage::Request {
            layer,
            from_profile,
            batch,
        }) => {
            buf.push(TAG_GOSSIP_REQ);
            buf.push(layer_tag(*layer));
            put_values(buf, from_profile.point().values());
            put_batch(buf, batch);
        }
        NetMessage::Gossip(GossipMessage::Response { layer, batch }) => {
            buf.push(TAG_GOSSIP_RESP);
            buf.push(layer_tag(*layer));
            put_batch(buf, batch);
        }
    }
}

/// Deserializes a message; `space` supplies dimensionality and bucketing.
///
/// # Errors
///
/// Any [`WireError`] on malformed input. Inputs are untrusted: no panic on
/// arbitrary bytes (fuzzed in `tests/wire_roundtrip.rs`).
pub fn decode(space: &Space, buf: Bytes) -> Result<NetMessage, WireError> {
    decode_slice(space, &buf)
}

/// [`decode`] over borrowed bytes: a TCP reader decodes a frame's body
/// where it lies in the reader's buffer.
pub(crate) fn decode_slice(space: &Space, mut buf: &[u8]) -> Result<NetMessage, WireError> {
    let buf = &mut buf;
    let tag = take_u8(buf)?;
    let msg = match tag {
        TAG_QUERY => {
            let id = take_query_id(buf)?;
            let attempt = take_u32(buf)?;
            let sigma = match take_u8(buf)? {
                0 => None,
                _ => Some(take_u32(buf)?),
            };
            let level = take_u8(buf)? as i8;
            let dims = take_u32(buf)?;
            let n = take_u16(buf)? as usize;
            let mut ranges = Vec::with_capacity(capacity_for(n, buf, RANGE_BYTES));
            for _ in 0..n {
                ranges.push(take_range(buf)?);
            }
            let query = Query::from_ranges(space, ranges).map_err(WireError::BadSpace)?;
            let nd = take_u16(buf)? as usize;
            let mut dynamic = Vec::with_capacity(capacity_for(nd, buf, CONSTRAINT_BYTES));
            for _ in 0..nd {
                dynamic.push(DynamicConstraint {
                    key: take_u32(buf)?,
                    range: take_range(buf)?,
                });
            }
            let count_only = take_u8(buf)? != 0;
            NetMessage::Protocol(Message::Query(QueryMsg {
                id,
                query: query.into(),
                sigma,
                level,
                dims,
                dynamic,
                count_only,
                attempt,
            }))
        }
        TAG_REPLY => {
            let id = take_query_id(buf)?;
            let attempt = take_u32(buf)?;
            let count = take_u64(buf)?;
            let n = take_u32(buf)? as usize;
            let mut matching = Vec::with_capacity(capacity_for(n, buf, 8 + point_bytes(space)));
            for _ in 0..n {
                let node = take_u64(buf)?;
                let values = take_point(space, buf)?;
                matching.push(Match { node, values });
            }
            NetMessage::Protocol(Message::Reply(ReplyMsg {
                id,
                matching: matching.into(),
                count,
                attempt,
            }))
        }
        TAG_GOSSIP_REQ => {
            let layer = take_layer(buf)?;
            let point = take_point(space, buf)?;
            let from_profile = NodeProfile::new(space, point);
            let batch = take_batch(space, buf)?;
            NetMessage::Gossip(GossipMessage::Request {
                layer,
                from_profile,
                batch,
            })
        }
        TAG_GOSSIP_RESP => {
            let layer = take_layer(buf)?;
            let batch = take_batch(space, buf)?;
            NetMessage::Gossip(GossipMessage::Response { layer, batch })
        }
        t => return Err(WireError::BadTag(t)),
    };
    if !buf.is_empty() {
        return Err(WireError::Trailing(buf.len()));
    }
    Ok(msg)
}

/// Encoded size of a query range: two `u64` bounds.
const RANGE_BYTES: usize = 16;
/// Encoded size of a dynamic constraint: a `u32` key and a range.
const CONSTRAINT_BYTES: usize = 4 + RANGE_BYTES;

/// Encoded size of a point of `space`: a `u16` arity and one `u64` per
/// dimension (decoding rejects any other arity).
fn point_bytes(space: &Space) -> usize {
    2 + 8 * space.dims()
}

/// How many elements of at least `min_bytes` encoded bytes each to reserve
/// for a count of `n`: no more than the rest of the frame can hold.
fn capacity_for(n: usize, rest: &[u8], min_bytes: usize) -> usize {
    n.min(rest.len() / min_bytes)
}

fn layer_tag(layer: Layer) -> u8 {
    match layer {
        Layer::Random => 0,
        Layer::Semantic => 1,
    }
}

fn put_query_id(buf: &mut Vec<u8>, id: QueryId) {
    buf.extend_from_slice(&id.origin.to_le_bytes());
    buf.extend_from_slice(&id.seq.to_le_bytes());
}

fn put_range(buf: &mut Vec<u8>, r: &Range) {
    buf.extend_from_slice(&r.lo.to_le_bytes());
    buf.extend_from_slice(&r.hi.to_le_bytes());
}

fn put_values(buf: &mut Vec<u8>, values: &[u64]) {
    buf.extend_from_slice(&(values.len() as u16).to_le_bytes());
    for &v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_batch(buf: &mut Vec<u8>, batch: &[Descriptor<NodeProfile>]) {
    buf.extend_from_slice(&(batch.len() as u16).to_le_bytes());
    for d in batch {
        buf.extend_from_slice(&d.id.to_le_bytes());
        buf.extend_from_slice(&d.age.to_le_bytes());
        put_values(buf, d.profile.point().values());
    }
}

/// The next `N` bytes of `buf`, which then starts after them.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], WireError> {
    let (head, rest) = buf.split_first_chunk().ok_or(WireError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

fn take_u8(buf: &mut &[u8]) -> Result<u8, WireError> {
    take(buf).map(|[b]| b)
}

fn take_u16(buf: &mut &[u8]) -> Result<u16, WireError> {
    take(buf).map(u16::from_le_bytes)
}

fn take_u32(buf: &mut &[u8]) -> Result<u32, WireError> {
    take(buf).map(u32::from_le_bytes)
}

fn take_u64(buf: &mut &[u8]) -> Result<u64, WireError> {
    take(buf).map(u64::from_le_bytes)
}

fn take_range(buf: &mut &[u8]) -> Result<Range, WireError> {
    Ok(Range {
        lo: take_u64(buf)?,
        hi: take_u64(buf)?,
    })
}

fn take_query_id(buf: &mut &[u8]) -> Result<QueryId, WireError> {
    Ok(QueryId {
        origin: take_u64(buf)?,
        seq: take_u32(buf)?,
    })
}

fn take_layer(buf: &mut &[u8]) -> Result<Layer, WireError> {
    match take_u8(buf)? {
        0 => Ok(Layer::Random),
        1 => Ok(Layer::Semantic),
        t => Err(WireError::BadTag(t)),
    }
}

fn take_point(space: &Space, buf: &mut &[u8]) -> Result<attrspace::Point, WireError> {
    let n = take_u16(buf)? as usize;
    if n != space.dims() {
        return Err(WireError::BadSpace(SpaceError::WrongArity {
            got: n,
            expected: space.dims(),
        }));
    }
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(take_u64(buf)?);
    }
    space.point(&values).map_err(WireError::BadSpace)
}

fn take_batch(space: &Space, buf: &mut &[u8]) -> Result<Vec<Descriptor<NodeProfile>>, WireError> {
    let n = take_u16(buf)? as usize;
    let mut batch = Vec::with_capacity(capacity_for(n, buf, 8 + 4 + point_bytes(space)));
    for _ in 0..n {
        let id = take_u64(buf)?;
        let age = take_u32(buf)?;
        let point = take_point(space, buf)?;
        batch.push(Descriptor {
            id,
            age,
            profile: NodeProfile::new(space, point),
        });
    }
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> Space {
        Space::uniform(3, 80, 3).unwrap()
    }

    #[test]
    fn query_roundtrip() {
        let s = space();
        let q = QueryMsg {
            id: QueryId { origin: 7, seq: 3 },
            query: Query::builder(&s)
                .min("a0", 40)
                .range("a2", 5, 10)
                .build()
                .unwrap()
                .into(),
            sigma: Some(50),
            level: 2,
            dims: 0b101,
            dynamic: vec![DynamicConstraint {
                key: 9,
                range: Range { lo: 5, hi: 10 },
            }],
            count_only: true,
            attempt: 6,
        };
        let msg = NetMessage::Protocol(Message::Query(q.clone()));
        let back = decode(&s, encode(&msg)).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn reply_roundtrip() {
        let s = space();
        let msg = NetMessage::Protocol(Message::Reply(ReplyMsg {
            id: QueryId { origin: 1, seq: 0 },
            matching: vec![
                Match {
                    node: 5,
                    values: s.point(&[1, 2, 3]).unwrap(),
                },
                Match {
                    node: 9,
                    values: s.point(&[70, 0, 80]).unwrap(),
                },
            ]
            .into(),
            count: 2,
            attempt: 4,
        }));
        assert_eq!(decode(&s, encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn gossip_roundtrip() {
        let s = space();
        let p = |v: &[u64]| NodeProfile::new(&s, s.point(v).unwrap());
        for msg in [
            NetMessage::Gossip(GossipMessage::Request {
                layer: Layer::Random,
                from_profile: p(&[1, 2, 3]),
                batch: vec![Descriptor {
                    id: 4,
                    age: 9,
                    profile: p(&[4, 5, 6]),
                }],
            }),
            NetMessage::Gossip(GossipMessage::Response {
                layer: Layer::Semantic,
                batch: vec![],
            }),
        ] {
            assert_eq!(decode(&s, encode(&msg)).unwrap(), msg);
        }
    }

    #[test]
    fn rejects_malformed() {
        let s = space();
        assert_eq!(decode(&s, Bytes::new()).unwrap_err(), WireError::Truncated);
        assert_eq!(
            decode(&s, Bytes::from_static(&[99])).unwrap_err(),
            WireError::BadTag(99)
        );
        // Arity mismatch: a query with 2 ranges in a 3-d space.
        let two = Space::uniform(2, 80, 3).unwrap();
        let msg = NetMessage::Protocol(Message::Query(QueryMsg {
            id: QueryId { origin: 0, seq: 0 },
            query: Query::builder(&two).build().unwrap().into(),
            sigma: None,
            level: 3,
            dims: 0b11,
            dynamic: Vec::new(),
            count_only: false,
            attempt: 1,
        }));
        assert!(matches!(
            decode(&s, encode(&msg)).unwrap_err(),
            WireError::BadSpace(_)
        ));
        // A QUERY in the older layout, with a `u32` count of node ids and
        // the ids ahead of the `count_only` byte, is refused, not misread.
        let frame = encode(&msg);
        let (head, flag) = frame[..].split_at(frame.len() - 1);
        let old = [head, &1u32.to_le_bytes(), &42u64.to_le_bytes(), flag].concat();
        assert_eq!(
            decode_slice(&two, &old).unwrap_err(),
            WireError::Trailing(12)
        );
        // Trailing garbage.
        let good = encode(&NetMessage::Gossip(GossipMessage::Response {
            layer: Layer::Random,
            batch: vec![],
        }));
        let bad = [&good[..], &[0]].concat();
        assert_eq!(decode_slice(&s, &bad).unwrap_err(), WireError::Trailing(1));
    }
}
