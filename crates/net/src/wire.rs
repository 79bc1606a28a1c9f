//! Length-prefixed binary codec for protocol and gossip messages.
//!
//! Hand-rolled on [`bytes`]: the message shapes are small and fixed given
//! the attribute space, so a serde format dependency would buy nothing
//! (DESIGN.md §5). All integers are little-endian.
//!
//! Decoding is hostile-input safe: no byte sequence panics it, and no
//! length field reserves more elements than the rest of the frame could
//! encode, so a forged count costs at most what the frame's own bytes do.

use std::error::Error;
use std::fmt;

use attrspace::{Query, Range, Space, SpaceError};
use autosel_core::{DynamicConstraint, Match, Message, NodeProfile, QueryId, QueryMsg, ReplyMsg};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use epigossip::{Descriptor, GossipMessage, Layer};

use crate::peer::NetMessage;

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
    let mut buf = BytesMut::with_capacity(128);
    match msg {
        NetMessage::Protocol(Message::Query(q)) => {
            buf.put_u8(TAG_QUERY);
            put_query_id(&mut buf, q.id);
            buf.put_u32_le(q.attempt);
            match q.sigma {
                Some(s) => {
                    buf.put_u8(1);
                    buf.put_u32_le(s);
                }
                None => buf.put_u8(0),
            }
            buf.put_i8(q.level);
            buf.put_u32_le(q.dims);
            buf.put_u16_le(q.query.ranges().len() as u16);
            for r in q.query.ranges() {
                buf.put_u64_le(r.lo);
                buf.put_u64_le(r.hi);
            }
            buf.put_u16_le(q.dynamic.len() as u16);
            for c in &q.dynamic {
                buf.put_u32_le(c.key);
                buf.put_u64_le(c.range.lo);
                buf.put_u64_le(c.range.hi);
            }
            buf.put_u32_le(q.visited_zero.len() as u32);
            for &v in &q.visited_zero {
                buf.put_u64_le(v);
            }
            buf.put_u8(u8::from(q.count_only));
        }
        NetMessage::Protocol(Message::Reply(r)) => {
            buf.put_u8(TAG_REPLY);
            put_query_id(&mut buf, r.id);
            buf.put_u32_le(r.attempt);
            buf.put_u64_le(r.count);
            buf.put_u32_le(r.matching.len() as u32);
            for m in r.matching.iter() {
                buf.put_u64_le(m.node);
                put_values(&mut buf, m.values.values());
            }
        }
        NetMessage::Gossip(GossipMessage::Request {
            layer,
            from_profile,
            batch,
        }) => {
            buf.put_u8(TAG_GOSSIP_REQ);
            buf.put_u8(layer_tag(*layer));
            put_values(&mut buf, from_profile.point().values());
            put_batch(&mut buf, batch);
        }
        NetMessage::Gossip(GossipMessage::Response { layer, batch }) => {
            buf.put_u8(TAG_GOSSIP_RESP);
            buf.put_u8(layer_tag(*layer));
            put_batch(&mut buf, batch);
        }
    }
    buf.freeze()
}

/// Deserializes a message; `space` supplies dimensionality and bucketing.
///
/// # Errors
///
/// Any [`WireError`] on malformed input. Inputs are untrusted: no panic on
/// arbitrary bytes (fuzzed in `tests/wire_roundtrip.rs`).
pub fn decode(space: &Space, mut buf: Bytes) -> Result<NetMessage, WireError> {
    let tag = take_u8(&mut buf)?;
    let msg = match tag {
        TAG_QUERY => {
            let id = take_query_id(&mut buf)?;
            let attempt = take_u32(&mut buf)?;
            let sigma = match take_u8(&mut buf)? {
                0 => None,
                _ => Some(take_u32(&mut buf)?),
            };
            let level = take_u8(&mut buf)? as i8;
            let dims = take_u32(&mut buf)?;
            let n = take_u16(&mut buf)? as usize;
            let mut ranges = Vec::with_capacity(capacity_for(n, &buf, RANGE_BYTES));
            for _ in 0..n {
                ranges.push(Range {
                    lo: take_u64(&mut buf)?,
                    hi: take_u64(&mut buf)?,
                });
            }
            let query = Query::from_ranges(space, ranges).map_err(WireError::BadSpace)?;
            let nd = take_u16(&mut buf)? as usize;
            let mut dynamic = Vec::with_capacity(capacity_for(nd, &buf, CONSTRAINT_BYTES));
            for _ in 0..nd {
                dynamic.push(DynamicConstraint {
                    key: take_u32(&mut buf)?,
                    range: Range {
                        lo: take_u64(&mut buf)?,
                        hi: take_u64(&mut buf)?,
                    },
                });
            }
            let nv = take_u32(&mut buf)? as usize;
            let mut visited_zero = Vec::with_capacity(capacity_for(nv, &buf, 8));
            for _ in 0..nv {
                visited_zero.push(take_u64(&mut buf)?);
            }
            let count_only = take_u8(&mut buf)? != 0;
            NetMessage::Protocol(Message::Query(QueryMsg {
                id,
                query: query.into(),
                sigma,
                level,
                dims,
                dynamic,
                count_only,
                visited_zero,
                attempt,
            }))
        }
        TAG_REPLY => {
            let id = take_query_id(&mut buf)?;
            let attempt = take_u32(&mut buf)?;
            let count = take_u64(&mut buf)?;
            let n = take_u32(&mut buf)? as usize;
            let mut matching = Vec::with_capacity(capacity_for(n, &buf, 8 + point_bytes(space)));
            for _ in 0..n {
                let node = take_u64(&mut buf)?;
                let values = take_point(space, &mut buf)?;
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
            let layer = take_layer(&mut buf)?;
            let point = take_point(space, &mut buf)?;
            let from_profile = NodeProfile::new(space, point);
            let batch = take_batch(space, &mut buf)?;
            NetMessage::Gossip(GossipMessage::Request {
                layer,
                from_profile,
                batch,
            })
        }
        TAG_GOSSIP_RESP => {
            let layer = take_layer(&mut buf)?;
            let batch = take_batch(space, &mut buf)?;
            NetMessage::Gossip(GossipMessage::Response { layer, batch })
        }
        t => return Err(WireError::BadTag(t)),
    };
    if buf.has_remaining() {
        return Err(WireError::Trailing(buf.remaining()));
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
fn capacity_for(n: usize, buf: &Bytes, min_bytes: usize) -> usize {
    n.min(buf.remaining() / min_bytes)
}

fn layer_tag(layer: Layer) -> u8 {
    match layer {
        Layer::Random => 0,
        Layer::Semantic => 1,
    }
}

fn put_query_id(buf: &mut BytesMut, id: QueryId) {
    buf.put_u64_le(id.origin);
    buf.put_u32_le(id.seq);
}

fn put_values(buf: &mut BytesMut, values: &[u64]) {
    buf.put_u16_le(values.len() as u16);
    for &v in values {
        buf.put_u64_le(v);
    }
}

fn put_batch(buf: &mut BytesMut, batch: &[Descriptor<NodeProfile>]) {
    buf.put_u16_le(batch.len() as u16);
    for d in batch {
        buf.put_u64_le(d.id);
        buf.put_u32_le(d.age);
        put_values(buf, d.profile.point().values());
    }
}

fn take_u8(buf: &mut Bytes) -> Result<u8, WireError> {
    if buf.remaining() < 1 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u8())
}

fn take_u16(buf: &mut Bytes) -> Result<u16, WireError> {
    if buf.remaining() < 2 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u16_le())
}

fn take_u32(buf: &mut Bytes) -> Result<u32, WireError> {
    if buf.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u32_le())
}

fn take_u64(buf: &mut Bytes) -> Result<u64, WireError> {
    if buf.remaining() < 8 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u64_le())
}

fn take_query_id(buf: &mut Bytes) -> Result<QueryId, WireError> {
    Ok(QueryId {
        origin: take_u64(buf)?,
        seq: take_u32(buf)?,
    })
}

fn take_layer(buf: &mut Bytes) -> Result<Layer, WireError> {
    match take_u8(buf)? {
        0 => Ok(Layer::Random),
        1 => Ok(Layer::Semantic),
        t => Err(WireError::BadTag(t)),
    }
}

fn take_point(space: &Space, buf: &mut Bytes) -> Result<attrspace::Point, WireError> {
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

fn take_batch(space: &Space, buf: &mut Bytes) -> Result<Vec<Descriptor<NodeProfile>>, WireError> {
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
            visited_zero: vec![3, 8],
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
            visited_zero: Vec::new(),
            attempt: 1,
        }));
        assert!(matches!(
            decode(&s, encode(&msg)).unwrap_err(),
            WireError::BadSpace(_)
        ));
        // Trailing garbage.
        let good = encode(&NetMessage::Gossip(GossipMessage::Response {
            layer: Layer::Random,
            batch: vec![],
        }));
        let mut bad = BytesMut::from(&good[..]);
        bad.put_u8(0);
        assert_eq!(
            decode(&s, bad.freeze()).unwrap_err(),
            WireError::Trailing(1)
        );
    }
}
