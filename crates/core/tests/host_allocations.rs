//! A node's protocol step writes into its runtime's buffer: once a host is
//! warm (its pooled query records, its maps and the buffer itself hold
//! capacity), handing it a QUERY that it forwards allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use attrspace::{Query, Space};
use autosel_core::{
    Host, MatchList, Message, NetMessage, Output, ProtocolConfig, QueryId, QueryMsg, ReplyMsg,
    SelectionNode,
};
use rand::{rngs::StdRng, SeedableRng};

/// Counts the allocations (fresh and regrown) made on a thread while its
/// `COUNTING` flag is up; other test threads do not count.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: both calls forward unchanged to the system allocator; counting
// touches only const-initialised thread-locals, which never allocate. The
// default `realloc` and `alloc_zeroed` go through `alloc`, so they count.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                ALLOCATIONS.with(|n| n.set(n.get() + 1));
            }
        });
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_warm_host_forwards_a_query_without_allocating() {
    let space = Space::uniform(2, 80, 3).unwrap();
    let point = |vals: [u64; 2]| space.point(&vals).unwrap();
    // Node 1 does not match `a0 ≥ 60`; its one link, node 2, lies in the
    // query's region.
    let mut node = SelectionNode::new(1, &space, point([5, 5]), ProtocolConfig::default());
    node.routing_mut().observe(2, point([70, 70]));
    let mut host = Host::new(node, None);
    let query = Arc::new(Query::builder(&space).min("a0", 60).build().unwrap());
    let id = |seq| QueryId { origin: 9, seq };
    let forward = |seq| {
        NetMessage::Protocol(Message::Query(QueryMsg {
            id: id(seq),
            query: Arc::clone(&query),
            sigma: None,
            level: space.max_level() as i8,
            dims: 0b11,
            dynamic: Vec::new(),
            count_only: false,
            attempt: 1,
        }))
    };
    let (mut rng, mut out) = (StdRng::seed_from_u64(1), Vec::with_capacity(4));

    // Warm up: queries forwarded to node 2 and concluded by its reply, so
    // their records go back to the pool and the maps keep their capacity.
    for seq in 0..8 {
        host.deliver(9, forward(seq), 0, &mut rng, &mut out);
        let reply = Message::Reply(ReplyMsg {
            id: id(seq),
            matching: MatchList::new(),
            count: 0,
            attempt: 1,
        });
        host.deliver(2, NetMessage::Protocol(reply), 0, &mut rng, &mut out);
        out.clear();
    }

    let msg = forward(8);
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    host.deliver(9, msg, 0, &mut rng, &mut out);
    COUNTING.with(|on| on.set(false));
    let allocations = ALLOCATIONS.with(Cell::get);
    let forwarded = matches!(
        &out[..],
        [Output::Send {
            to: 2,
            msg: Message::Query(_)
        }]
    );
    assert!(forwarded, "{out:?}");
    assert_eq!(host.selection().pending_len(), 1, "nothing concluded");
    assert_eq!(allocations, 0, "a warm forwarding step allocated");
}
