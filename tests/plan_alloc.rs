//! The zero-allocation contract of the streaming force plan, enforced
//! with a counting global allocator: after one warm pass has minted the
//! husk, a steady-state serial `stream_with` pass over every group
//! performs **zero** heap allocations — the walk's stack is on the call
//! stack, and the resolved j-arrays it writes and the target buffers
//! all live in the recycled husk, whose capacities were grown during
//! the warm pass.

use grape5_nbody::ic::plummer_sphere;
use grape5_nbody::tree::plan::{stream_with, PlanConfig, PlanPool};
use grape5_nbody::tree::traverse::Traversal;
use grape5_nbody::tree::tree::Tree;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_streaming_allocates_nothing() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
    let snap = plummer_sphere(4000, &mut rng);
    let tree = Tree::build(&snap.pos, &snap.mass);
    let tr = Traversal::new(0.75);
    let groups = tr.find_groups(&tree, 128);
    assert!(groups.len() > 10, "want a meaningful number of groups");

    let cfg = PlanConfig::serial();
    let pool = PlanPool::new();

    // warm pass: mints the husk and grows every capacity
    let mut consumed = 0u64;
    stream_with(&tree, &tr, &groups, &cfg, &pool, |w| consumed += w.targets.len() as u64)
        .expect("warm pass");
    assert!(consumed > 0);
    let minted_warm = pool.minted();
    assert!(minted_warm >= 1);

    // steady state: same groups through the recycled buffers
    let before = ALLOCS.load(Ordering::SeqCst);
    let mut consumed2 = 0u64;
    stream_with(&tree, &tr, &groups, &cfg, &pool, |w| consumed2 += w.targets.len() as u64)
        .expect("steady pass");
    let after = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(consumed, consumed2, "both passes must see identical work");
    assert_eq!(pool.minted(), minted_warm, "steady state must not mint new husks");
    assert_eq!(
        after - before,
        0,
        "steady-state serial streaming must perform zero heap allocations"
    );
}
