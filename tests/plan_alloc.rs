//! The zero-allocation contract of the streaming force plan, enforced
//! with a counting global allocator: after one warm pass has minted the
//! husk, a steady-state serial pass over every group performs **zero**
//! heap allocations — the walk's stack is on the call stack, and the
//! resolved j-arrays it writes and the target buffers all live in the
//! recycled husk, whose capacities were grown during the warm pass.
//! That holds for the plain stream and for the augmented one a cluster
//! shard runs, where each group's LET terms from a remote tree are
//! appended to the same husk.

use grape5_nbody::ic::plummer_sphere;
use grape5_nbody::tree::domain::let_terms_into;
use grape5_nbody::tree::plan::{stream_windows, GroupWork, PlanConfig, PlanPool};
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
    let (local, far) = (0..2000, 2000..4000);
    let tree = Tree::build(&snap.pos[local.clone()], &snap.mass[local]);
    let remote = Tree::build(&snap.pos[far.clone()], &snap.mass[far]);
    let tr = Traversal::new(0.75);
    let groups = tr.find_groups(&tree, 128);
    assert!(groups.len() > 10, "want a meaningful number of groups");

    let cfg = PlanConfig::serial();
    let mut fewer = 0;
    for (name, import) in [("plain", None), ("LET-augmented", Some(&remote))] {
        let augment = |w: &mut GroupWork| {
            if let Some(src) = import {
                let sphere = tr.group_sphere(&tree, w.group);
                let_terms_into(src, &tr.mac, &sphere, &mut w.jpos, &mut w.jmass);
            }
        };
        let pool = PlanPool::new();
        let pass = || {
            let mut terms = 0u64;
            stream_windows(&tree, &tr, &groups, (&cfg, &pool), &augment, usize::MAX, |w| {
                let w = w.work(0);
                terms += w.jpos.len() as u64 * w.targets.len() as u64
            })
            .expect(name);
            terms
        };

        // warm pass: mints the husk and grows every capacity
        let consumed = pass();
        assert!(consumed > fewer, "{name}: no work beyond the previous input's");
        fewer = consumed;
        let minted_warm = pool.minted();
        assert!(minted_warm >= 1);

        // steady state: same groups through the recycled buffers
        let before = ALLOCS.load(Ordering::SeqCst);
        let consumed2 = pass();
        let after = ALLOCS.load(Ordering::SeqCst);

        assert_eq!(consumed, consumed2, "{name}: both passes must see identical work");
        assert_eq!(pool.minted(), minted_warm, "{name}: steady state must not mint new husks");
        assert_eq!(
            after - before,
            0,
            "{name}: steady-state serial streaming must perform zero heap allocations"
        );
    }
}
