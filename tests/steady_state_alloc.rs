//! Steady-state allocation counts, measured directly with a counting
//! global allocator (this test binary's own `#[global_allocator]`).
//!
//! After warm-up:
//!
//! * a GEMM at a Table-1 conv shape allocates **nothing**, on one thread
//!   and at the default thread count (the worker pool hands out chunks
//!   without allocating, and the packed-A band lives in per-thread
//!   scratch that outlives the call);
//! * `EngineSession::predict` makes as many allocations at batch 64 as at
//!   batch 1, and a `train_with`-shaped step as many at batch 32 as at
//!   batch 8: what remains is per-call bookkeeping, never per-example or
//!   per-band buffers.
//!
//! The counter is process-wide, so everything runs inside one `#[test]`:
//! no other test thread can allocate while a measurement is open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

use mn_bench::zoo;
use mn_ensemble::engine::EnginePlan;
use mn_ensemble::EnsembleMember;
use mn_nn::loss::softmax_cross_entropy_ws;
use mn_nn::optim::Sgd;
use mn_nn::{Mode, Network};
use mn_tensor::{ops, Tensor, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the tally
// touches only atomics and never allocates. The provided `alloc_zeroed`
// and `realloc` go through `alloc`, so each counts as one allocation.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract (a
    // non-zero-size layout), passed to `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract (`ptr`
    // came from this allocator — that is, from `System` — with `layout`).
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (a `realloc` counts as one) made by every thread while `f`
/// runs.
fn allocations(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    f();
    COUNTING.store(false, Relaxed);
    ALLOCS.load(Relaxed)
}

const WARM: usize = 20;

/// `matmul_into_ws` at the second conv of V13's first block under
/// im2col, batch 32: `[32·8·8, 8·3·3] x [8·3·3, 8]` — enough
/// multiply-adds to run on every available thread.
fn gemm_allocates_nothing() {
    let (m, k, n) = (32 * 8 * 8, 8 * 3 * 3, 8);
    let mut rng = StdRng::seed_from_u64(1);
    let a = Tensor::randn([m, k], 1.0, &mut rng);
    let b = Tensor::randn([k, n], 1.0, &mut rng);
    let mut c = Tensor::zeros([m, n]);
    let mut ws = Workspace::new();
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool builds");
    let default = rayon::current_num_threads();
    let mut run = |threads: &str| {
        for _ in 0..WARM {
            ops::matmul_into_ws(&a, &b, &mut c, &mut ws);
        }
        let n = allocations(|| {
            for _ in 0..WARM {
                ops::matmul_into_ws(&a, &b, &mut c, &mut ws);
            }
        });
        assert_eq!(
            n, 0,
            "GEMM allocated {n} times in {WARM} calls on {threads}"
        );
    };
    one.install(|| run("1 thread"));
    run(&format!("{default} threads"));
}

/// `EngineSession::predict` over the five Table-1 VGGs.
fn predict_allocations_do_not_grow_with_batch() {
    let members: Vec<EnsembleMember> = zoo::vgg_small_ensemble(10)
        .iter()
        .enumerate()
        .map(|(i, arch)| EnsembleMember::new(arch.name.clone(), Network::seeded(arch, i as u64)))
        .collect();
    let plan = EnginePlan::new(members, 32)
        .expect("members build")
        .into_shared();
    let mut session = plan.session();
    let mut rng = StdRng::seed_from_u64(2);
    let per_batch: Vec<u64> = [1usize, 64]
        .iter()
        .map(|&b| {
            let x = Tensor::randn([b, 3, 8, 8], 1.0, &mut rng);
            for _ in 0..WARM {
                session.predict(&x);
            }
            let first = allocations(|| {
                session.predict(&x);
            });
            let again = allocations(|| {
                session.predict(&x);
            });
            assert_eq!(first, again, "batch-{b} predict allocations do not repeat");
            first
        })
        .collect();
    assert_eq!(
        per_batch[0], per_batch[1],
        "predict allocates {} times at batch 1 but {} at batch 64",
        per_batch[0], per_batch[1]
    );
}

/// A `train_with`-shaped step (forward, loss, backward, SGD) on V13.
fn train_step_allocations_do_not_grow_with_batch() {
    let arch = zoo::v13(10);
    let mut rng = StdRng::seed_from_u64(3);
    let per_batch: Vec<u64> = [8usize, 32]
        .iter()
        .map(|&b| {
            let x = Tensor::randn([b, 3, 8, 8], 1.0, &mut rng);
            let y: Vec<usize> = (0..b).map(|i| i % 10).collect();
            let mut net = Network::seeded(&arch, 4);
            let mut ws = Workspace::new();
            let mut opt = Sgd::new(0.05, 0.9, 1e-4);
            let mut step = || {
                let logits = net.forward_with(&x, Mode::Train, &mut ws);
                let (_, grad) = softmax_cross_entropy_ws(&logits, &y, &mut ws);
                ws.release(logits);
                net.backward_with(&grad, &mut ws);
                ws.release(grad);
                opt.step_network(&mut net);
            };
            for _ in 0..WARM {
                step();
            }
            let first = allocations(&mut step);
            let again = allocations(&mut step);
            assert_eq!(first, again, "batch-{b} step allocations do not repeat");
            first
        })
        .collect();
    assert_eq!(
        per_batch[0], per_batch[1],
        "a training step allocates {} times at batch 8 but {} at batch 32",
        per_batch[0], per_batch[1]
    );
}

#[test]
fn steady_state_allocations_are_bounded_per_call() {
    gemm_allocates_nothing();
    predict_allocations_do_not_grow_with_batch();
    train_step_allocations_do_not_grow_with_batch();
}
