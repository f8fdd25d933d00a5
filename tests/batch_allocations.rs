//! Heap traffic of the batch loop, counted by a global allocator.
//!
//! Once its buffers have grown, a `SequentialAllocator` splits a batch
//! without allocating, and a cold job's batches after the first
//! allocate nothing at all in any mode: no per-term vector for the σ̂,
//! the weights, the counts, the remainders or the selection, and no
//! static split recomputed for a repeated budget.

use nme_wire_cutting::qpd::{QpdSpec, SequentialAllocator};
use nme_wire_cutting::qsim::{Circuit, PauliString};
use nme_wire_cutting::wirecut::planner::CutPlanner;
use nme_wire_cutting::wirecut::service::{AllocationMode, CutService, EstimationJob};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread; tests run on threads of their
    /// own, so each reads only its own traffic.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting every allocation on the calling thread.
struct Counting;

fn count_one() {
    // `try_with`: a thread being torn down may still free memory.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell` that neither allocates nor
// touches the blocks handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn a_second_sequential_batch_allocates_nothing() {
    // 3⁸ = 6561 terms, the shape of an 8-cut plan.
    let factor = QpdSpec::from_parts(&[(0.7, 0.0), (0.5, 1.0), (-0.2, 1.0)]);
    let spec = QpdSpec::product(&vec![factor; 8]);
    let mut seq = SequentialAllocator::new(spec.len());
    let mut out = Vec::new();
    let before = allocations();
    seq.next_allocation_into(&spec, 1 << 14, &mut out);
    assert!(
        allocations() > before,
        "the first batch grows `out`: the counter must see it"
    );
    for batch in 1..4u64 {
        for (term, &n) in out.iter().enumerate() {
            let plus = (term as u64 * 7 + batch) % (n + 1);
            seq.record(term, 2.0 * plus as f64 - n as f64, n);
        }
        let before = allocations();
        seq.next_allocation_into(&spec, 1 << 14, &mut out);
        assert_eq!(allocations() - before, 0, "batch {batch} allocated");
        assert_eq!(out.iter().sum::<u64>(), 1 << 14);
    }
}

/// The CX ladder on 8 qubits at width 2: six single-wire NME cuts, 729
/// product terms.
fn ladder() -> Circuit {
    let mut c = Circuit::new(8, 0);
    c.ry(0.4, 0);
    for q in 0..7 {
        c.cx(q, q + 1);
    }
    c
}

#[test]
fn cold_job_batches_after_the_first_allocate_nothing() {
    for mode in [
        AllocationMode::Sequential,
        AllocationMode::StaticProportional,
        AllocationMode::StaticUniform,
    ] {
        // A fresh service, so the job compiles its plan cold.
        let svc = CutService::new(CutPlanner::new(2).with_overlap(0.8));
        let job = EstimationJob::new(ladder(), PauliString::from_label("ZZZZZZZZ"), 8000, 7)
            .with_batches(4)
            .with_mode(mode);
        let mut marks = Vec::with_capacity(4);
        let out = svc.run_job_with(&job, |_| marks.push(allocations()));
        assert_eq!(out.allocation.len(), 729);
        assert_eq!(marks.len(), 4);
        for (batch, w) in marks.windows(2).enumerate() {
            assert_eq!(w[1] - w[0], 0, "{mode:?}: batch {} allocated", batch + 1);
        }
    }
}
