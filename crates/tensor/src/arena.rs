//! Thread-local bump arena for `f32` scratch.
//!
//! Every hot kernel in this crate (conv padded planes, packed gemm panels,
//! GroupNorm partials, solver stage scratch in `enode-ode`) needs
//! short-lived `f32` workspace sized per call. Before PR 7 each call site
//! either allocated a fresh `Vec` or drew from a per-thread free-list of
//! `Vec`s keyed by nothing (so differently-sized checkouts churned the
//! allocator anyway). This module replaces both with a per-thread bump
//! arena:
//!
//! * [`with_arena_f32`] checks out `len` elements by bumping a cursor in a
//!   thread-local block list; nested checkouts bump further (strictly
//!   LIFO by construction, since the checkout is scoped to a closure).
//! * Blocks grow geometrically and are **never** freed while the thread
//!   lives, so steady-state kernels (a solver evaluating `f` thousands of
//!   times) perform zero allocator calls after warm-up.
//! * The cursor is restored by a drop guard, so a panicking kernel (or the
//!   sanitizer failing a run mid-flight) unwinds the arena correctly and
//!   the next checkout starts from a clean cursor ([`stats`] exposes the
//!   live-checkout count the panic-safety tests assert on).
//! * Checkout contents are **unspecified** — the same contract the old
//!   free-list had. Kernels fully overwrite their scratch.
//!
//! Under the `sanitize` feature every checkout registers its address range
//! with [`crate::sanitize::scratch_guard`], so two live checkouts that
//! ever alias (an arena bookkeeping bug) fail fast with kernel labels.

use crate::sanitize;
use std::cell::RefCell;

/// Smallest block the arena allocates (elements). Sized so the common
/// small checkouts (solver stages, GroupNorm partials) never trigger a
/// second block.
const MIN_BLOCK_ELEMS: usize = 4 * 1024;

struct Block {
    /// Boxed so the storage address is stable even when `blocks` grows.
    buf: Box<[f32]>,
    /// Bump cursor: elements `[0, used)` belong to live checkouts.
    used: usize,
}

#[derive(Default)]
struct ArenaState {
    blocks: Vec<Block>,
    live_checkouts: usize,
    live_elems: usize,
    high_water_elems: usize,
    total_checkouts: u64,
}

thread_local! {
    static ARENA: RefCell<ArenaState> = RefCell::new(ArenaState::default());
}

/// A point-in-time snapshot of this thread's arena accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Checkouts currently live on this thread (0 outside any kernel).
    pub live_checkouts: usize,
    /// Elements currently checked out.
    pub live_elems: usize,
    /// Largest `live_elems` ever observed on this thread.
    pub high_water_elems: usize,
    /// Total checkouts since the thread started.
    pub total_checkouts: u64,
    /// Number of blocks backing the arena.
    pub blocks: usize,
    /// Total capacity across blocks (elements).
    pub capacity_elems: usize,
}

/// This thread's arena accounting (monotonic counters; tests compare
/// deltas around a region of interest).
pub fn stats() -> ArenaStats {
    ARENA.with(|a| {
        let a = a.borrow();
        ArenaStats {
            live_checkouts: a.live_checkouts,
            live_elems: a.live_elems,
            high_water_elems: a.high_water_elems,
            total_checkouts: a.total_checkouts,
            blocks: a.blocks.len(),
            capacity_elems: a.blocks.iter().map(|b| b.buf.len()).sum(),
        }
    })
}

/// Restores the bump cursor (and accounting) when a checkout ends —
/// including by panic, which is what keeps the arena usable after a
/// kernel unwinds through it.
struct Checkout {
    block: usize,
    offset: usize,
    len: usize,
}

impl Drop for Checkout {
    fn drop(&mut self) {
        ARENA.with(|a| {
            let mut a = a.borrow_mut();
            let b = &mut a.blocks[self.block];
            debug_assert_eq!(
                b.used,
                self.offset + self.len,
                "arena checkouts must unwind LIFO"
            );
            b.used = self.offset;
            a.live_checkouts -= 1;
            a.live_elems -= self.len;
        });
    }
}

/// Runs `f` with a `len`-element scratch slice checked out of this
/// thread's bump arena. Contents are unspecified; the slice is valid only
/// for the duration of `f`. Nested checkouts (from `f` or anything it
/// calls) receive disjoint memory.
pub fn with_arena_f32<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    if len == 0 {
        return f(&mut []);
    }
    let (block, offset, ptr) = ARENA.with(|a| {
        let mut a = a.borrow_mut();
        a.total_checkouts += 1;
        a.live_checkouts += 1;
        a.live_elems += len;
        if a.live_elems > a.high_water_elems {
            a.high_water_elems = a.live_elems;
        }
        let block = match a.blocks.iter().position(|b| b.buf.len() - b.used >= len) {
            Some(i) => i,
            None => {
                // Geometric growth keeps the block count logarithmic in the
                // peak working set.
                let cap = len
                    .max(MIN_BLOCK_ELEMS)
                    .max(a.blocks.last().map_or(0, |b| b.buf.len() * 2));
                a.blocks.push(Block {
                    buf: vec![0.0f32; cap].into_boxed_slice(),
                    used: 0,
                });
                a.blocks.len() - 1
            }
        };
        let b = &mut a.blocks[block];
        let offset = b.used;
        b.used += len;
        // SAFETY: `buf` is boxed, so this address survives `blocks`
        // reallocation; the range [offset, offset+len) was just reserved.
        let ptr = unsafe { b.buf.as_mut_ptr().add(offset) };
        (block, offset, ptr)
    });
    let _restore = Checkout { block, offset, len };
    let _guard = sanitize::scratch_guard(ptr as usize, len * std::mem::size_of::<f32>());
    // SAFETY: the reserved range is exclusive to this checkout — the bump
    // cursor guarantees any nested checkout (the only other party that can
    // touch this thread-local block) starts at or after `offset + len`,
    // and the drop guard does not release the range until `f` returns or
    // unwinds. The RefCell borrow was dropped above, so `f` may re-enter
    // the arena freely.
    let slice = unsafe { std::slice::from_raw_parts_mut(ptr, len) };
    f(slice)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_has_requested_length() {
        with_arena_f32(37, |s| {
            assert_eq!(s.len(), 37);
            s.fill(1.0);
        });
        with_arena_f32(0, |s| assert!(s.is_empty()));
    }

    #[test]
    fn nested_checkouts_are_disjoint() {
        with_arena_f32(64, |outer| {
            outer.fill(7.0);
            with_arena_f32(64, |inner| {
                inner.fill(9.0);
                assert!(inner.iter().all(|&v| v == 9.0));
            });
            // The inner checkout must not have clobbered the outer one.
            assert!(outer.iter().all(|&v| v == 7.0));
        });
    }

    #[test]
    fn reuse_across_calls_hits_the_same_block() {
        let before = stats();
        for _ in 0..100 {
            with_arena_f32(1000, |s| {
                s[999] = 1.0;
            });
        }
        let after = stats();
        assert_eq!(after.total_checkouts - before.total_checkouts, 100);
        // Steady-state reuse: at most one block was added for this size.
        assert!(
            after.blocks <= before.blocks + 1,
            "expected block reuse, got {} -> {} blocks",
            before.blocks,
            after.blocks
        );
        assert_eq!(after.live_checkouts, 0);
        assert_eq!(after.live_elems, 0);
    }

    #[test]
    fn high_water_mark_tracks_nested_peak() {
        let before = stats();
        with_arena_f32(300, |_| {
            with_arena_f32(200, |_| {
                let peak = stats();
                assert_eq!(peak.live_checkouts, 2);
                assert!(peak.live_elems >= 500);
            });
        });
        let after = stats();
        assert!(
            after.high_water_elems >= before.high_water_elems.max(500),
            "high water {} must cover the 500-element nested peak",
            after.high_water_elems
        );
        assert_eq!(after.live_elems, 0);
    }

    #[test]
    fn panic_unwinds_the_cursor() {
        let before = stats();
        let caught = std::panic::catch_unwind(|| {
            with_arena_f32(128, |s| {
                s.fill(3.0);
                with_arena_f32(64, |_| panic!("kernel failure mid-checkout"));
            })
        });
        assert!(caught.is_err());
        let after = stats();
        assert_eq!(after.live_checkouts, 0, "drop guards must unwind");
        assert_eq!(after.live_elems, 0);
        // The arena is still usable and hands out clean checkouts.
        with_arena_f32(128, |s| {
            assert_eq!(s.len(), 128);
            s.fill(0.0);
        });
        assert!(after.total_checkouts >= before.total_checkouts + 2);
    }

    #[test]
    fn oversized_checkout_gets_its_own_block() {
        let big = 3 * MIN_BLOCK_ELEMS;
        with_arena_f32(big, |s| {
            assert_eq!(s.len(), big);
            s[big - 1] = 2.0;
        });
        assert_eq!(stats().live_elems, 0);
    }
}
