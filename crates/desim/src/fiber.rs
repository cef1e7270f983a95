//! Stackful fibers: the user-space context-switch primitive behind the
//! `fibers` execution backend (see [`crate::Backend`]).
//!
//! A [`Fiber`] is a guard-paged stack plus a saved stack pointer. Switching
//! between two execution contexts is a single call to a tiny assembly
//! routine that saves the callee-saved registers on the current stack,
//! stores the stack pointer, and restores the other context's — no futex,
//! no syscall, no kernel involvement. On the 1-core reference container
//! this turns the scheduler→thread hand-off from a ~1 µs park/unpark round
//! trip into a ~10 ns register shuffle.
//!
//! The primitive is vendored in-tree (no external crate): `global_asm!`
//! blocks for x86_64 and aarch64 Linux, and direct `extern "C"`
//! declarations of `mmap`/`mprotect`/`madvise`/`munmap` for the
//! guard-paged stacks (std already links libc, so the symbols are always
//! available).
//!
//! # Stack reuse
//!
//! A dropped stack goes back to a process-wide pool (at most
//! [`FIBER_STACK_POOL_CAP`] stacks) with its usable pages released by
//! `madvise(MADV_DONTNEED)`, and the next fiber asking for the same length
//! takes it from there. A reused stack is indistinguishable from a fresh
//! one — same guard page, zero-filled pages on first touch, nothing
//! resident while it waits — but costs one syscall per thread instead of
//! three (`mmap`, `mprotect`, `munmap`). Chaos sweeps build and drop
//! thousands of worlds of about 18 threads each and pay that cost for
//! every one.
//!
//! # Safety model
//!
//! The simulator's strict alternation — at any instant exactly one party
//! runs: the scheduler *or* one simulated thread — is what makes the raw
//! pointer and `UnsafeCell` traffic here sound. A context's save slot is
//! only written by the context itself (as it suspends) and only read by
//! the single party that resumes it; there is never a concurrent reader.
//!
//! # Teardown
//!
//! Fibers unwind with the same `ShutdownUnwind` payload as OS-thread-backed
//! simulated threads; each fiber's entry has a `catch_unwind` boundary, so
//! the unwind never crosses the assembly switch. One corner differs from
//! the OS backend: `std::thread::panicking()` is per *OS thread*, so if a
//! `Simulation` is dropped while its host thread is already unwinding a
//! panic that did **not** come from the simulator, fibers resumed for
//! shutdown observe `panicking() == true` and tear down via benign returns
//! (closed channels, elapsed timeouts) rather than `ShutdownUnwind`. The
//! scheduler avoids the common instance of this by shutting the simulation
//! down *before* re-raising a simulated thread's panic.

#![allow(unsafe_code)]

use std::cell::{Cell, UnsafeCell};

/// Whether this target supports the fiber backend (64-bit Linux on
/// x86_64 or aarch64 — the architectures the vendored switch covers).
pub(crate) const SUPPORTED: bool = cfg!(all(
    target_os = "linux",
    target_pointer_width = "64",
    any(target_arch = "x86_64", target_arch = "aarch64")
));

/// Default usable stack size for fiber-backed simulated threads. The
/// mapping is lazy (anonymous mmap), so untouched pages cost only address
/// space; 1 MiB matches what the deepest workspace workloads (TSP branch
/// and bound, Orca marshalling) need with a wide margin.
pub(crate) const DEFAULT_STACK_SIZE: usize = 1 << 20;

/// Most fiber stacks the process keeps for reuse (see "Stack reuse" in the
/// module docs). A pooled stack holds address space and two mappings but
/// no resident pages; stacks dropped beyond this bound are unmapped. 1024
/// covers every world short of a fleet (a chaos world has about 18
/// threads).
pub const FIBER_STACK_POOL_CAP: usize = 1024;

/// A suspended execution context's save slot: the stack pointer written by
/// `desim_fiber_switch` when the context suspends.
///
/// `Sync`/`Send` are asserted because strict alternation serializes all
/// access (see module docs): the slot is written by the suspending context
/// and read by the one party resuming it, never concurrently.
pub(crate) struct ContextCell(UnsafeCell<usize>);

unsafe impl Send for ContextCell {}
unsafe impl Sync for ContextCell {}

impl ContextCell {
    pub(crate) const fn new() -> Self {
        ContextCell(UnsafeCell::new(0))
    }

    /// Raw pointer to the saved stack-pointer word.
    pub(crate) fn slot(&self) -> *mut usize {
        self.0.get()
    }
}

#[cfg(all(
    target_os = "linux",
    target_pointer_width = "64",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    // ---------------------------------------------------------------
    // Context switch, x86_64 SysV: save the callee-saved registers on
    // the current stack, publish rsp into `*save`, adopt `new_sp`, and
    // restore. The boot thunk is what a freshly crafted stack "returns"
    // into: it moves the Fiber pointer (staged in the r12 slot) into the
    // first-argument register and calls the Rust entry.
    // ---------------------------------------------------------------
    #[cfg(target_arch = "x86_64")]
    core::arch::global_asm!(
        r#"
        .text
        .globl desim_fiber_switch
        .hidden desim_fiber_switch
        .type desim_fiber_switch, @function
        .balign 16
desim_fiber_switch:
        .cfi_startproc
        push rbp
        push rbx
        push r12
        push r13
        push r14
        push r15
        mov qword ptr [rdi], rsp
        mov rsp, rsi
        pop r15
        pop r14
        pop r13
        pop r12
        pop rbx
        pop rbp
        ret
        .cfi_endproc
        .size desim_fiber_switch, . - desim_fiber_switch

        .globl desim_fiber_boot
        .hidden desim_fiber_boot
        .type desim_fiber_boot, @function
        .balign 16
desim_fiber_boot:
        mov rdi, r12
        call desim_fiber_entry
        ud2
        .size desim_fiber_boot, . - desim_fiber_boot
        "#
    );

    // ---------------------------------------------------------------
    // Context switch, aarch64 AAPCS64: x19–x28, fp/lr, d8–d15 in a
    // 160-byte frame. The boot thunk receives the Fiber pointer in the
    // x19 slot and the thunk address in the x30 slot.
    // ---------------------------------------------------------------
    #[cfg(target_arch = "aarch64")]
    core::arch::global_asm!(
        r#"
        .text
        .globl desim_fiber_switch
        .hidden desim_fiber_switch
        .type desim_fiber_switch, %function
        .balign 16
desim_fiber_switch:
        sub sp, sp, #160
        stp x19, x20, [sp, #0]
        stp x21, x22, [sp, #16]
        stp x23, x24, [sp, #32]
        stp x25, x26, [sp, #48]
        stp x27, x28, [sp, #64]
        stp x29, x30, [sp, #80]
        stp d8,  d9,  [sp, #96]
        stp d10, d11, [sp, #112]
        stp d12, d13, [sp, #128]
        stp d14, d15, [sp, #144]
        mov x9, sp
        str x9, [x0]
        mov sp, x1
        ldp x19, x20, [sp, #0]
        ldp x21, x22, [sp, #16]
        ldp x23, x24, [sp, #32]
        ldp x25, x26, [sp, #48]
        ldp x27, x28, [sp, #64]
        ldp x29, x30, [sp, #80]
        ldp d8,  d9,  [sp, #96]
        ldp d10, d11, [sp, #112]
        ldp d12, d13, [sp, #128]
        ldp d14, d15, [sp, #144]
        add sp, sp, #160
        ret
        .size desim_fiber_switch, . - desim_fiber_switch

        .globl desim_fiber_boot
        .hidden desim_fiber_boot
        .type desim_fiber_boot, %function
        .balign 16
desim_fiber_boot:
        mov x0, x19
        bl desim_fiber_entry
        brk #0x1
        .size desim_fiber_boot, . - desim_fiber_boot
        "#
    );

    extern "C" {
        /// Saves the current context's callee-saved state, writes its
        /// stack pointer to `*save`, and resumes the context whose stack
        /// pointer is `new_sp`. Returns when something switches back.
        fn desim_fiber_switch(save: *mut usize, new_sp: usize);
        fn desim_fiber_boot();
    }

    /// Minimal libc surface for guard-paged stacks. std links libc, so
    /// these glibc symbols are always present; the constants are the
    /// Linux ABI values (identical on x86_64 and aarch64).
    mod sys {
        use core::ffi::c_void;

        extern "C" {
            pub fn mmap(
                addr: *mut c_void,
                len: usize,
                prot: i32,
                flags: i32,
                fd: i32,
                offset: i64,
            ) -> *mut c_void;
            pub fn munmap(addr: *mut c_void, len: usize) -> i32;
            pub fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
            pub fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
            pub fn sysconf(name: i32) -> i64;
        }

        pub const PROT_NONE: i32 = 0;
        pub const PROT_READ: i32 = 0x1;
        pub const PROT_WRITE: i32 = 0x2;
        pub const MAP_PRIVATE: i32 = 0x2;
        pub const MAP_ANONYMOUS: i32 = 0x20;
        pub const MAP_STACK: i32 = 0x20000;
        pub const MADV_DONTNEED: i32 = 4;
        pub const _SC_PAGESIZE: i32 = 30;
    }

    fn page_size() -> usize {
        use std::sync::OnceLock;
        static PAGE: OnceLock<usize> = OnceLock::new();
        *PAGE.get_or_init(|| {
            let p = unsafe { sys::sysconf(sys::_SC_PAGESIZE) };
            assert!(p > 0, "sysconf(_SC_PAGESIZE) failed");
            p as usize
        })
    }

    /// Free stacks as `(base, len)` mappings in `stacks[..len]`, the most
    /// recently dropped last. Every entry's usable pages were released
    /// with `MADV_DONTNEED`, and its guard page is still `PROT_NONE`.
    ///
    /// A fixed array rather than a `Vec`: a block the pool allocated
    /// mid-run would stay live at the top of the malloc heap and keep the
    /// memory freed below it resident (a quarter MiB of extra peak RSS
    /// over the Table 3 worlds).
    struct FreeList {
        len: usize,
        stacks: [(usize, usize); FIBER_STACK_POOL_CAP],
    }

    impl FreeList {
        /// Removes the most recently pooled stack of `len` bytes and
        /// returns its base.
        fn take(&mut self, len: usize) -> Option<usize> {
            let i = self.stacks[..self.len]
                .iter()
                .rposition(|&(_, l)| l == len)?;
            let base = self.stacks[i].0;
            self.len -= 1;
            self.stacks[i] = self.stacks[self.len];
            Some(base)
        }
    }

    struct StackPool(Mutex<FreeList>);

    impl StackPool {
        const fn new() -> StackPool {
            StackPool(Mutex::new(FreeList {
                len: 0,
                stacks: [(0, 0); FIBER_STACK_POOL_CAP],
            }))
        }

        /// The free list. No update can panic halfway, so a lock poisoned
        /// by a panicking holder still guards a valid list.
        fn free(&self) -> MutexGuard<'_, FreeList> {
            self.0.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// The pool every fiber stack of the process comes from and returns to.
    static STACKS: StackPool = StackPool::new();

    /// An anonymous mapping of `usable + guard page` bytes. The lowest
    /// page is `PROT_NONE`: stacks grow down, so overflow hits the guard
    /// and faults instead of silently corrupting the neighbouring
    /// allocation. Returned to its pool on drop, or unmapped when the
    /// pool is full.
    struct FiberStack {
        base: *mut u8,
        len: usize,
        pool: &'static StackPool,
    }

    impl FiberStack {
        fn new(stack_size: usize) -> FiberStack {
            FiberStack::take(&STACKS, stack_size)
        }

        /// A stack of `stack_size` usable bytes, rounded up to whole
        /// pages, from `pool`; mapped fresh only when the pool holds no
        /// stack of that length.
        fn take(pool: &'static StackPool, stack_size: usize) -> FiberStack {
            let page = page_size();
            let usable = stack_size.max(page).div_ceil(page) * page;
            let len = usable + page;
            let pooled = pool.free().take(len);
            let base = pooled.unwrap_or_else(|| map_stack(len, page));
            FiberStack {
                base: base as *mut u8,
                len,
                pool,
            }
        }

        /// One past the highest usable byte (stacks grow down from here).
        fn top(&self) -> usize {
            self.base as usize + self.len
        }
    }

    /// Maps `len` bytes whose lowest `page` is the guard; returns the base.
    fn map_stack(len: usize, page: usize) -> usize {
        // SAFETY: an anonymous private mapping at an address of the
        // kernel's choosing aliases nothing; the result is checked below.
        let base = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_PRIVATE | sys::MAP_ANONYMOUS | sys::MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            base as isize != -1 && !base.is_null(),
            "fiber stack mmap({len}) failed"
        );
        // SAFETY: the lowest page of the mapping just created, which
        // nothing references yet.
        let rc = unsafe { sys::mprotect(base, page, sys::PROT_NONE) };
        assert_eq!(rc, 0, "fiber stack guard mprotect failed");
        base as usize
    }

    impl Drop for FiberStack {
        fn drop(&mut self) {
            let page = page_size();
            let mut free = self.pool.free();
            if free.len < FIBER_STACK_POOL_CAP {
                // SAFETY: the usable part of a mapping this stack owns.
                // Its fiber never runs again (a `Fiber` drops only after
                // its final switch-out or without ever starting), so no
                // live frame sits in the pages released here; the guard
                // page below them is left as it is.
                let rc = unsafe {
                    sys::madvise(
                        self.base.add(page).cast(),
                        self.len - page,
                        sys::MADV_DONTNEED,
                    )
                };
                if rc == 0 {
                    let at = free.len;
                    free.stacks[at] = (self.base as usize, self.len);
                    free.len += 1;
                    return;
                }
            }
            drop(free);
            // SAFETY: the whole mapping this stack owns, which nothing
            // references any more (see above).
            unsafe {
                sys::munmap(self.base.cast(), self.len);
            }
        }
    }

    /// The closure a fiber runs. It returns the scheduler's [`ContextCell`]
    /// slot so the final switch-out happens *after* every capture (notably
    /// the `Arc<Core>`) has been dropped — otherwise a finished fiber's
    /// dead stack would keep the core alive in a cycle.
    pub(crate) type EntryFn = Box<dyn FnOnce() -> *mut usize + 'static>;

    /// A simulated thread's user-space execution context: guard-paged
    /// stack, saved stack pointer, and the grant word the resuming party
    /// writes before switching in (mirrors the OS backend's `Conduit`
    /// kind byte — `GRANT_RUN` / `GRANT_SHUTDOWN`).
    ///
    /// `Send` is asserted so `Box<Fiber>` can sit inside the core's
    /// thread table (which is behind a `Mutex`); actual execution and all
    /// cell access is serialized by strict alternation.
    pub(crate) struct Fiber {
        sp: UnsafeCell<usize>,
        grant: Cell<u8>,
        entry: UnsafeCell<Option<EntryFn>>,
        stack: FiberStack,
    }

    unsafe impl Send for Fiber {}

    impl Fiber {
        /// Creates a fiber whose first resume runs `entry` from the top
        /// of a fresh guard-paged stack.
        pub(crate) fn new(stack_size: usize, entry: EntryFn) -> Box<Fiber> {
            let fiber = Box::new(Fiber {
                sp: UnsafeCell::new(0),
                grant: Cell::new(0),
                entry: UnsafeCell::new(Some(entry)),
                stack: FiberStack::new(stack_size),
            });
            let arg = &*fiber as *const Fiber as usize;
            unsafe {
                *fiber.sp.get() = init_stack(fiber.stack.top(), arg);
            }
            fiber
        }

        /// The saved-stack-pointer slot for [`switch`].
        pub(crate) fn sp_slot(&self) -> *mut usize {
            self.sp.get()
        }

        /// Stages the grant kind the fiber will observe when it resumes.
        pub(crate) fn set_grant(&self, kind: u8) {
            self.grant.set(kind);
        }

        /// The grant kind staged by whoever resumed this fiber.
        pub(crate) fn grant(&self) -> u8 {
            self.grant.get()
        }
    }

    /// Crafts the initial stack image so that restoring it "returns" into
    /// `desim_fiber_boot` with the `Fiber` pointer in a callee-saved slot.
    #[cfg(target_arch = "x86_64")]
    unsafe fn init_stack(top: usize, arg: usize) -> usize {
        // Layout (ascending): r15 r14 r13 r12 rbx rbp <boot return addr>.
        // After the six pops and `ret`, rsp == top (16-aligned); boot's
        // `call` then gives the entry rsp ≡ 8 (mod 16), the SysV ABI's
        // at-function-entry alignment.
        let top = top & !0xf;
        let sp = top - 7 * 8;
        let slots = sp as *mut usize;
        for i in 0..6 {
            slots.add(i).write(0);
        }
        slots.add(3).write(arg); // popped into r12
        slots.add(6).write(desim_fiber_boot as *const () as usize);
        sp
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn init_stack(top: usize, arg: usize) -> usize {
        // One 160-byte restore frame: x19 gets the Fiber pointer, the
        // x30 slot (offset 88) the boot thunk; everything else zero.
        // After the restore sp == top (16-aligned, as AAPCS64 requires).
        let top = top & !0xf;
        let sp = top - 160;
        let slots = sp as *mut usize;
        for i in 0..20 {
            slots.add(i).write(0);
        }
        slots.write(arg); // x19
        slots.add(11).write(desim_fiber_boot as *const () as usize); // x30
        sp
    }

    /// Suspends the context owning `save` and resumes the one saved in
    /// `*resume`. Returns when something switches back into `save`.
    ///
    /// # Safety
    ///
    /// `save` must be the running context's own slot and `*resume` a
    /// stack pointer produced by [`init_stack`] or a prior suspension;
    /// strict alternation must guarantee no other party touches either
    /// slot concurrently.
    pub(crate) unsafe fn switch(save: *mut usize, resume: *mut usize) {
        desim_fiber_switch(save, *resume);
    }

    /// First (and only) frame of every fiber. Runs the entry closure,
    /// which returns the scheduler slot to switch out through once all
    /// its captures are dropped. A finished fiber must never be resumed
    /// again; the trailing `unreachable!` aborts (unwind out of an
    /// `extern "C"` frame) if the scheduler ever violates that.
    #[no_mangle]
    extern "C" fn desim_fiber_entry(fiber: *mut Fiber) -> ! {
        let sched_slot = {
            let entry = unsafe { (*(*fiber).entry.get()).take().expect("fiber started twice") };
            entry()
        };
        unsafe {
            desim_fiber_switch((*fiber).sp.get(), *sched_slot);
        }
        unreachable!("finished fiber resumed");
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// Raw primitive smoke test: a fiber that bounces control back
        /// and forth with its spawner, then finishes.
        #[test]
        fn raw_switch_round_trips() {
            use std::sync::atomic::{AtomicUsize, Ordering};
            use std::sync::Arc;

            static MAIN_CTX: ContextCell = ContextCell::new();
            let hits = Arc::new(AtomicUsize::new(0));
            let hits2 = Arc::clone(&hits);

            // The entry bumps the counter, yields back to main, bumps
            // again, and returns main's slot for its final switch-out.
            struct SelfSp(*mut usize);
            unsafe impl Send for SelfSp {}
            let self_sp = Arc::new(std::sync::Mutex::new(SelfSp(std::ptr::null_mut())));
            let self_sp2 = Arc::clone(&self_sp);

            let fiber = Fiber::new(64 * 1024, {
                Box::new(move || {
                    hits2.fetch_add(1, Ordering::Relaxed);
                    let my_sp = self_sp2.lock().unwrap().0;
                    unsafe { switch(my_sp, MAIN_CTX.slot()) };
                    hits2.fetch_add(1, Ordering::Relaxed);
                    MAIN_CTX.slot()
                })
            });
            self_sp.lock().unwrap().0 = fiber.sp_slot();

            unsafe { switch(MAIN_CTX.slot(), fiber.sp_slot()) };
            assert_eq!(hits.load(Ordering::Relaxed), 1);
            unsafe { switch(MAIN_CTX.slot(), fiber.sp_slot()) };
            assert_eq!(hits.load(Ordering::Relaxed), 2);
        }

        /// The permission field (`rw-p`, `---p`, …) of the
        /// `/proc/self/maps` line whose range holds `addr`.
        fn perms_at(addr: usize) -> Option<String> {
            let maps = std::fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps");
            maps.lines().find_map(|line| {
                let (range, rest) = line.split_once(' ')?;
                let (lo, hi) = range.split_once('-')?;
                let lo = usize::from_str_radix(lo, 16).ok()?;
                let hi = usize::from_str_radix(hi, 16).ok()?;
                (lo <= addr && addr < hi).then(|| rest.split(' ').next().unwrap_or("").to_string())
            })
        }

        /// Guard page: the mapping's lowest page must reject writes. We
        /// check its protection in `/proc/self/maps` (a fault test would
        /// take the process down).
        #[test]
        fn stack_has_guard_page() {
            let page = page_size();
            let stack = FiberStack::new(8 * 1024);
            assert_eq!(stack.len % page, 0);
            assert!(stack.len >= 8 * 1024 + page);
            assert_eq!(stack.top() - stack.base as usize, stack.len);
            assert_eq!(perms_at(stack.base as usize).as_deref(), Some("---p"));
            assert_eq!(
                perms_at(stack.base as usize + page).as_deref(),
                Some("rw-p")
            );
        }

        /// Each test below owns a pool, so tests running in parallel (and
        /// their fibers, which use the process-wide pool) cannot take or
        /// evict its stacks.
        #[test]
        fn reused_stack_is_the_same_mapping_zero_filled_behind_its_guard() {
            static POOL: StackPool = StackPool::new();
            let page = page_size();
            let first = FiberStack::take(&POOL, 4 * page);
            let (base, len) = (first.base as usize, first.len);
            // SAFETY: the usable pages of a stack no fiber runs on.
            unsafe { std::ptr::write_bytes(first.base.add(page), 0xa5, len - page) };
            drop(first);
            assert_eq!(POOL.free().len, 1);

            let again = FiberStack::take(&POOL, 4 * page);
            assert_eq!((again.base as usize, again.len), (base, len));
            assert_eq!(POOL.free().len, 0);
            // SAFETY: the same usable pages, now owned by `again`.
            let usable = unsafe { std::slice::from_raw_parts(again.base.add(page), len - page) };
            assert!(
                usable.iter().all(|&b| b == 0),
                "a reused stack must read as zero-filled"
            );
            assert_eq!(perms_at(base).as_deref(), Some("---p"));
            assert_eq!(perms_at(base + page).as_deref(), Some("rw-p"));
        }

        #[test]
        fn stacks_of_different_lengths_never_mix() {
            static POOL: StackPool = StackPool::new();
            let page = page_size();
            let small = FiberStack::take(&POOL, 2 * page);
            let small_base = small.base;
            drop(small);

            let big = FiberStack::take(&POOL, 3 * page);
            assert_ne!(big.base, small_base);
            assert_eq!(big.len, 4 * page);
            assert_eq!(POOL.free().len, 1, "the small stack still waits");
            drop(big);

            let small = FiberStack::take(&POOL, 2 * page);
            assert_eq!((small.base, small.len), (small_base, 3 * page));
            assert_eq!(POOL.free().len, 1, "the big stack still waits");
        }

        #[test]
        fn pool_never_exceeds_its_cap() {
            static POOL: StackPool = StackPool::new();
            let page = page_size();
            let stacks: Vec<FiberStack> = (0..FIBER_STACK_POOL_CAP + 8)
                .map(|_| FiberStack::take(&POOL, page))
                .collect();
            let kept: Vec<usize> = stacks[..FIBER_STACK_POOL_CAP]
                .iter()
                .map(|s| s.base as usize)
                .collect();
            drop(stacks);
            let free = POOL.free();
            assert_eq!(free.len, FIBER_STACK_POOL_CAP);
            assert!(free.stacks[..free.len]
                .iter()
                .map(|&(base, _)| base)
                .eq(kept));
        }
    }
}

#[cfg(all(
    target_os = "linux",
    target_pointer_width = "64",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(crate) use imp::{switch, EntryFn, Fiber};

// ------------------------------------------------------------------
// Stub for targets without a vendored switch. Backend resolution never
// selects `Backend::Fibers` when `SUPPORTED` is false, so these bodies
// are unreachable; they exist only so `core.rs` compiles everywhere.
// ------------------------------------------------------------------
#[cfg(not(all(
    target_os = "linux",
    target_pointer_width = "64",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    pub(crate) type EntryFn = Box<dyn FnOnce() -> *mut usize + 'static>;

    pub(crate) struct Fiber {
        _private: (),
    }

    impl Fiber {
        pub(crate) fn new(_stack_size: usize, _entry: EntryFn) -> Box<Fiber> {
            unreachable!("fiber backend is not supported on this target")
        }

        pub(crate) fn sp_slot(&self) -> *mut usize {
            unreachable!("fiber backend is not supported on this target")
        }

        pub(crate) fn set_grant(&self, _kind: u8) {
            unreachable!("fiber backend is not supported on this target")
        }

        pub(crate) fn grant(&self) -> u8 {
            unreachable!("fiber backend is not supported on this target")
        }
    }

    pub(crate) unsafe fn switch(_save: *mut usize, _resume: *mut usize) {
        unreachable!("fiber backend is not supported on this target")
    }
}

#[cfg(not(all(
    target_os = "linux",
    target_pointer_width = "64",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub(crate) use imp::{switch, EntryFn, Fiber};
