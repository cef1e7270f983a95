//! Stackful fibers: every simulated thread runs on one, switched in user
//! space on the scheduler's OS thread.
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
//! declarations of `mmap`/`mprotect`/`munmap` for the
//! guard-paged stacks (std already links libc, so the symbols are always
//! available).
//!
//! # Stack reuse
//!
//! A dropped stack goes back, as it is, to a process-wide pool (at most
//! [`FIBER_STACK_POOL_CAP`] stacks), and the next fiber takes it from there
//! (every stack has the one length [`STACK_SIZE`] plus its guard page). A
//! reused stack keeps its guard page and the pages its last thread touched,
//! so the next thread runs on resident top pages instead of faulting them
//! in, and the reuse costs no syscall where a fresh stack costs three
//! (`mmap`, `mprotect`, `munmap`). Chaos sweeps build and drop thousands of
//! worlds of about 18 threads each and would pay that cost for every one.
//!
//! The pages are not zero-filled again, and no code can tell: `init_stack`
//! writes the boot frame before anything runs on the stack, and compiled
//! code never reads a stack slot it has not written.
//!
//! # Safety model
//!
//! The simulator's strict alternation — at any instant exactly one party
//! runs: the scheduler *or* one simulated thread — is what makes the raw
//! pointer and `UnsafeCell` traffic here sound. A context's save slot is
//! only written by the context itself (as it suspends) and only read by
//! the single party that resumes it; there is never a concurrent reader.
//!
//! Alternation holds per lane, and a thread runs only on its processor's
//! lane: the lane is part of its `ProcId`, and every spawn checks it, so
//! no fiber is ever switched to by another lane's scheduler or runner
//! thread.
//!
//! The same model makes `crate::turn::TurnCell` sound, the lock-free cell
//! that holds each lane's scheduler state and each channel's queue. Call
//! the party allowed to touch a lane's cells the *turn holder*. It is, at
//! any instant, exactly one of:
//!
//! - inside a window, the lane's runner or one of the lane's fibers, which
//!   pass the turn to each other by strict alternation on one OS thread;
//! - between windows, the windowed driver, which flushes cross-lane links
//!   into lanes while every runner waits at the `WindowGate` — its
//!   release/acquire edges (`done`/`wait_done`, `open`/`wait_open`) order
//!   each window's accesses before the driver's and the driver's before
//!   the next window's, so a lane may move between OS threads;
//! - outside a run, the owner of the `&mut Simulation` (or of the
//!   `&Simulation`, which is `!Sync`, so one OS thread at a time).
//!
//! The cell's flag does not synchronize; it catches a re-entrant borrow by
//! the turn holder itself, where a mutex would deadlock. What must never
//! happen is an access from *off* the turn, and every path that could make
//! one is closed: `ThreadHandle::is_finished` reads the thread's own
//! atomic flag, a cross-lane `join` fails a hard assert before it borrows
//! anything, and a channel binds to the lane of its first operation (one
//! compare-and-swap of its `LaneKey`) and panics on any other lane's
//! operation before it borrows the queue. The cross-lane injector delivers
//! into a channel from inside the destination lane's event loop and passes
//! that lane's key. What lanes do share — the links' `XShared` buffers, a
//! `SimMutex`, the protocol crates' state — keeps real locks.
//!
//! Every `unsafe` block and impl below says which part of this model (or
//! which ownership fact) makes it sound, in a `SAFETY` comment.
//!
//! # Teardown
//!
//! A daemon parked in a channel receive returns from its body; every other
//! fiber unwinds with the `ShutdownUnwind` payload. Each fiber's entry has
//! a `catch_unwind` boundary, so the unwind never crosses the assembly
//! switch. Whether a thread still has to raise it is its own flag, not the
//! host thread's `std::thread::panicking()`, which every fiber shares (see
//! `Ctx::shutdown_unwind` and `Ctx::shutdown_recv`).

#![allow(unsafe_code)]

use std::cell::{Cell, UnsafeCell};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Usable stack size of every simulated thread's fiber, a whole number of
/// pages on every supported host. The mapping is lazy (anonymous mmap), so
/// untouched pages cost only address space; 1 MiB matches what the deepest
/// workspace workloads (TSP branch and bound, Orca marshalling) need with
/// a wide margin.
const STACK_SIZE: usize = 1 << 20;

/// Most fiber stacks the process keeps for reuse (see "Stack reuse" in the
/// module docs). A pooled stack holds address space, two mappings and the
/// pages its last thread touched; stacks dropped beyond this bound are
/// unmapped. 1024 covers every world short of a fleet (a chaos world has
/// about 18 threads).
pub const FIBER_STACK_POOL_CAP: usize = 1024;

/// A suspended execution context's save slot: the stack pointer written by
/// `desim_fiber_switch` when the context suspends.
///
/// `Sync`/`Send` are asserted because strict alternation serializes all
/// access (see module docs): the slot is written by the suspending context
/// and read by the one party resuming it, never concurrently.
pub(crate) struct ContextCell(UnsafeCell<usize>);

// SAFETY: the cell holds a plain word; strict alternation (module docs,
// "Safety model") serializes every read and write of it, so sharing or
// moving it between OS threads never races.
unsafe impl Send for ContextCell {}
// SAFETY: as for `Send` above.
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
        pub fn sysconf(name: i32) -> i64;
    }

    pub const PROT_NONE: i32 = 0;
    pub const PROT_READ: i32 = 0x1;
    pub const PROT_WRITE: i32 = 0x2;
    pub const MAP_PRIVATE: i32 = 0x2;
    pub const MAP_ANONYMOUS: i32 = 0x20;
    pub const MAP_STACK: i32 = 0x20000;
    pub const _SC_PAGESIZE: i32 = 30;
}

fn page_size() -> usize {
    use std::sync::OnceLock;
    static PAGE: OnceLock<usize> = OnceLock::new();
    *PAGE.get_or_init(|| {
        // SAFETY: `sysconf` reads a process constant and touches no
        // memory of ours.
        let p = unsafe { sys::sysconf(sys::_SC_PAGESIZE) };
        assert!(p > 0, "sysconf(_SC_PAGESIZE) failed");
        p as usize
    })
}

/// The bases of free stacks in `bases[..len]`, the most recently dropped
/// last. Every entry's guard page is still `PROT_NONE`; its usable pages
/// hold whatever its last thread left there.
///
/// A fixed array rather than a `Vec`: a block the pool allocated
/// mid-run would stay live at the top of the malloc heap and keep the
/// memory freed below it resident (a quarter MiB of extra peak RSS
/// over the Table 3 worlds).
struct FreeList {
    len: usize,
    bases: [usize; FIBER_STACK_POOL_CAP],
}

impl FreeList {
    /// Removes the most recently pooled stack and returns its base.
    fn take(&mut self) -> Option<usize> {
        self.len = self.len.checked_sub(1)?;
        Some(self.bases[self.len])
    }
}

struct StackPool(Mutex<FreeList>);

impl StackPool {
    const fn new() -> StackPool {
        StackPool(Mutex::new(FreeList {
            len: 0,
            bases: [0; FIBER_STACK_POOL_CAP],
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

/// An anonymous mapping of [`STACK_SIZE`] bytes above a guard page. The
/// guard is `PROT_NONE`: stacks grow down, so overflow hits the guard
/// and faults instead of silently corrupting the neighbouring
/// allocation. Returned to its pool on drop, or unmapped when the
/// pool is full.
struct FiberStack {
    base: *mut u8,
    pool: &'static StackPool,
}

/// Bytes of one stack mapping: the usable pages and the guard page.
fn stack_len() -> usize {
    STACK_SIZE + page_size()
}

impl FiberStack {
    fn new() -> FiberStack {
        FiberStack::take(&STACKS)
    }

    /// A stack from `pool`, mapped fresh only when the pool is empty.
    fn take(pool: &'static StackPool) -> FiberStack {
        let pooled = pool.free().take();
        let base = pooled.unwrap_or_else(|| map_stack(stack_len(), page_size()));
        FiberStack {
            base: base as *mut u8,
            pool,
        }
    }

    /// One past the highest usable byte (stacks grow down from here).
    fn top(&self) -> usize {
        self.base as usize + stack_len()
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
        "fiber stack mmap({len}) failed: {} (too many live fibers? see vm.max_map_count)",
        std::io::Error::last_os_error()
    );
    // SAFETY: the lowest page of the mapping just created, which
    // nothing references yet.
    let rc = unsafe { sys::mprotect(base, page, sys::PROT_NONE) };
    assert_eq!(
        rc,
        0,
        "fiber stack guard mprotect failed: {} (each fiber stack is two mappings; \
         raise vm.max_map_count or run fewer fibers at once)",
        std::io::Error::last_os_error()
    );
    base as usize
}

impl Drop for FiberStack {
    fn drop(&mut self) {
        // Its fiber never runs again (a `Fiber` drops only after its final
        // switch-out or without ever starting), so no live frame sits on
        // the stack pooled or unmapped here.
        let mut free = self.pool.free();
        if free.len < FIBER_STACK_POOL_CAP {
            let at = free.len;
            free.bases[at] = self.base as usize;
            free.len += 1;
            return;
        }
        drop(free);
        // SAFETY: the whole mapping this stack owns, which nothing
        // references any more (see above).
        unsafe {
            sys::munmap(self.base.cast(), stack_len());
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
/// writes before switching in (`GRANT_RUN` / `GRANT_SHUTDOWN`).
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

// SAFETY: a fiber is only ever run or touched by the party that holds the
// turn of its lane (module docs, "Safety model"), so moving its box to a
// runner OS thread never lets two parties use its cells at once. Field by
// field: `sp` and `grant` are plain words; `entry` wraps a thread body that
// `Core::spawn_thread` requires to be `Send`; `stack` owns its mapping
// outright.
unsafe impl Send for Fiber {}

impl Fiber {
    /// Creates a fiber whose first resume runs `entry` from the top
    /// of a fresh guard-paged stack.
    pub(crate) fn new(entry: EntryFn) -> Box<Fiber> {
        let fiber = Box::new(Fiber {
            sp: UnsafeCell::new(0),
            grant: Cell::new(0),
            entry: UnsafeCell::new(Some(entry)),
            stack: FiberStack::new(),
        });
        let arg = &*fiber as *const Fiber as usize;
        // SAFETY: the stack was just taken for this fiber and nothing runs
        // on it, so `init_stack` may write its top frame; the `sp` cell is
        // ours alone until the fiber is first resumed.
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
///
/// # Safety
///
/// `top` must be one past the highest usable byte of a stack that no
/// context runs on, with at least one restore frame of writable memory
/// below it.
#[cfg(target_arch = "x86_64")]
unsafe fn init_stack(top: usize, arg: usize) -> usize {
    // Layout (ascending): r15 r14 r13 r12 rbx rbp <boot return addr>.
    // After the six pops and `ret`, rsp == top (16-aligned); boot's
    // `call` then gives the entry rsp ≡ 8 (mod 16), the SysV ABI's
    // at-function-entry alignment.
    let top = top & !0xf;
    let sp = top - 7 * 8;
    let slots = sp as *mut usize;
    // SAFETY: the seven words below `top` lie in the idle stack the
    // caller vouches for, and `sp` is word-aligned.
    unsafe {
        for i in 0..6 {
            slots.add(i).write(0);
        }
        slots.add(3).write(arg); // popped into r12
        slots.add(6).write(desim_fiber_boot as *const () as usize);
    }
    sp
}

/// Crafts the initial stack image so that restoring it "returns" into
/// `desim_fiber_boot` with the `Fiber` pointer in a callee-saved slot.
///
/// # Safety
///
/// As for the x86_64 version.
#[cfg(target_arch = "aarch64")]
unsafe fn init_stack(top: usize, arg: usize) -> usize {
    // One 160-byte restore frame: x19 gets the Fiber pointer, the
    // x30 slot (offset 88) the boot thunk; everything else zero.
    // After the restore sp == top (16-aligned, as AAPCS64 requires).
    let top = top & !0xf;
    let sp = top - 160;
    let slots = sp as *mut usize;
    // SAFETY: the twenty words below `top` lie in the idle stack the
    // caller vouches for, and `sp` is word-aligned.
    unsafe {
        for i in 0..20 {
            slots.add(i).write(0);
        }
        slots.write(arg); // x19
        slots.add(11).write(desim_fiber_boot as *const () as usize); // x30
    }
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
    // SAFETY: the caller's contract above: `*resume` is a valid suspended
    // stack pointer and nobody else touches either slot while we switch.
    unsafe { desim_fiber_switch(save, *resume) };
}

/// First (and only) frame of every fiber. Runs the entry closure,
/// which returns the scheduler slot to switch out through once all
/// its captures are dropped. A finished fiber must never be resumed
/// again; the trailing `unreachable!` aborts (unwind out of an
/// `extern "C"` frame) if the scheduler ever violates that.
#[no_mangle]
extern "C" fn desim_fiber_entry(fiber: *mut Fiber) -> ! {
    let sched_slot = {
        // SAFETY: `fiber` is the live boxed `Fiber` whose stack this frame
        // runs on (`Fiber::new` staged the pointer), and only the running
        // fiber touches its own `entry` cell.
        let entry = unsafe { (*(*fiber).entry.get()).take().expect("fiber started twice") };
        entry()
    };
    // SAFETY: the fiber is still alive (its record outlives the final
    // switch-out), `sp` is its own save slot, and `sched_slot` is the
    // scheduler's, which is suspended in `resume_and_wait` while this
    // fiber holds the turn (strict alternation).
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
        // SAFETY: the pointer is only dereferenced by `switch` on this
        // test's one OS thread.
        unsafe impl Send for SelfSp {}
        let self_sp = Arc::new(std::sync::Mutex::new(SelfSp(std::ptr::null_mut())));
        let self_sp2 = Arc::clone(&self_sp);

        let fiber = Fiber::new({
            Box::new(move || {
                hits2.fetch_add(1, Ordering::Relaxed);
                let my_sp = self_sp2.lock().unwrap().0;
                // SAFETY: `my_sp` is this fiber's own slot, and main is
                // suspended in its switch below.
                unsafe { switch(my_sp, MAIN_CTX.slot()) };
                hits2.fetch_add(1, Ordering::Relaxed);
                MAIN_CTX.slot()
            })
        });
        self_sp.lock().unwrap().0 = fiber.sp_slot();

        // SAFETY: main owns `MAIN_CTX`, and the fiber is fresh (its slot
        // holds `init_stack`'s frame).
        unsafe { switch(MAIN_CTX.slot(), fiber.sp_slot()) };
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        // SAFETY: as above; the fiber is suspended in its own switch.
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
        let stack = FiberStack::new();
        assert_eq!(STACK_SIZE % page, 0);
        assert_eq!(stack.top() - stack.base as usize, STACK_SIZE + page);
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
    fn reused_stack_is_the_same_mapping_behind_its_guard() {
        static POOL: StackPool = StackPool::new();
        let page = page_size();
        let first = FiberStack::take(&POOL);
        let base = first.base as usize;
        // SAFETY: the usable pages of a stack no fiber runs on.
        unsafe { std::ptr::write_bytes(first.base.add(page), 0xa5, STACK_SIZE) };
        drop(first);
        assert_eq!(POOL.free().len, 1);

        let again = FiberStack::take(&POOL);
        assert_eq!(again.base as usize, base);
        assert_eq!(POOL.free().len, 0);
        assert_eq!(perms_at(base).as_deref(), Some("---p"));
        assert_eq!(perms_at(base + page).as_deref(), Some("rw-p"));
        drop(again);
        assert_eq!(POOL.free().len, 1);
    }

    #[test]
    fn pool_never_exceeds_its_cap() {
        static POOL: StackPool = StackPool::new();
        let stacks: Vec<FiberStack> = (0..FIBER_STACK_POOL_CAP + 8)
            .map(|_| FiberStack::take(&POOL))
            .collect();
        let kept: Vec<usize> = stacks[..FIBER_STACK_POOL_CAP]
            .iter()
            .map(|s| s.base as usize)
            .collect();
        drop(stacks);
        let free = POOL.free();
        assert_eq!(free.len, FIBER_STACK_POOL_CAP);
        assert_eq!(free.bases[..free.len], kept[..]);
    }
}
