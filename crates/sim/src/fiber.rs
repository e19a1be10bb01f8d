//! Stackful fibers: the executor behind controlled (model-checker) runs.
//!
//! A [`Fibers`] set runs simulated threads as coroutines on the host
//! thread that created it. Each fiber owns an `mmap`'d stack with a guard
//! page below it. A switch pushes the six SysV callee-saved registers on
//! the running stack, stores `rsp`, loads the target's saved `rsp`, pops
//! its registers and returns into it: passing the turn is a few
//! instructions and no system call. The caller-saved registers, the flags
//! and the vector registers need no saving because the switch is an
//! ordinary `extern "sysv64"` call; the SSE and x87 control words are
//! never changed by Rust code, so every fiber shares the host's.
//!
//! This is the crate's only module with `unsafe` code, and its safe API
//! keeps the invariants those blocks rely on:
//!
//! - Every method that reads or writes the set's state checks that it runs
//!   on the host thread that created the set, so a stack is only ever
//!   entered from that thread and the interior `Cell`s are never shared.
//! - A fiber's stack is reused or unmapped only after the fiber finished:
//!   its entry closure returned or unwound, and the closure with its
//!   captures was dropped before the fiber's last switch. A stack that is
//!   still suspended when the set is dropped is leaked, never freed.
//! - If a fiber panics, [`Fibers::run`] resumes every other suspended
//!   fiber in a poisoned state, so it unwinds from its switch point and
//!   drops what it owns, drops every unstarted entry closure, and then
//!   returns the first panic payload to the host.
//! - Nothing switches while the host thread is panicking
//!   ([`Fibers::unwinding`]), so an unwind never spans a switch and a
//!   second panic can never start while one is in flight.
//!
//! Stacks are 2 MiB like std's threads, because the test suite runs debug
//! builds. They are mapped `MAP_NORESERVE`, so only the pages a fiber
//! touches cost memory, and each host thread keeps a small pool of them
//! so a model checker running thousands of executions maps them once.

use std::any::Any;
use std::arch::naked_asm;
use std::cell::{Cell, RefCell};
use std::ffi::{c_int, c_void};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::ptr::{self, NonNull};

/// Usable bytes of each fiber stack: std's default thread stack size.
const STACK_BYTES: usize = 2 << 20;
/// The inaccessible page below each stack that turns an overflow into a
/// fault instead of a silent overwrite.
const GUARD_BYTES: usize = 4096;
/// Stacks a host thread keeps for reuse: enough for the widest run.
const POOL_CAP: usize = crate::sched::MAX_THREADS;

/// A fiber's body. It returns the fiber to switch to once it has
/// finished and its captures are dropped (`None`: the host).
pub(crate) type Entry = Box<dyn FnOnce() -> Option<usize> + Send>;

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x2_0000;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

/// Save the callee-saved registers and `rsp` of the running context into
/// `*save`, then resume the context whose saved `rsp` is `load`.
///
/// # Safety
///
/// `save` must be writable, and `load` must be an `rsp` saved by this
/// function (or laid out by [`Fibers::spawn`]) on a stack that is mapped
/// and is not executing anywhere.
#[unsafe(naked)]
unsafe extern "sysv64" fn switch_stack(save: *mut usize, load: usize) {
    naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// The first code a fiber runs: [`switch_stack`] "returns" here with the
/// set's shared state in `r12` and the fiber id in `r13`. The CFI marks
/// this frame as the outermost, so backtraces taken inside a fiber stop
/// here instead of walking off the stack.
///
/// # Safety
///
/// Only ever entered through a frame laid out by [`Fibers::spawn`].
#[unsafe(naked)]
unsafe extern "sysv64" fn fiber_entry() -> ! {
    naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, r12",
        "mov rsi, r13",
        "call {main}",
        "ud2",
        ".cfi_endproc",
        main = sym fiber_main,
    )
}

/// Run fiber `id`'s entry closure under `catch_unwind`, then make its last
/// switch. A panic cannot escape: this function is `extern "sysv64"`, so
/// one would abort the process rather than unwind into `fiber_entry`.
extern "sysv64" fn fiber_main(shared: *const Shared, id: usize) -> ! {
    // SAFETY: `spawn` stored a pointer to the boxed `Shared`, which stays
    // put when the `Fibers` value moves. A fiber only runs while the host
    // is inside `Fibers::run`, which borrows the set, so the box is alive
    // whenever this code runs.
    let shared = unsafe { &*shared };
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        let entry = shared.slots[id].entry.take().expect("fiber entered twice");
        // Calling the box consumes it: its captures are dropped here.
        let to = entry();
        shared.check_target(to, id);
        to
    }));
    shared.exit(id, outcome)
}

/// The unwind payload that tears down a fiber resumed after a peer
/// panicked. [`Fibers::run`] never reports it.
struct Poisoned;

/// An identifier for the calling host thread: the address of one of its
/// thread-locals, unique among live threads.
fn host_thread() -> usize {
    thread_local! {
        static MARK: u8 = const { 0 };
    }
    MARK.with(|m| ptr::from_ref(m) as usize)
}

/// One `mmap`'d fiber stack, guard page included.
struct Stack {
    base: NonNull<c_void>,
}

// SAFETY: a `Stack` is plain memory owned by one value; nothing about it
// is tied to the thread that mapped it.
unsafe impl Send for Stack {}

impl Stack {
    const MAP_BYTES: usize = GUARD_BYTES + STACK_BYTES;

    /// A stack from this host thread's pool, or a freshly mapped one.
    fn take() -> Stack {
        POOL.try_with(|p| p.borrow_mut().pop()).ok().flatten().unwrap_or_else(Stack::map)
    }

    fn map() -> Stack {
        // SAFETY: an anonymous private mapping at a kernel-chosen address
        // aliases no existing memory.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                Self::MAP_BYTES,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        let base = match NonNull::new(base) {
            Some(b) if b.as_ptr() as usize != usize::MAX => b,
            _ => panic!("mapping a fiber stack failed: {}", std::io::Error::last_os_error()),
        };
        let stack = Stack { base };
        // SAFETY: the guard page is the first page of the mapping just made.
        if unsafe { mprotect(base.as_ptr(), GUARD_BYTES, PROT_NONE) } != 0 {
            panic!("protecting a fiber guard page failed: {}", std::io::Error::last_os_error());
        }
        #[cfg(test)]
        MAPPED.with(|m| m.set(m.get() + 1));
        stack
    }

    /// One past the highest usable byte; page-aligned, so 16-aligned.
    fn top(&self) -> usize {
        self.base.as_ptr() as usize + Self::MAP_BYTES
    }

    /// Return the stack to this host thread's pool, or unmap it.
    fn recycle(self) {
        let _ = POOL.try_with(move |p| {
            let mut pool = p.borrow_mut();
            if pool.len() < POOL_CAP {
                pool.push(self);
            }
        });
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping is owned by this value and, by the module's
        // invariants, no suspended or running fiber lives on it.
        unsafe { munmap(self.base.as_ptr(), Self::MAP_BYTES) };
    }
}

thread_local! {
    /// Idle fiber stacks of this host thread.
    static POOL: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
    /// Stacks this host thread has mapped.
    #[cfg(test)]
    static MAPPED: Cell<usize> = const { Cell::new(0) };
}

/// Stacks the calling thread has mapped so far.
#[cfg(test)]
pub(crate) fn stacks_mapped() -> usize {
    MAPPED.with(Cell::get)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Not spawned yet: there is nothing to switch to.
    Empty,
    /// Spawned, never entered: its stack holds only the entry frame.
    Unstarted,
    Running,
    /// Switched away from at a switch point.
    Suspended,
    /// Made its last switch; its stack is free.
    Finished,
}

struct Slot {
    sp: Cell<usize>,
    state: Cell<State>,
    entry: Cell<Option<Entry>>,
    stack: Stack,
}

/// The set's state, boxed so the pointer each fiber's entry frame holds
/// stays valid when the [`Fibers`] value moves.
struct Shared {
    owner: usize,
    host_sp: Cell<usize>,
    current: Cell<Option<usize>>,
    poisoned: Cell<bool>,
    panic: Cell<Option<Box<dyn Any + Send>>>,
    slots: Vec<Slot>,
}

impl Shared {
    fn check_owner(&self) {
        assert_eq!(host_thread(), self.owner, "fibers used off the host thread that created them");
    }

    /// Panic unless `to` can be switched to from fiber `from`.
    fn check_target(&self, to: Option<usize>, from: usize) {
        if let Some(t) = to {
            let state = self.slots.get(t).map(|s| s.state.get());
            assert!(
                t != from && matches!(state, Some(State::Unstarted | State::Suspended)),
                "fiber {from} switched to fiber {t} in state {state:?}"
            );
        }
    }

    /// Mark `to` running and return the `rsp` to load for it.
    fn enter(&self, to: Option<usize>) -> usize {
        self.current.set(to);
        match to {
            Some(t) => {
                self.slots[t].state.set(State::Running);
                self.slots[t].sp.get()
            }
            None => self.host_sp.get(),
        }
    }

    /// Switch from the host to fiber `id` and return once some fiber
    /// switches back to the host.
    fn resume(&self, id: usize) {
        debug_assert_eq!(self.current.get(), None, "resume called from a fiber");
        let load = self.enter(Some(id));
        // SAFETY: `id` is unstarted or suspended (callers check its state),
        // so `load` is an entry frame or a saved context on its stack,
        // which is mapped and not executing. The host's context is saved
        // into `host_sp`, which every fiber-to-host switch loads.
        unsafe { switch_stack(self.host_sp.as_ptr(), load) };
    }

    /// Fiber `id`'s last switch, made after its entry closure and every
    /// capture are gone.
    fn exit(&self, id: usize, outcome: std::thread::Result<Option<usize>>) -> ! {
        let load = {
            let to = match outcome {
                Ok(to) => to,
                Err(payload) => {
                    self.poisoned.set(true);
                    if !payload.is::<Poisoned>() {
                        let first = self.panic.take();
                        self.panic.set(first.or(Some(payload)));
                    }
                    None
                }
            };
            self.slots[id].state.set(State::Finished);
            self.enter(if self.poisoned.get() { None } else { to })
        };
        let mut dead = 0usize;
        // SAFETY: `load` is the host's saved context or that of a fiber
        // `check_target` found unstarted or suspended. This stack is never
        // resumed, and it owns nothing: the closure and its captures were
        // dropped, and a panic payload was stored or dropped above.
        unsafe { switch_stack(&mut dead, load) };
        unreachable!("a finished fiber was resumed")
    }
}

/// A set of fibers executed on the host thread that created it.
pub(crate) struct Fibers {
    shared: Box<Shared>,
}

// SAFETY: every method that touches the `Cell`s first asserts that it runs
// on the host thread that created the set, so they are never accessed
// from two threads; `Debug` reads only the slot count, which never changes
// while the set is shared, and `Drop` has exclusive access. The values
// the `Cell`s hold (entry closures, panic payloads, stacks) are `Send`.
unsafe impl Sync for Fibers {}

impl fmt::Debug for Fibers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fibers").field("fibers", &self.shared.slots.len()).finish_non_exhaustive()
    }
}

impl Fibers {
    /// An empty set of `n` fibers owned by the calling host thread.
    pub(crate) fn new(n: usize) -> Self {
        let slots = (0..n)
            .map(|_| Slot {
                sp: Cell::new(0),
                state: Cell::new(State::Empty),
                entry: Cell::new(None),
                stack: Stack::take(),
            })
            .collect();
        Fibers {
            shared: Box::new(Shared {
                owner: host_thread(),
                host_sp: Cell::new(0),
                current: Cell::new(None),
                poisoned: Cell::new(false),
                panic: Cell::new(None),
                slots,
            }),
        }
    }

    /// Give fiber `id` its body. [`Fibers::run`] starts it, or a peer
    /// switches to it; each fiber is spawned exactly once.
    pub(crate) fn spawn(&self, id: usize, entry: Entry) {
        let s = &*self.shared;
        s.check_owner();
        let slot = &s.slots[id];
        assert_eq!(slot.state.get(), State::Empty, "fiber {id} spawned twice");
        slot.entry.set(Some(entry));
        // The entry frame `switch_stack` pops: r15, r14, r13, r12, rbx, rbp,
        // then the return address. After the `ret` the stack pointer is
        // `top`, 16-aligned, as `fiber_entry`'s `call` requires.
        let sp = slot.stack.top() - 7 * 8;
        let frame = [0, 0, id, ptr::from_ref(s) as usize, 0, 0, fiber_entry as *const () as usize];
        // SAFETY: the seven words below `top` lie in the stack's writable
        // mapping, and no fiber runs on it: the slot was never spawned.
        unsafe { ptr::copy_nonoverlapping(frame.as_ptr(), sp as *mut usize, frame.len()) };
        slot.sp.set(sp);
        slot.state.set(State::Unstarted);
    }

    /// From inside fiber `from`, suspend it and run `to` (`None`: the
    /// host). Returns when some context switches back to `from`; panics
    /// with a poisoned payload instead if a peer panicked meanwhile, so
    /// `from` unwinds and drops what it owns. Does not switch at all while
    /// [`Fibers::unwinding`].
    pub(crate) fn switch(&self, from: usize, to: Option<usize>) {
        if self.unwinding() {
            return;
        }
        let s = &*self.shared;
        assert_eq!(s.current.get(), Some(from), "fiber {from} switched while not running");
        if to == Some(from) {
            return;
        }
        s.check_target(to, from);
        s.slots[from].state.set(State::Suspended);
        let load = s.enter(to);
        // SAFETY: `from` is the running fiber, so this saves its context
        // on its own stack. `load` is the host's saved context (the host is
        // inside `run` while any fiber runs) or the context of a fiber
        // `check_target` found unstarted or suspended.
        unsafe { switch_stack(s.slots[from].sp.as_ptr(), load) };
        if s.poisoned.get() {
            panic::resume_unwind(Box::new(Poisoned));
        }
    }

    /// Whether the running fiber must not switch: a peer panicked, or this
    /// fiber is itself unwinding. A fiber that is unwinding finishes its
    /// unwind without passing the turn, so no other fiber ever runs while
    /// the host thread is panicking.
    pub(crate) fn unwinding(&self) -> bool {
        self.shared.check_owner();
        self.shared.poisoned.get() || std::thread::panicking()
    }

    /// Run the set from its host thread. Starts the unstarted fibers in id
    /// order, each running until some fiber switches back to the host, and
    /// returns once every fiber has finished.
    ///
    /// If a fiber panics, every suspended fiber is resumed poisoned and
    /// unwinds, every unstarted one is dropped, and the first panic payload
    /// is returned. A fiber left suspended with nobody to resume it counts
    /// as a panic too.
    pub(crate) fn run(&self) -> Result<(), Box<dyn Any + Send>> {
        let s = &*self.shared;
        s.check_owner();
        assert_eq!(s.current.get(), None, "Fibers::run called from one of its own fibers");
        if let Some(id) = s.slots.iter().position(|slot| slot.state.get() == State::Empty) {
            panic!("fiber {id} was never spawned");
        }
        for (id, slot) in s.slots.iter().enumerate() {
            if s.poisoned.get() {
                break;
            }
            if slot.state.get() == State::Unstarted {
                s.resume(id);
            }
        }
        if !s.poisoned.get() && s.slots.iter().any(|slot| slot.state.get() != State::Finished) {
            s.poisoned.set(true);
            s.panic.set(Some(Box::new("fibers left suspended with no fiber to run them")));
        }
        if !s.poisoned.get() {
            return Ok(());
        }
        for (id, slot) in s.slots.iter().enumerate() {
            match slot.state.get() {
                State::Unstarted => {
                    drop(slot.entry.take());
                    slot.state.set(State::Finished);
                }
                State::Suspended => s.resume(id),
                State::Empty | State::Running | State::Finished => {}
            }
        }
        Err(s.panic.take().unwrap_or_else(|| Box::new("fiber panicked")))
    }
}

impl Drop for Fibers {
    fn drop(&mut self) {
        for slot in std::mem::take(&mut self.shared.slots) {
            match slot.state.get() {
                State::Empty | State::Unstarted | State::Finished => slot.stack.recycle(),
                // Its frames may own anything, even memory other threads
                // borrow: leak the stack rather than free it under them.
                State::Running | State::Suspended => std::mem::forget(slot.stack),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn round_robin_over_64_fibers() {
        const N: usize = 64;
        const LAPS: usize = 5;
        let fibers = Arc::new(Fibers::new(N));
        let order = Arc::new(Mutex::new(Vec::new()));
        for id in 0..N {
            let (f, order) = (Arc::clone(&fibers), Arc::clone(&order));
            fibers.spawn(
                id,
                Box::new(move || {
                    for lap in 0..LAPS {
                        order.lock().unwrap().push((lap, id));
                        if lap + 1 < LAPS {
                            f.switch(id, Some((id + 1) % N));
                        }
                    }
                    (id + 1 < N).then_some(id + 1)
                }),
            );
        }
        fibers.run().expect("no fiber panics");
        let order = order.lock().unwrap();
        let want: Vec<(usize, usize)> =
            (0..LAPS).flat_map(|lap| (0..N).map(move |id| (lap, id))).collect();
        assert_eq!(*order, want);
        // Each fiber's closure held one clone of the set; all are dropped.
        assert_eq!(Arc::strong_count(&fibers), 1);
    }

    #[test]
    fn panic_unwinds_suspended_peers_and_drops_unstarted_ones() {
        let owned = Arc::new(());
        let fibers = Arc::new(Fibers::new(3));
        for id in 0..3 {
            let (f, owned) = (Arc::clone(&fibers), Arc::clone(&owned));
            fibers.spawn(
                id,
                Box::new(move || {
                    let _keep = &owned;
                    if id == 0 {
                        f.switch(0, None); // suspended when fiber 1 panics
                    } else {
                        panic!("fiber {id} failed");
                    }
                    None
                }),
            );
        }
        let err = fibers.run().expect_err("fiber 1 panics");
        assert_eq!(err.downcast_ref::<String>().map(String::as_str), Some("fiber 1 failed"));
        assert_eq!(Arc::strong_count(&owned), 1, "every capture was dropped");
        assert_eq!(Arc::strong_count(&fibers), 1);
    }

    #[test]
    fn misuse_is_refused_before_any_switch() {
        let fibers = Arc::new(Fibers::new(2));
        let f = Arc::clone(&fibers);
        let off_thread = std::thread::spawn(move || f.switch(0, None)).join();
        assert!(off_thread.is_err(), "a switch from another thread must panic");
        fibers.spawn(0, Box::new(|| None));
        let unspawned = panic::catch_unwind(AssertUnwindSafe(|| fibers.run()));
        assert!(unspawned.is_err(), "running a set with an unspawned fiber must panic");
    }
}
