//! Standard shared-object types used by the applications: integers, job
//! queues, barriers, bounded buffers, and iteration boards.
//!
//! Each type implements [`ObjectType`] (the marshalled, deterministic form
//! the runtime replicates) and provides a typed handle with ordinary Rust
//! methods for application code.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;
use desim::Ctx;

use crate::object::{ObjId, ObjectType, OpCode, OpResult};
use crate::rts::{OrcaError, OrcaRts};
use crate::wire::{WireReader, WireWriter};

fn done_i64(v: i64) -> OpResult {
    let mut w = WireWriter::with_capacity(8);
    w.put_i64(v);
    OpResult::Done(w.finish())
}

fn done_empty() -> OpResult {
    OpResult::Done(Bytes::new())
}

// ---------------------------------------------------------------------------
// SharedInt
// ---------------------------------------------------------------------------

/// A shared integer: reads, assignment, addition, minimum-update (for global
/// bounds as in TSP), and guarded awaits.
#[derive(Debug, Clone)]
pub struct SharedInt {
    value: i64,
}

/// Operations of [`SharedInt`].
pub mod int_ops {
    /// Read the value (read-only).
    pub const READ: u16 = 0;
    /// Assign a new value.
    pub const ASSIGN: u16 = 1;
    /// Add a delta; returns the new value.
    pub const ADD: u16 = 2;
    /// Lower the value if the argument is smaller; returns 1 if lowered.
    pub const MIN_UPDATE: u16 = 3;
    /// Guarded read: blocks until `value >= arg`.
    pub const AWAIT_GE: u16 = 4;
    /// Guarded read: blocks until `value != arg`.
    pub const AWAIT_NE: u16 = 5;
}

impl SharedInt {
    /// Creates the object state with an initial value (a factory for the
    /// runtime, hence not `Self`).
    #[allow(clippy::new_ret_no_self)]
    pub fn new(value: i64) -> Box<dyn ObjectType> {
        Box::new(SharedInt { value })
    }
}

impl ObjectType for SharedInt {
    fn apply(&mut self, op: OpCode, args: &[u8]) -> OpResult {
        let mut r = WireReader::new(args);
        match op {
            int_ops::READ => done_i64(self.value),
            int_ops::ASSIGN => {
                self.value = r.get_i64().expect("assign arg");
                done_empty()
            }
            int_ops::ADD => {
                self.value += r.get_i64().expect("add arg");
                done_i64(self.value)
            }
            int_ops::MIN_UPDATE => {
                let candidate = r.get_i64().expect("min arg");
                if candidate < self.value {
                    self.value = candidate;
                    done_i64(1)
                } else {
                    done_i64(0)
                }
            }
            int_ops::AWAIT_GE => {
                let bound = r.get_i64().expect("await arg");
                if self.value >= bound {
                    done_i64(self.value)
                } else {
                    OpResult::Blocked
                }
            }
            int_ops::AWAIT_NE => {
                let other = r.get_i64().expect("await arg");
                if self.value != other {
                    done_i64(self.value)
                } else {
                    OpResult::Blocked
                }
            }
            _ => panic!("unknown SharedInt op {op}"),
        }
    }

    fn is_read_only(&self, op: OpCode) -> bool {
        matches!(op, int_ops::READ | int_ops::AWAIT_GE | int_ops::AWAIT_NE)
    }

    fn type_name(&self) -> &'static str {
        "SharedInt"
    }
}

/// Typed handle to a [`SharedInt`] object on one node.
#[derive(Debug, Clone)]
pub struct IntHandle {
    rts: Arc<OrcaRts>,
    id: ObjId,
}

impl IntHandle {
    /// Binds the handle on `rts`.
    pub fn new(rts: Arc<OrcaRts>, id: ObjId) -> Self {
        IntHandle { rts, id }
    }

    fn arg(v: i64) -> Bytes {
        let mut w = WireWriter::with_capacity(8);
        w.put_i64(v);
        w.finish()
    }

    fn as_i64(b: &Bytes) -> i64 {
        WireReader::new(b).get_i64().expect("i64 result")
    }

    /// Reads the current value.
    ///
    /// # Errors
    ///
    /// Propagates [`OrcaError`] from the runtime.
    pub fn read(&self, ctx: &Ctx) -> Result<i64, OrcaError> {
        Ok(Self::as_i64(&self.rts.invoke(
            ctx,
            self.id,
            int_ops::READ,
            &[],
        )?))
    }

    /// Assigns a new value.
    ///
    /// # Errors
    ///
    /// Propagates [`OrcaError`] from the runtime.
    pub fn assign(&self, ctx: &Ctx, v: i64) -> Result<(), OrcaError> {
        self.rts
            .invoke(ctx, self.id, int_ops::ASSIGN, &Self::arg(v))?;
        Ok(())
    }

    /// Adds `delta` and returns the new value.
    ///
    /// # Errors
    ///
    /// Propagates [`OrcaError`] from the runtime.
    pub fn add(&self, ctx: &Ctx, delta: i64) -> Result<i64, OrcaError> {
        Ok(Self::as_i64(&self.rts.invoke(
            ctx,
            self.id,
            int_ops::ADD,
            &Self::arg(delta),
        )?))
    }

    /// Lowers the value to `candidate` if smaller; returns `true` if lowered.
    ///
    /// # Errors
    ///
    /// Propagates [`OrcaError`] from the runtime.
    pub fn min_update(&self, ctx: &Ctx, candidate: i64) -> Result<bool, OrcaError> {
        Ok(Self::as_i64(&self.rts.invoke(
            ctx,
            self.id,
            int_ops::MIN_UPDATE,
            &Self::arg(candidate),
        )?) == 1)
    }

    /// Blocks until the value is at least `bound`; returns the value seen.
    ///
    /// # Errors
    ///
    /// Propagates [`OrcaError`] from the runtime.
    pub fn await_ge(&self, ctx: &Ctx, bound: i64) -> Result<i64, OrcaError> {
        Ok(Self::as_i64(&self.rts.invoke(
            ctx,
            self.id,
            int_ops::AWAIT_GE,
            &Self::arg(bound),
        )?))
    }
}

// ---------------------------------------------------------------------------
// JobQueue
// ---------------------------------------------------------------------------

/// A central job queue (TSP's work distribution): jobs are added by a
/// master, workers fetch with a guarded operation that blocks while the
/// queue is empty and returns "no more" once the queue is closed and drained.
#[derive(Debug)]
pub struct JobQueue {
    jobs: VecDeque<Bytes>,
    closed: bool,
}

/// Operations of [`JobQueue`].
pub mod queue_ops {
    /// Append a job.
    pub const ADD: u16 = 0;
    /// Close the queue: no further jobs will be added.
    pub const CLOSE: u16 = 1;
    /// Guarded fetch: blocks while empty and open.
    pub const GET: u16 = 2;
    /// Number of queued jobs (read-only).
    pub const LEN: u16 = 3;
}

impl JobQueue {
    /// Creates an empty open queue (a factory for the runtime).
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> Box<dyn ObjectType> {
        Box::new(JobQueue {
            jobs: VecDeque::new(),
            closed: false,
        })
    }
}

impl ObjectType for JobQueue {
    fn apply(&mut self, op: OpCode, args: &[u8]) -> OpResult {
        let mut r = WireReader::new(args);
        match op {
            queue_ops::ADD => {
                assert!(!self.closed, "adding to a closed queue");
                self.jobs
                    .push_back(Bytes::copy_from_slice(r.get_bytes().expect("job")));
                done_empty()
            }
            queue_ops::CLOSE => {
                self.closed = true;
                done_empty()
            }
            queue_ops::GET => {
                if let Some(job) = self.jobs.pop_front() {
                    let mut w = WireWriter::with_capacity(5 + job.len());
                    w.put_u8(1).put_bytes(&job);
                    OpResult::Done(w.finish())
                } else if self.closed {
                    let mut w = WireWriter::with_capacity(1);
                    w.put_u8(0);
                    OpResult::Done(w.finish())
                } else {
                    OpResult::Blocked
                }
            }
            queue_ops::LEN => done_i64(self.jobs.len() as i64),
            _ => panic!("unknown JobQueue op {op}"),
        }
    }

    fn is_read_only(&self, op: OpCode) -> bool {
        op == queue_ops::LEN
    }

    fn type_name(&self) -> &'static str {
        "JobQueue"
    }
}

/// Typed handle to a [`JobQueue`].
#[derive(Debug, Clone)]
pub struct QueueHandle {
    rts: Arc<OrcaRts>,
    id: ObjId,
}

impl QueueHandle {
    /// Binds the handle on `rts`.
    pub fn new(rts: Arc<OrcaRts>, id: ObjId) -> Self {
        QueueHandle { rts, id }
    }

    /// Appends a job.
    ///
    /// # Errors
    ///
    /// Propagates [`OrcaError`] from the runtime.
    pub fn add(&self, ctx: &Ctx, job: &[u8]) -> Result<(), OrcaError> {
        let mut w = WireWriter::with_capacity(4 + job.len());
        w.put_bytes(job);
        self.rts.invoke(ctx, self.id, queue_ops::ADD, &w.finish())?;
        Ok(())
    }

    /// Closes the queue.
    ///
    /// # Errors
    ///
    /// Propagates [`OrcaError`] from the runtime.
    pub fn close(&self, ctx: &Ctx) -> Result<(), OrcaError> {
        self.rts.invoke(ctx, self.id, queue_ops::CLOSE, &[])?;
        Ok(())
    }

    /// Fetches the next job, blocking while the queue is empty; returns
    /// `None` once closed and drained.
    ///
    /// # Errors
    ///
    /// Propagates [`OrcaError`] from the runtime.
    pub fn get(&self, ctx: &Ctx) -> Result<Option<Bytes>, OrcaError> {
        let result = self.rts.invoke(ctx, self.id, queue_ops::GET, &[])?;
        let mut r = WireReader::new(&result);
        if r.get_u8().expect("flag") == 1 {
            Ok(Some(Bytes::copy_from_slice(r.get_bytes().expect("job"))))
        } else {
            Ok(None)
        }
    }
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

/// A generation barrier. `arrive` is a (broadcast) write; waiting is a
/// guarded read that blocks until the generation advances — on a replicated
/// barrier the wait costs no communication at all.
#[derive(Debug)]
pub struct Barrier {
    parties: u32,
    count: u32,
    generation: i64,
}

/// Operations of [`Barrier`].
pub mod barrier_ops {
    /// Arrive; returns the generation being waited for.
    pub const ARRIVE: u16 = 0;
    /// Guarded read: blocks until the generation exceeds the argument.
    pub const WAIT_PAST: u16 = 1;
}

impl Barrier {
    /// Creates a barrier for `parties` participants (a factory for the
    /// runtime).
    #[allow(clippy::new_ret_no_self)]
    pub fn new(parties: u32) -> Box<dyn ObjectType> {
        assert!(parties > 0, "a barrier needs at least one party");
        Box::new(Barrier {
            parties,
            count: 0,
            generation: 0,
        })
    }
}

impl ObjectType for Barrier {
    fn apply(&mut self, op: OpCode, args: &[u8]) -> OpResult {
        let mut r = WireReader::new(args);
        match op {
            barrier_ops::ARRIVE => {
                let waiting_for = self.generation;
                self.count += 1;
                if self.count == self.parties {
                    self.count = 0;
                    self.generation += 1;
                }
                done_i64(waiting_for)
            }
            barrier_ops::WAIT_PAST => {
                let gen = r.get_i64().expect("generation");
                if self.generation > gen {
                    done_i64(self.generation)
                } else {
                    OpResult::Blocked
                }
            }
            _ => panic!("unknown Barrier op {op}"),
        }
    }

    fn is_read_only(&self, op: OpCode) -> bool {
        op == barrier_ops::WAIT_PAST
    }

    fn type_name(&self) -> &'static str {
        "Barrier"
    }
}

/// Typed handle to a [`Barrier`].
#[derive(Debug, Clone)]
pub struct BarrierHandle {
    rts: Arc<OrcaRts>,
    id: ObjId,
}

impl BarrierHandle {
    /// Binds the handle on `rts`.
    pub fn new(rts: Arc<OrcaRts>, id: ObjId) -> Self {
        BarrierHandle { rts, id }
    }

    /// Arrives at the barrier and blocks until all parties have arrived.
    ///
    /// # Errors
    ///
    /// Propagates [`OrcaError`] from the runtime.
    pub fn sync(&self, ctx: &Ctx) -> Result<(), OrcaError> {
        let mut w = WireWriter::with_capacity(8);
        let gen_bytes = self.rts.invoke(ctx, self.id, barrier_ops::ARRIVE, &[])?;
        let gen = WireReader::new(&gen_bytes).get_i64().expect("generation");
        w.put_i64(gen);
        self.rts
            .invoke(ctx, self.id, barrier_ops::WAIT_PAST, &w.finish())?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// BoundedBuffer
// ---------------------------------------------------------------------------

/// The shared buffer of the paper's Region Labeling and SOR applications:
/// neighbours exchange boundary rows through it. `put` blocks while full,
/// `get` blocks while empty — precisely the guarded `BufPut`/`BufGet`
/// operations whose blocked RPCs cost the kernel-space implementation an
/// extra context switch per invocation (Section 5).
#[derive(Debug)]
pub struct BoundedBuffer {
    capacity: usize,
    slots: VecDeque<Bytes>,
}

/// Operations of [`BoundedBuffer`].
pub mod buffer_ops {
    /// Guarded put: blocks while the buffer is full.
    pub const PUT: u16 = 0;
    /// Guarded get: blocks while the buffer is empty.
    pub const GET: u16 = 1;
}

impl BoundedBuffer {
    /// Creates a buffer with `capacity` slots (a factory for the runtime).
    #[allow(clippy::new_ret_no_self)]
    pub fn new(capacity: usize) -> Box<dyn ObjectType> {
        assert!(capacity > 0, "a buffer needs at least one slot");
        Box::new(BoundedBuffer {
            capacity,
            slots: VecDeque::new(),
        })
    }
}

impl ObjectType for BoundedBuffer {
    fn apply(&mut self, op: OpCode, args: &[u8]) -> OpResult {
        let mut r = WireReader::new(args);
        match op {
            buffer_ops::PUT => {
                if self.slots.len() >= self.capacity {
                    return OpResult::Blocked;
                }
                self.slots
                    .push_back(Bytes::copy_from_slice(r.get_bytes().expect("item")));
                done_empty()
            }
            buffer_ops::GET => match self.slots.pop_front() {
                Some(item) => {
                    let mut w = WireWriter::with_capacity(4 + item.len());
                    w.put_bytes(&item);
                    OpResult::Done(w.finish())
                }
                None => OpResult::Blocked,
            },
            _ => panic!("unknown BoundedBuffer op {op}"),
        }
    }

    fn is_read_only(&self, _op: OpCode) -> bool {
        false // both operations mutate when they fire
    }

    fn type_name(&self) -> &'static str {
        "BoundedBuffer"
    }
}

/// Typed handle to a [`BoundedBuffer`].
#[derive(Debug, Clone)]
pub struct BufferHandle {
    rts: Arc<OrcaRts>,
    id: ObjId,
}

impl BufferHandle {
    /// Binds the handle on `rts`.
    pub fn new(rts: Arc<OrcaRts>, id: ObjId) -> Self {
        BufferHandle { rts, id }
    }

    /// Puts an item, blocking while the buffer is full.
    ///
    /// # Errors
    ///
    /// Propagates [`OrcaError`] from the runtime.
    pub fn put(&self, ctx: &Ctx, item: &[u8]) -> Result<(), OrcaError> {
        let mut w = WireWriter::with_capacity(4 + item.len());
        w.put_bytes(item);
        self.rts
            .invoke(ctx, self.id, buffer_ops::PUT, &w.finish())?;
        Ok(())
    }

    /// Takes an item, blocking while the buffer is empty.
    ///
    /// # Errors
    ///
    /// Propagates [`OrcaError`] from the runtime.
    pub fn get(&self, ctx: &Ctx) -> Result<Bytes, OrcaError> {
        let result = self.rts.invoke(ctx, self.id, buffer_ops::GET, &[])?;
        let mut r = WireReader::new(&result);
        Ok(Bytes::copy_from_slice(r.get_bytes().expect("item")))
    }
}

// ---------------------------------------------------------------------------
// IterBoard
// ---------------------------------------------------------------------------

/// A per-iteration publication board (ASP's row broadcasts, LEQ's vector
/// exchange): writers publish a value for `(round, slot)`, readers block
/// until it appears. Replicated: publishing is one broadcast, every read is
/// local.
///
/// **One reader per replica, one read per entry.** The guarded read
/// *consumes* its entry at the replica it runs on, so a board holds only
/// what has been published and not yet read there — however far a slow
/// node lags, it still finds every round, and nothing stays for the life
/// of the run. The read is still routed as read-only (a local operation, no
/// communication): replicas differ only in which entries their own reader
/// has already taken, which no other node can observe. A second read of
/// the same `(round, slot)` on one node blocks forever.
#[derive(Debug)]
pub struct IterBoard {
    entries: std::collections::HashMap<(u64, u32), Bytes>,
}

/// Operations of [`IterBoard`].
pub mod board_ops {
    /// Publish `(round, slot, bytes)`.
    pub const PUBLISH: u16 = 0;
    /// Guarded read of `(round, slot)`: blocks until published, then takes
    /// the entry from the local replica.
    pub const GET: u16 = 1;
    /// Number of entries the local replica holds (read-only).
    pub const LEN: u16 = 2;
}

impl IterBoard {
    /// Creates an empty board (a factory for the runtime).
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> Box<dyn ObjectType> {
        Box::new(IterBoard {
            entries: std::collections::HashMap::new(),
        })
    }
}

impl ObjectType for IterBoard {
    fn apply(&mut self, op: OpCode, args: &[u8]) -> OpResult {
        let mut r = WireReader::new(args);
        match op {
            board_ops::PUBLISH => {
                let round = r.get_u64().expect("round");
                let slot = r.get_u32().expect("slot");
                let data = Bytes::copy_from_slice(r.get_bytes().expect("data"));
                self.entries.insert((round, slot), data);
                done_empty()
            }
            board_ops::GET => {
                let round = r.get_u64().expect("round");
                let slot = r.get_u32().expect("slot");
                match self.entries.remove(&(round, slot)) {
                    Some(data) => {
                        let mut w = WireWriter::with_capacity(4 + data.len());
                        w.put_bytes(&data);
                        OpResult::Done(w.finish())
                    }
                    None => OpResult::Blocked,
                }
            }
            board_ops::LEN => done_i64(self.entries.len() as i64),
            _ => panic!("unknown IterBoard op {op}"),
        }
    }

    fn is_read_only(&self, op: OpCode) -> bool {
        matches!(op, board_ops::GET | board_ops::LEN)
    }

    fn type_name(&self) -> &'static str {
        "IterBoard"
    }
}

/// Typed handle to an [`IterBoard`].
#[derive(Debug, Clone)]
pub struct BoardHandle {
    rts: Arc<OrcaRts>,
    id: ObjId,
}

impl BoardHandle {
    /// Binds the handle on `rts`.
    pub fn new(rts: Arc<OrcaRts>, id: ObjId) -> Self {
        BoardHandle { rts, id }
    }

    /// Publishes `data` under `(round, slot)`.
    ///
    /// # Errors
    ///
    /// Propagates [`OrcaError`] from the runtime.
    pub fn publish(&self, ctx: &Ctx, round: u64, slot: u32, data: &[u8]) -> Result<(), OrcaError> {
        let mut w = WireWriter::with_capacity(16 + data.len());
        w.put_u64(round).put_u32(slot).put_bytes(data);
        self.rts
            .invoke(ctx, self.id, board_ops::PUBLISH, &w.finish())?;
        Ok(())
    }

    /// Reads `(round, slot)`, blocking until it has been published, and
    /// takes it off this node's replica (see [`IterBoard`]: each node reads
    /// an entry at most once).
    ///
    /// # Errors
    ///
    /// Propagates [`OrcaError`] from the runtime.
    pub fn get(&self, ctx: &Ctx, round: u64, slot: u32) -> Result<Bytes, OrcaError> {
        let mut w = WireWriter::with_capacity(12);
        w.put_u64(round).put_u32(slot);
        let result = self.rts.invoke(ctx, self.id, board_ops::GET, &w.finish())?;
        let len = WireReader::new(&result).get_bytes().expect("data").len();
        // The result is one length-prefixed field: hand out the payload as
        // a view of it instead of copying it a second time.
        Ok(result.slice(4..4 + len))
    }

    /// Number of published entries this node has not read yet.
    ///
    /// # Errors
    ///
    /// Propagates [`OrcaError`] from the runtime.
    pub fn len(&self, ctx: &Ctx) -> Result<usize, OrcaError> {
        let result = self.rts.invoke(ctx, self.id, board_ops::LEN, &[])?;
        Ok(WireReader::new(&result).get_i64().expect("i64 result") as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_int_ops() {
        let mut s = SharedInt { value: 10 };
        assert_eq!(s.apply(int_ops::READ, &[]), done_i64(10));
        let mut w = WireWriter::new();
        w.put_i64(7);
        assert_eq!(s.apply(int_ops::MIN_UPDATE, &w.finish()), done_i64(1));
        let mut w = WireWriter::new();
        w.put_i64(9);
        assert_eq!(s.apply(int_ops::MIN_UPDATE, &w.finish()), done_i64(0));
        assert_eq!(s.apply(int_ops::READ, &[]), done_i64(7));
        let mut w = WireWriter::new();
        w.put_i64(100);
        assert_eq!(s.apply(int_ops::AWAIT_GE, &w.finish()), OpResult::Blocked);
        assert!(s.is_read_only(int_ops::READ));
        assert!(!s.is_read_only(int_ops::ASSIGN));
    }

    #[test]
    fn job_queue_blocks_then_closes() {
        let mut q = JobQueue {
            jobs: VecDeque::new(),
            closed: false,
        };
        assert_eq!(q.apply(queue_ops::GET, &[]), OpResult::Blocked);
        let mut w = WireWriter::new();
        w.put_bytes(b"job1");
        q.apply(queue_ops::ADD, &w.finish());
        let r = q.apply(queue_ops::GET, &[]);
        match r {
            OpResult::Done(b) => {
                let mut rd = WireReader::new(&b);
                assert_eq!(rd.get_u8().unwrap(), 1);
                assert_eq!(rd.get_bytes().unwrap(), b"job1");
            }
            other => panic!("expected a job, got {other:?}"),
        }
        q.apply(queue_ops::CLOSE, &[]);
        match q.apply(queue_ops::GET, &[]) {
            OpResult::Done(b) => assert_eq!(b[0], 0, "no-more marker"),
            other => panic!("expected no-more, got {other:?}"),
        }
    }

    #[test]
    fn barrier_generations() {
        let mut b = Barrier {
            parties: 2,
            count: 0,
            generation: 0,
        };
        assert_eq!(b.apply(barrier_ops::ARRIVE, &[]), done_i64(0));
        let mut w = WireWriter::new();
        w.put_i64(0);
        assert_eq!(
            b.apply(barrier_ops::WAIT_PAST, &w.finish()),
            OpResult::Blocked
        );
        assert_eq!(b.apply(barrier_ops::ARRIVE, &[]), done_i64(0));
        let mut w = WireWriter::new();
        w.put_i64(0);
        assert_eq!(b.apply(barrier_ops::WAIT_PAST, &w.finish()), done_i64(1));
    }

    #[test]
    fn bounded_buffer_blocks_both_ways() {
        let mut buf = BoundedBuffer {
            capacity: 1,
            slots: VecDeque::new(),
        };
        assert_eq!(buf.apply(buffer_ops::GET, &[]), OpResult::Blocked);
        let mut w = WireWriter::new();
        w.put_bytes(b"x");
        assert_eq!(buf.apply(buffer_ops::PUT, &w.finish()), done_empty());
        let mut w = WireWriter::new();
        w.put_bytes(b"y");
        assert_eq!(buf.apply(buffer_ops::PUT, &w.finish()), OpResult::Blocked);
        match buf.apply(buffer_ops::GET, &[]) {
            OpResult::Done(_) => {}
            other => panic!("expected item, got {other:?}"),
        }
    }

    #[test]
    fn iter_board_guarded_get() {
        let mut board = IterBoard {
            entries: std::collections::HashMap::new(),
        };
        let mut w = WireWriter::new();
        w.put_u64(3).put_u32(1);
        assert_eq!(board.apply(board_ops::GET, &w.finish()), OpResult::Blocked);
        let mut w = WireWriter::new();
        w.put_u64(3).put_u32(1).put_bytes(b"row");
        board.apply(board_ops::PUBLISH, &w.finish());
        let mut w = WireWriter::new();
        w.put_u64(3).put_u32(1);
        let get = w.finish();
        match board.apply(board_ops::GET, &get) {
            OpResult::Done(b) => {
                assert_eq!(WireReader::new(&b).get_bytes().unwrap(), b"row");
            }
            other => panic!("expected row, got {other:?}"),
        }
        // Consume-once: the read took the entry, a second one blocks.
        assert_eq!(board.apply(board_ops::GET, &get), OpResult::Blocked);
        assert!(board.entries.is_empty());
    }
}
