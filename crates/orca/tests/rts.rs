//! End-to-end Orca runtime tests on both Panda implementations: replication
//! consistency, RPC routing, guarded operations with continuations, and the
//! standard objects.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex as StdMutex};

use chaos::testutil::{self, Stack};
use desim::Simulation;
use ethernet::Network;
use orca::{BarrierHandle, BoardHandle, BufferHandle, IntHandle, ObjId, OrcaWorld, QueueHandle};
use panda::PandaConfig;

fn build(sim: &mut Simulation, n: u32, kernel: bool) -> (Network, OrcaWorld) {
    let stack = if kernel { Stack::Kernel } else { Stack::User };
    let (world, pandas) = testutil::build_world(sim, n, stack, &PandaConfig::default());
    (world.net, OrcaWorld::build(&pandas))
}

#[test]
fn replicated_int_consistent_across_nodes() {
    for kernel in [true, false] {
        let mut sim = Simulation::new(1);
        let (_net, world) = build(&mut sim, 3, kernel);
        let id = ObjId(1);
        world.create_replicated(id, || orca::SharedInt::new(0));
        let finals = Arc::new(StdMutex::new(Vec::new()));
        let mut handles = Vec::new();
        for node in 0..3u32 {
            let rts = world.rts(node);
            let finals = Arc::clone(&finals);
            let h = sim.spawn(
                rts.panda().machine().proc(),
                &format!("p{node}"),
                move |ctx| {
                    let counter = IntHandle::new(Arc::clone(&rts), id);
                    for _ in 0..10 {
                        counter.add(ctx, 1).expect("add");
                    }
                    // Everyone waits until all 30 increments are visible,
                    // using a guarded local read.
                    let v = counter.await_ge(ctx, 30).expect("await");
                    finals.lock().expect("finals").push(v);
                },
            );
            handles.push(h);
        }
        sim.run().expect("run");
        let finals = finals.lock().expect("finals");
        assert_eq!(finals.len(), 3);
        for v in finals.iter() {
            assert_eq!(*v, 30, "replicas converge to the same value");
        }
        // Reads were local: no RPCs should have been issued at all.
        for node in 0..3 {
            assert_eq!(world.rts(node).stats().rpcs, 0);
            assert!(world.rts(node).stats().broadcasts >= 10);
        }
    }
}

#[test]
fn owned_object_routed_by_rpc() {
    for kernel in [true, false] {
        let mut sim = Simulation::new(2);
        let (_net, world) = build(&mut sim, 2, kernel);
        let id = ObjId(5);
        world.create_owned(id, 1, || orca::SharedInt::new(100));
        let rts0 = world.rts(0);
        let h = sim.spawn(rts0.panda().machine().proc(), "caller", move |ctx| {
            let n = IntHandle::new(Arc::clone(&rts0), id);
            assert_eq!(n.read(ctx).expect("read"), 100);
            assert_eq!(n.add(ctx, 5).expect("add"), 105);
            assert_eq!(n.read(ctx).expect("read"), 105);
        });
        sim.run_until_finished(&h).expect("run");
        assert_eq!(
            world.rts(0).stats().rpcs,
            3,
            "all three ops went to the owner"
        );
    }
}

#[test]
fn guarded_remote_get_resumed_by_remote_put() {
    // The Region-Labeling pattern: node 0 blocks in BufGet on a buffer owned
    // by node 1; node 1 later puts, which must resume node 0's operation via
    // a continuation (and, on the kernel implementation, an extra context
    // switch the paper measures).
    for kernel in [true, false] {
        let mut sim = Simulation::new(3);
        let (_net, world) = build(&mut sim, 2, kernel);
        let id = ObjId(9);
        world.create_owned(id, 1, || orca::BoundedBuffer::new(4));
        let rts0 = world.rts(0);
        let getter = sim.spawn(rts0.panda().machine().proc(), "getter", move |ctx| {
            let buf = BufferHandle::new(Arc::clone(&rts0), id);
            let item = buf.get(ctx).expect("get");
            assert_eq!(&item[..], b"boundary-row");
            assert!(ctx.now().as_millis_f64() >= 5.0, "blocked until the put");
        });
        let rts1 = world.rts(1);
        sim.spawn(rts1.panda().machine().proc(), "putter", move |ctx| {
            ctx.sleep(desim::ms(5));
            let buf = BufferHandle::new(Arc::clone(&rts1), id);
            buf.put(ctx, b"boundary-row").expect("put");
        });
        sim.run_until_finished(&getter).expect("run");
        assert_eq!(world.rts(1).stats().continuations_queued, 1);
        assert_eq!(world.rts(1).stats().continuations_resumed, 1);
    }
}

#[test]
fn guarded_local_op_blocks_and_resumes() {
    for kernel in [true, false] {
        let mut sim = Simulation::new(4);
        let (_net, world) = build(&mut sim, 2, kernel);
        let id = ObjId(2);
        world.create_replicated(id, || orca::SharedInt::new(0));
        let rts0 = world.rts(0);
        let waiter = sim.spawn(rts0.panda().machine().proc(), "waiter", move |ctx| {
            let n = IntHandle::new(Arc::clone(&rts0), id);
            // Local guarded read on a replicated object: blocks without any
            // communication until a broadcast write satisfies the guard.
            let v = n.await_ge(ctx, 42).expect("await");
            assert_eq!(v, 42);
        });
        let rts1 = world.rts(1);
        sim.spawn(rts1.panda().machine().proc(), "setter", move |ctx| {
            ctx.sleep(desim::ms(2));
            IntHandle::new(Arc::clone(&rts1), id)
                .assign(ctx, 42)
                .expect("assign");
        });
        sim.run_until_finished(&waiter).expect("run");
    }
}

#[test]
fn job_queue_master_workers() {
    for kernel in [true, false] {
        let mut sim = Simulation::new(5);
        let (_net, world) = build(&mut sim, 4, kernel);
        let id = ObjId(3);
        world.create_owned(id, 0, || orca::JobQueue::new());
        let done = Arc::new(StdMutex::new(Vec::new()));
        // Master on node 0 adds 20 jobs then closes.
        let master_rts = world.rts(0);
        sim.spawn(master_rts.panda().machine().proc(), "master", move |ctx| {
            let q = QueueHandle::new(Arc::clone(&master_rts), id);
            for j in 0..20u32 {
                q.add(ctx, &j.to_be_bytes()).expect("add");
            }
            q.close(ctx).expect("close");
        });
        // Workers on nodes 1..3 drain it.
        for node in 1..4u32 {
            let rts = world.rts(node);
            let done = Arc::clone(&done);
            sim.spawn(
                rts.panda().machine().proc(),
                &format!("w{node}"),
                move |ctx| {
                    let q = QueueHandle::new(Arc::clone(&rts), id);
                    while let Some(job) = q.get(ctx).expect("get") {
                        let v = u32::from_be_bytes(job[..4].try_into().expect("4 bytes"));
                        done.lock().expect("done").push(v);
                    }
                },
            );
        }
        sim.run().expect("run");
        let mut got = done.lock().expect("done").clone();
        got.sort_unstable();
        assert_eq!(
            got,
            (0..20).collect::<Vec<_>>(),
            "every job done exactly once"
        );
    }
}

#[test]
fn barrier_synchronizes_all_nodes() {
    for kernel in [true, false] {
        let mut sim = Simulation::new(6);
        let (_net, world) = build(&mut sim, 4, kernel);
        let id = ObjId(4);
        world.create_replicated(id, || orca::Barrier::new(4));
        let after = Arc::new(StdMutex::new(Vec::new()));
        for node in 0..4u32 {
            let rts = world.rts(node);
            let after = Arc::clone(&after);
            sim.spawn(
                rts.panda().machine().proc(),
                &format!("p{node}"),
                move |ctx| {
                    let b = BarrierHandle::new(Arc::clone(&rts), id);
                    // Stagger arrivals; nobody may pass before the last arrival.
                    ctx.sleep(desim::ms(u64::from(node) * 3));
                    b.sync(ctx).expect("sync");
                    after.lock().expect("after").push(ctx.now().as_millis_f64());
                },
            );
        }
        sim.run().expect("run");
        let after = after.lock().expect("after");
        assert_eq!(after.len(), 4);
        for t in after.iter() {
            assert!(*t >= 9.0, "no one passes before the slowest arrival: {t}");
        }
    }
}

#[test]
fn iter_board_publish_get() {
    for kernel in [true, false] {
        let mut sim = Simulation::new(7);
        let (_net, world) = build(&mut sim, 3, kernel);
        let id = ObjId(6);
        world.create_replicated(id, || orca::IterBoard::new());
        let mut handles = Vec::new();
        for node in 0..3u32 {
            let rts = world.rts(node);
            handles.push(sim.spawn(
                rts.panda().machine().proc(),
                &format!("p{node}"),
                move |ctx| {
                    let board = BoardHandle::new(Arc::clone(&rts), id);
                    for round in 0..5u64 {
                        board
                            .publish(ctx, round, node, &[node as u8; 64])
                            .expect("publish");
                        // Read everyone's slot for the round (blocks until
                        // published; all reads are local).
                        for peer in 0..3u32 {
                            let data = board.get(ctx, round, peer).expect("get");
                            assert_eq!(data[0], peer as u8);
                            assert_eq!(data.len(), 64);
                        }
                    }
                },
            ));
        }
        sim.run().expect("run");
        for node in 0..3 {
            assert_eq!(world.rts(node).stats().rpcs, 0, "board reads are local");
        }
    }
}

/// The board retires an entry when the local reader takes it, never by
/// age: a node that falls far behind must still find every round, and once
/// everyone has read everything every replica is empty.
#[test]
fn iter_board_laggard_reads_every_round() {
    const ROUNDS: u64 = 120;
    for kernel in [true, false] {
        let mut sim = Simulation::new(9);
        let (_net, world) = build(&mut sim, 3, kernel);
        let id = ObjId(6);
        world.create_replicated(id, || orca::IterBoard::new());
        let fast_round = Arc::new(AtomicU64::new(0));
        let max_lead = Arc::new(AtomicU64::new(0));
        for node in 0..3u32 {
            let rts = world.rts(node);
            let fast_round = Arc::clone(&fast_round);
            let max_lead = Arc::clone(&max_lead);
            sim.spawn(
                rts.panda().machine().proc(),
                &format!("p{node}"),
                move |ctx| {
                    let board = BoardHandle::new(Arc::clone(&rts), id);
                    for round in 0..ROUNDS {
                        // Nodes 0 and 1 take turns publishing (one pivot
                        // row per round, as in ASP); node 2 only reads, and
                        // slowly.
                        if u64::from(node) == round % 2 {
                            board
                                .publish(ctx, round, 0, &round.to_be_bytes())
                                .expect("publish");
                        }
                        if node == 2 {
                            ctx.compute(desim::ms(10));
                            let lead = fast_round.load(Ordering::Relaxed).saturating_sub(round);
                            max_lead.fetch_max(lead, Ordering::Relaxed);
                        }
                        let data = board.get(ctx, round, 0).expect("get");
                        assert_eq!(data[..], round.to_be_bytes());
                        if node == 0 {
                            fast_round.store(round, Ordering::Relaxed);
                        }
                    }
                    assert_eq!(board.len(ctx).expect("len"), 0, "node {node} read it all");
                },
            );
        }
        sim.run().expect("no deadlock");
        let lead = max_lead.load(Ordering::Relaxed);
        assert!(lead >= 50, "the fast nodes ran only {lead} rounds ahead");
    }
}

#[test]
fn sequential_consistency_of_replicated_writes() {
    // Two nodes race assignments; a replicated-object read history at each
    // node must be a prefix-consistent view of one total order. We verify
    // the strongest cheap check: the final value is identical everywhere and
    // corresponds to the last broadcast in the total order.
    for kernel in [true, false] {
        let mut sim = Simulation::new(8);
        let (_net, world) = build(&mut sim, 3, kernel);
        let id = ObjId(7);
        world.create_replicated(id, || orca::SharedInt::new(-1));
        for node in 0..2u32 {
            let rts = world.rts(node);
            sim.spawn(
                rts.panda().machine().proc(),
                &format!("w{node}"),
                move |ctx| {
                    let n = IntHandle::new(Arc::clone(&rts), id);
                    for k in 0..10 {
                        n.assign(ctx, i64::from(node) * 100 + k).expect("assign");
                    }
                },
            );
        }
        sim.run().expect("run");
        // After the dust settles, all replicas hold the same final value:
        // spawn readers in the same world and run again.
        let finals = Arc::new(StdMutex::new(Vec::new()));
        for node in 0..3u32 {
            let rts = world.rts(node);
            let finals = Arc::clone(&finals);
            sim.spawn(
                rts.panda().machine().proc(),
                &format!("r{node}"),
                move |ctx| {
                    let n = IntHandle::new(Arc::clone(&rts), id);
                    // NB: bind the value BEFORE taking the std lock — a std
                    // mutex must never be held across a simulated block.
                    let v = n.read(ctx).expect("read");
                    finals.lock().expect("finals").push(v);
                },
            );
        }
        sim.run().expect("second run");
        let finals = finals.lock().expect("finals");
        assert_eq!(finals.len(), 3);
        assert!(
            finals.iter().all(|v| *v == finals[0]),
            "replicas agree: {finals:?}"
        );
        assert_ne!(finals[0], -1, "writes happened");
    }
}

#[test]
fn unknown_object_is_an_error_not_a_panic() {
    let mut sim = Simulation::new(12);
    let (_net, world) = build(&mut sim, 2, false);
    let rts = world.rts(0);
    let h = sim.spawn(rts.panda().machine().proc(), "t", move |ctx| {
        let err = rts
            .invoke(ctx, ObjId(999), 0, &[])
            .expect_err("unregistered");
        assert!(matches!(err, orca::OrcaError::UnknownObject(ObjId(999))));
    });
    sim.run_until_finished(&h).expect("run");
}

#[test]
#[should_panic(expected = "registered twice")]
fn double_registration_rejected() {
    let mut sim = Simulation::new(13);
    let (_net, world) = build(&mut sim, 1, true);
    world.create_replicated(ObjId(1), || orca::SharedInt::new(0));
    world.create_replicated(ObjId(1), || orca::SharedInt::new(0));
}

#[test]
fn broadcast_write_returns_result_to_origin_only() {
    // add() on a replicated int must return the post-op value to the caller;
    // other replicas apply silently.
    for kernel in [true, false] {
        let mut sim = Simulation::new(14);
        let (_net, world) = build(&mut sim, 3, kernel);
        let id = ObjId(8);
        world.create_replicated(id, || orca::SharedInt::new(100));
        let rts = world.rts(2);
        let h = sim.spawn(rts.panda().machine().proc(), "t", move |ctx| {
            let n = IntHandle::new(Arc::clone(&rts), id);
            assert_eq!(n.add(ctx, 1).expect("add"), 101);
            assert_eq!(n.add(ctx, 1).expect("add"), 102);
        });
        sim.run_until_finished(&h).expect("run");
    }
}
