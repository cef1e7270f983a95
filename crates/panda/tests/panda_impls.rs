//! Behavioural parity tests: both Panda implementations must provide the
//! same interface semantics (RPC, asynchronous replies, totally ordered
//! groups), differing only in cost.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex as StdMutex};

use amoeba::GroupConfig;
use bytes::Bytes;
use chaos::testutil::{self, Stack};
use desim::{ms, Layer, Phase, SimChannel, Simulation};
use ethernet::Network;
use panda::{CommError, GroupDelivery, Panda, PandaConfig};

fn build_world(
    sim: &mut Simulation,
    n_nodes: u32,
    which: &Stack,
) -> (Network, Vec<Arc<dyn Panda>>) {
    let (world, nodes) = testutil::build_world(sim, n_nodes, *which, &PandaConfig::default());
    (world.net, nodes)
}

fn all_impls() -> Vec<Stack> {
    vec![Stack::Kernel, Stack::User, Stack::UserDedicated]
}

#[test]
fn rpc_roundtrip_both_impls() {
    for which in all_impls() {
        let mut sim = Simulation::new(1);
        let (_net, nodes) = build_world(&mut sim, 3, &which);
        // Node 1 serves an echo-reverse service, replying from the upcall.
        let server = Arc::clone(&nodes[1]);
        let server2 = Arc::clone(&nodes[1]);
        server.set_rpc_handler(Arc::new(move |ctx, _from, req, ticket| {
            let mut v = req.to_vec();
            v.reverse();
            server2.reply(ctx, ticket, Bytes::from(v));
        }));
        for n in &nodes {
            n.set_group_handler(Arc::new(|_, _| {}));
            if !Arc::ptr_eq(n, &nodes[1]) {
                n.set_rpc_handler(Arc::new(|_, _, _, _| panic!("unexpected request")));
            }
        }
        let client = Arc::clone(&nodes[0]);
        let h = sim.spawn(client.machine().proc(), "client", move |ctx| {
            let reply = client
                .rpc(ctx, 1, Bytes::from_static(b"ping"))
                .expect("rpc");
            assert_eq!(&reply[..], b"gnip");
            // A second call: on the user stack its request acknowledges
            // the first reply.
            let reply = client.rpc(ctx, 1, Bytes::from_static(b"abc")).expect("rpc");
            assert_eq!(&reply[..], b"cba");
        });
        sim.run_until_finished(&h).expect("run");
    }
}

#[test]
fn rpc_large_payloads_roundtrip() {
    for which in all_impls() {
        let mut sim = Simulation::new(2);
        let (_net, nodes) = build_world(&mut sim, 2, &which);
        let server = Arc::clone(&nodes[1]);
        let echo = Arc::clone(&nodes[1]);
        server.set_rpc_handler(Arc::new(move |ctx, _from, req, ticket| {
            echo.reply(ctx, ticket, req);
        }));
        for n in &nodes {
            n.set_group_handler(Arc::new(|_, _| {}));
        }
        let client = Arc::clone(&nodes[0]);
        let h = sim.spawn(client.machine().proc(), "client", move |ctx| {
            let body = Bytes::from((0..8000u32).map(|i| i as u8).collect::<Vec<u8>>());
            let reply = client.rpc(ctx, 1, body.clone()).expect("rpc");
            assert_eq!(reply, body);
        });
        sim.run_until_finished(&h).expect("run");
    }
}

#[test]
fn asynchronous_reply_from_another_thread() {
    // The continuation pattern: the upcall holds the ticket; a different
    // thread replies later. Both implementations must support it (the
    // kernel one pays an extra switch internally).
    for which in all_impls() {
        let mut sim = Simulation::new(3);
        let (_net, nodes) = build_world(&mut sim, 2, &which);
        let pending: SimChannel<panda::ReplyTicket> = SimChannel::new();
        let pending_in = pending.clone();
        nodes[1].set_rpc_handler(Arc::new(move |ctx, _from, _req, ticket| {
            // Hold the request; do not reply from the upcall.
            let _ = pending_in.send(ctx, ticket);
        }));
        for n in &nodes {
            n.set_group_handler(Arc::new(|_, _| {}));
        }
        // A separate "guard became true" thread answers 2 ms later.
        let replier = Arc::clone(&nodes[1]);
        sim.spawn(nodes[1].machine().proc(), "guard-setter", move |ctx| {
            let ticket = pending.recv(ctx).expect("ticket");
            ctx.sleep(ms(2));
            replier.reply(ctx, ticket, Bytes::from_static(b"finally"));
        });
        let client = Arc::clone(&nodes[0]);
        let h = sim.spawn(client.machine().proc(), "client", move |ctx| {
            let reply = client
                .rpc(ctx, 1, Bytes::from_static(b"wait"))
                .expect("rpc");
            assert_eq!(&reply[..], b"finally");
            assert!(ctx.now().as_millis_f64() >= 2.0);
        });
        sim.run_until_finished(&h).expect("run");
    }
}

type Log = Arc<StdMutex<Vec<Vec<(u32, u64, u8)>>>>;

fn install_collectors(nodes: &[Arc<dyn Panda>]) -> Log {
    let log: Log = Arc::new(StdMutex::new(vec![Vec::new(); nodes.len()]));
    for (i, n) in nodes.iter().enumerate() {
        let log = Arc::clone(&log);
        n.set_group_handler(Arc::new(move |_ctx, d: GroupDelivery| {
            log.lock().expect("log")[i].push((
                d.sender,
                d.seq,
                d.payload.first().copied().unwrap_or(0),
            ));
        }));
        n.set_rpc_handler(Arc::new(|_, _, _, _| {}));
    }
    log
}

#[test]
fn group_total_order_both_impls() {
    for which in all_impls() {
        let mut sim = Simulation::new(5);
        let (_net, nodes) = build_world(&mut sim, 4, &which);
        let log = install_collectors(&nodes);
        let per_sender = 8usize;
        for n in nodes.iter() {
            let n = Arc::clone(n);
            sim.spawn(
                n.machine().proc(),
                &format!("send{}", n.node()),
                move |ctx| {
                    for k in 0..per_sender {
                        let body = Bytes::from(vec![k as u8; 32]);
                        n.group_send(ctx, body).expect("sequenced");
                    }
                },
            );
        }
        sim.run().expect("run");
        let log = log.lock().expect("log");
        let total = per_sender * nodes.len();
        for node_log in log.iter() {
            assert_eq!(node_log.len(), total);
            for (idx, (_, seq, _)) in node_log.iter().enumerate() {
                assert_eq!(*seq, idx as u64 + 1, "contiguous sequence numbers");
            }
            assert_eq!(node_log, &log[0], "identical order at every node");
        }
    }
}

#[test]
fn group_large_messages_bb_method() {
    for which in all_impls() {
        let mut sim = Simulation::new(6);
        let (_net, nodes) = build_world(&mut sim, 3, &which);
        let body = Bytes::from((0..8000u32).map(|i| (i % 256) as u8).collect::<Vec<u8>>());
        let seen = Arc::new(AtomicU64::new(0));
        for (i, n) in nodes.iter().enumerate() {
            let seen = Arc::clone(&seen);
            let expected = body.clone();
            n.set_group_handler(Arc::new(move |_ctx, d: GroupDelivery| {
                assert_eq!(d.payload, expected, "node {i} got the full BB payload");
                seen.fetch_add(1, Ordering::SeqCst);
            }));
            n.set_rpc_handler(Arc::new(|_, _, _, _| {}));
        }
        let sender = Arc::clone(&nodes[1]);
        sim.spawn(sender.machine().proc(), "sender", move |ctx| {
            sender.group_send(ctx, body.clone()).expect("sequenced");
        });
        sim.run().expect("run");
        assert_eq!(seen.load(Ordering::SeqCst), nodes.len() as u64);
    }
}

/// Each shell's BB threshold is one FLIP fragment less its own group
/// header: a payload that fills the fragment exactly goes PB, one byte
/// more goes BB. Read from the `bb` argument of each `grp_send` begin.
#[test]
fn bb_threshold_is_one_fragment_less_the_shells_header() {
    for (which, header) in [
        (Stack::Kernel, amoeba::AMOEBA_GROUP_HEADER_BYTES),
        (Stack::User, panda::PANDA_GROUP_HEADER_BYTES),
    ] {
        let fits = flip::FLIP_FRAGMENT_BYTES - header;
        let mut sim = Simulation::new(6);
        sim.enable_tracing();
        let (_net, nodes) = build_world(&mut sim, 2, &which);
        for n in &nodes {
            n.set_group_handler(Arc::new(|_, _| {}));
            n.set_rpc_handler(Arc::new(|_, _, _, _| {}));
        }
        let sender = Arc::clone(&nodes[1]);
        let h = sim.spawn(sender.machine().proc(), "sender", move |ctx| {
            for len in [fits, fits + 1] {
                sender
                    .group_send(ctx, Bytes::from(vec![5u8; len]))
                    .expect("sequenced");
            }
        });
        sim.run_until_finished(&h).expect("run");
        let sends: Vec<(u64, u64)> = sim
            .take_trace_events()
            .iter()
            .filter(|e| e.layer == Layer::Group && e.phase == Phase::Begin && e.name == "grp_send")
            .map(|e| (e.args.get("bytes").unwrap(), e.args.get("bb").unwrap()))
            .collect();
        assert_eq!(
            sends,
            [(fits as u64, 0), (fits as u64 + 1, 1)],
            "{}: (bytes, bb) per send",
            which.name()
        );
    }
}

#[test]
fn group_survives_packet_loss_both_impls() {
    for which in all_impls() {
        let mut sim = Simulation::new(11);
        let (net, nodes) = build_world(&mut sim, 3, &which);
        net.faults().lock().rx_loss_prob = 0.04;
        let log = install_collectors(&nodes);
        let per_sender = 10usize;
        for n in nodes.iter() {
            let n = Arc::clone(n);
            sim.spawn(
                n.machine().proc(),
                &format!("send{}", n.node()),
                move |ctx| {
                    for _ in 0..per_sender {
                        n.group_send(ctx, Bytes::from(vec![7u8; 24]))
                            .expect("sequenced");
                    }
                },
            );
        }
        sim.run().expect("run");
        let log = log.lock().expect("log");
        let total = per_sender * nodes.len();
        for node_log in log.iter() {
            assert_eq!(node_log.len(), total, "all messages delivered despite loss");
            assert_eq!(node_log, &log[0]);
        }
    }
}

/// With the sequencer's machine down for the whole send, a group send
/// makes exactly `send_retries` transmissions — the first plus one
/// per `retransmit` note — and then reports the timeout, on every stack.
#[test]
fn group_send_gives_up_after_send_retries_transmissions() {
    for which in all_impls() {
        let mut sim = Simulation::new(17);
        sim.enable_tracing();
        let config = PandaConfig {
            group: GroupConfig {
                send_timeout: ms(10),
                send_retries: 4,
                ..GroupConfig::default()
            },
            ..PandaConfig::default()
        };
        let (world, nodes) = testutil::build_world(&mut sim, 2, which, &config);
        let sequencer = match which {
            Stack::UserDedicated => world.machines.len() - 1,
            _ => config.sequencer_node as usize,
        };
        let mac = world.machines[sequencer].mac();
        world.net.faults().lock().crash(mac);
        for n in &nodes {
            n.set_group_handler(Arc::new(|_, _| panic!("nothing is sequenced")));
        }
        let sender = Arc::clone(&nodes[1]);
        let h = sim.spawn(sender.machine().proc(), "sender", move |ctx| {
            let sent = sender.group_send(ctx, Bytes::from_static(b"lost"));
            assert_eq!(sent, Err(CommError::Timeout), "{}", which.name());
        });
        sim.run_until_finished(&h).expect("run");
        let retransmits = sim
            .take_trace_events()
            .iter()
            .filter(|e| e.layer == Layer::Group && e.name == "retransmit")
            .count() as u32;
        assert_eq!(
            retransmits + 1,
            config.group.send_retries,
            "{}: transmissions",
            which.name()
        );
    }
}

#[test]
fn rpc_survives_packet_loss_both_impls() {
    for which in [Stack::Kernel, Stack::User] {
        let mut sim = Simulation::new(13);
        let (net, nodes) = build_world(&mut sim, 2, &which);
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        let replier = Arc::clone(&nodes[1]);
        nodes[1].set_rpc_handler(Arc::new(move |ctx, _from, req, ticket| {
            c2.fetch_add(1, Ordering::SeqCst);
            replier.reply(ctx, ticket, req);
        }));
        for n in &nodes {
            n.set_group_handler(Arc::new(|_, _| {}));
        }
        net.faults().lock().rx_loss_prob = 0.05;
        let client = Arc::clone(&nodes[0]);
        let h = sim.spawn(client.machine().proc(), "client", move |ctx| {
            for i in 0..30u32 {
                let body = Bytes::from(i.to_be_bytes().to_vec());
                let reply = client.rpc(ctx, 1, body.clone()).expect("rpc recovers");
                assert_eq!(reply, body);
            }
        });
        sim.run_until_finished(&h).expect("run");
        // At-most-once: every call executed exactly once even when requests
        // or replies were retransmitted.
        assert_eq!(counter.load(Ordering::SeqCst), 30);
    }
}

#[test]
fn user_space_cheaper_for_async_replies_kernel_cheaper_for_plain_rpc() {
    // The paper's core finding at micro level: measure a plain RPC and a
    // deferred-reply RPC on both implementations and compare the shapes.
    fn measure(which: Stack, deferred: bool) -> f64 {
        let mut sim = Simulation::new(21);
        let (_net, nodes) = build_world(&mut sim, 2, &which);
        let replier = Arc::clone(&nodes[1]);
        let pending: SimChannel<panda::ReplyTicket> = SimChannel::new();
        if deferred {
            let pending_in = pending.clone();
            nodes[1].set_rpc_handler(Arc::new(move |ctx, _f, _r, t| {
                let _ = pending_in.send(ctx, t);
            }));
            let r2 = Arc::clone(&nodes[1]);
            sim.spawn(nodes[1].machine().proc(), "async-replier", move |ctx| {
                while let Some(t) = pending.recv(ctx) {
                    r2.reply(ctx, t, Bytes::from_static(b"ok"));
                }
            });
        } else {
            nodes[1].set_rpc_handler(Arc::new(move |ctx, _f, _r, t| {
                replier.reply(ctx, t, Bytes::from_static(b"ok"));
            }));
        }
        for n in &nodes {
            n.set_group_handler(Arc::new(|_, _| {}));
        }
        let client = Arc::clone(&nodes[0]);
        let elapsed = Arc::new(AtomicU64::new(0));
        let e2 = Arc::clone(&elapsed);
        let h = sim.spawn(client.machine().proc(), "client", move |ctx| {
            let reps = 20;
            let t0 = ctx.now();
            for _ in 0..reps {
                client.rpc(ctx, 1, Bytes::from_static(b"x")).expect("rpc");
            }
            e2.store((ctx.now() - t0).as_nanos() / reps, Ordering::SeqCst);
        });
        sim.run_until_finished(&h).expect("run");
        elapsed.load(Ordering::SeqCst) as f64 / 1000.0
    }
    let kernel_plain = measure(Stack::Kernel, false);
    let user_plain = measure(Stack::User, false);
    let kernel_deferred = measure(Stack::Kernel, true);
    let user_deferred = measure(Stack::User, true);
    assert!(
        kernel_plain < user_plain,
        "plain RPC: kernel {kernel_plain:.0}us must beat user {user_plain:.0}us"
    );
    let kernel_penalty = kernel_deferred - kernel_plain;
    let user_penalty = user_deferred - user_plain;
    assert!(
        user_penalty < kernel_penalty,
        "deferring the reply must hurt the kernel path more \
         (kernel +{kernel_penalty:.0}us vs user +{user_penalty:.0}us)"
    );
}

#[test]
fn nonblocking_broadcast_hides_latency_and_stays_ordered() {
    // The paper's Section 6 extension, only possible in user space: send
    // without waiting for the sequencer, flush before the result is needed.
    let mut sim = Simulation::new(31);
    // Built directly (not through build_world): the test needs the concrete
    // UserSpacePanda type for its nonblocking group_module() extension.
    let machines = testutil::boot_machines(&mut sim, 3).machines;
    let nodes = panda::UserSpacePanda::build(&mut sim, &machines, &panda::PandaConfig::default());
    let order: Arc<StdMutex<Vec<Vec<u8>>>> = Arc::new(StdMutex::new(vec![Vec::new(); nodes.len()]));
    for (i, n) in nodes.iter().enumerate() {
        let order = Arc::clone(&order);
        n.set_group_handler(Arc::new(move |_ctx, d: GroupDelivery| {
            order.lock().expect("order")[i].push(d.payload[0]);
        }));
        n.set_rpc_handler(Arc::new(|_, _, _, _| {}));
    }
    let sender = Arc::clone(&nodes[0]);
    let elapsed_async = Arc::new(AtomicU64::new(0));
    let ea = Arc::clone(&elapsed_async);
    let h = sim.spawn(nodes[0].machine().proc(), "sender", move |ctx| {
        let group = sender.group_module();
        // Nonblocking burst: returns immediately per message.
        let t0 = ctx.now();
        for k in 0..10u8 {
            group.send_nonblocking(ctx, Bytes::from(vec![k; 16]));
        }
        let fire_time = ctx.now() - t0;
        group.flush(ctx).expect("flush");
        ea.store(fire_time.as_nanos(), Ordering::SeqCst);
        // A blocking send for comparison: one full sequencer round trip.
        let t0 = ctx.now();
        sender
            .group_send(ctx, Bytes::from(vec![99u8; 16]))
            .expect("send");
        let one_blocking = ctx.now() - t0;
        assert!(
            fire_time < one_blocking * 10,
            "10 nonblocking sends ({fire_time}) must beat 10 blocking round trips"
        );
    });
    sim.run_until_finished(&h).expect("run");
    let _ = sim.run(); // drain remaining deliveries everywhere
    let order = order.lock().expect("order");
    for node_log in order.iter() {
        assert_eq!(node_log.len(), 11, "all messages delivered");
        assert_eq!(
            node_log, &order[0],
            "identical total order with async sends"
        );
        // The sender's own burst stays in submission order.
        assert_eq!(&node_log[..10], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }
    assert!(elapsed_async.load(Ordering::SeqCst) > 0);
}

#[test]
fn nonblocking_flush_recovers_from_lost_request() {
    let mut sim = Simulation::new(33);
    let world = testutil::boot_machines(&mut sim, 2);
    let (net, machines) = (world.net, world.machines);
    let nodes = panda::UserSpacePanda::build(&mut sim, &machines, &panda::PandaConfig::default());
    let delivered = Arc::new(AtomicU64::new(0));
    for n in &nodes {
        let delivered = Arc::clone(&delivered);
        n.set_group_handler(Arc::new(move |_ctx, _d| {
            delivered.fetch_add(1, Ordering::SeqCst);
        }));
        n.set_rpc_handler(Arc::new(|_, _, _, _| {}));
    }
    let sender = Arc::clone(&nodes[1]); // not the sequencer: traffic hits the wire
    let h = sim.spawn(nodes[1].machine().proc(), "sender", move |ctx| {
        // Kill the next frame: the async request dies on the wire.
        net.faults().lock().force_drop_next = 1;
        sender
            .group_module()
            .send_nonblocking(ctx, Bytes::from_static(b"x"));
        sender.group_module().flush(ctx).expect("flush retransmits");
    });
    sim.run_until_finished(&h).expect("run");
    let _ = sim.run();
    assert_eq!(
        delivered.load(Ordering::SeqCst),
        2,
        "delivered at both nodes"
    );
}

/// Builds a stack whose group timer is zero.
fn build_with_zero_group_timer(which: Stack) {
    let mut sim = Simulation::new(1);
    let config = PandaConfig {
        group: GroupConfig {
            resync_interval: desim::SimDuration::ZERO,
            ..GroupConfig::default()
        },
        ..PandaConfig::default()
    };
    let _ = testutil::build_world(&mut sim, 3, which, &config);
}

/// A zero group timer is not "off": every group deadline would be due at
/// once, forever. Both stacks reject it when they are built.
#[test]
#[should_panic(expected = "resync_interval must be non-zero")]
fn user_stack_rejects_a_zero_resync_interval() {
    build_with_zero_group_timer(Stack::User);
}

/// As [`user_stack_rejects_a_zero_resync_interval`], for the kernel
/// stack, where zero used to mean "no resync".
#[test]
#[should_panic(expected = "resync_interval must be non-zero")]
fn kernel_stack_rejects_a_zero_resync_interval() {
    build_with_zero_group_timer(Stack::Kernel);
}
