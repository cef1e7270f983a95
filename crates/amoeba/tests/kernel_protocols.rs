//! End-to-end tests of the kernel-space protocols: 3-way RPC semantics,
//! at-most-once under loss, the same-thread reply restriction, totally
//! ordered group communication, and the BB large-message method.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use amoeba::{GroupMember, GroupSpec, Machine, Port, RpcClient, RpcConfig, RpcServer};
use bytes::Bytes;
use chaos::testutil;
use desim::{ms, Simulation};
use ethernet::Network;

fn boot_cluster(sim: &mut Simulation, n: u32) -> (Network, Vec<Machine>) {
    let w = testutil::boot_machines(sim, n);
    (w.net, w.machines)
}

fn payload(n: usize) -> Bytes {
    Bytes::from((0..n).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
}

// ---------------------------------------------------------------------------
// RPC
// ---------------------------------------------------------------------------

#[test]
fn rpc_request_reply_roundtrip() {
    let mut sim = Simulation::new(1);
    let (_net, machines) = boot_cluster(&mut sim, 2);
    let port = Port(7);
    let server = RpcServer::register(&machines[1], port);
    let client = RpcClient::install(&machines[0], RpcConfig::default());

    sim.spawn_daemon(machines[1].proc(), "server", move |ctx| {
        while let Some((req, token)) = server.get_request(ctx) {
            let mut reply = req.to_vec();
            reply.reverse();
            server.put_reply(ctx, token, Bytes::from(reply));
        }
    });
    let h = sim.spawn(machines[0].proc(), "client", move |ctx| {
        let reply = client
            .trans(ctx, port, Bytes::from_static(b"hello"))
            .expect("rpc ok");
        assert_eq!(&reply[..], b"olleh");
    });
    sim.run_until_finished(&h).expect("run");
}

#[test]
fn rpc_client_pays_no_context_switch() {
    // The kernel-space fast path: the reply is handed to the blocked client
    // from the interrupt handler, so the client machine sees zero
    // thread-level context switches for a pure RPC exchange.
    let mut sim = Simulation::new(1);
    let (_net, machines) = boot_cluster(&mut sim, 2);
    let port = Port(7);
    let server = RpcServer::register(&machines[1], port);
    let client = RpcClient::install(&machines[0], RpcConfig::default());
    sim.spawn_daemon(machines[1].proc(), "server", move |ctx| {
        while let Some((req, token)) = server.get_request(ctx) {
            server.put_reply(ctx, token, req);
        }
    });
    let h = sim.spawn(machines[0].proc(), "client", move |ctx| {
        for _ in 0..5 {
            client.trans(ctx, port, payload(64)).expect("rpc ok");
        }
    });
    sim.run_until_finished(&h).expect("run");
    let report = sim.report();
    let client_proc = report
        .procs
        .iter()
        .find(|p| p.name == "m0")
        .expect("client proc");
    assert_eq!(
        client_proc.switches, 0,
        "kernel RPC must not context-switch the client machine"
    );
    assert!(client_proc.interrupt_time > desim::SimDuration::ZERO);
}

#[test]
fn rpc_large_request_fragments() {
    let mut sim = Simulation::new(1);
    let (net, machines) = boot_cluster(&mut sim, 2);
    let port = Port(9);
    let server = RpcServer::register(&machines[1], port);
    let client = RpcClient::install(&machines[0], RpcConfig::default());
    sim.spawn_daemon(machines[1].proc(), "server", move |ctx| {
        while let Some((req, token)) = server.get_request(ctx) {
            assert_eq!(req, payload(8000));
            server.put_reply(ctx, token, Bytes::new());
        }
    });
    let h = sim.spawn(machines[0].proc(), "client", move |ctx| {
        client.trans(ctx, port, payload(8000)).expect("rpc ok");
    });
    sim.run_until_finished(&h).expect("run");
    // 8000B + 56B header = 6 fragments, plus reply, ack, locate, reply.
    assert!(net.total_stats().frames >= 6 + 2);
}

#[test]
fn rpc_survives_lost_request_and_reply() {
    let mut sim = Simulation::new(7);
    let (net, machines) = boot_cluster(&mut sim, 2);
    let port = Port(1);
    let server = RpcServer::register(&machines[1], port);
    let client = RpcClient::install(
        &machines[0],
        RpcConfig {
            timeout: ms(5),
            retries: 10,
        },
    );
    let executions = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
    let exec2 = executions.clone();
    sim.spawn_daemon(machines[1].proc(), "server", move |ctx| {
        while let Some((req, token)) = server.get_request(ctx) {
            exec2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            server.put_reply(ctx, token, req);
        }
    });
    let net2 = net.clone();
    let h = sim.spawn(machines[0].proc(), "client", move |ctx| {
        // Warm the route first so the locate is not part of the drop dance.
        client.trans(ctx, port, payload(4)).expect("warmup");
        // Drop the next wire frame: the request dies, retransmit recovers.
        net2.faults().lock().force_drop_next = 1;
        let r = client.trans(ctx, port, payload(10)).expect("recovers");
        assert_eq!(r, payload(10));
        // Now drop two frames: request retransmit then reply both survive
        // eventually via further retries.
        net2.faults().lock().force_drop_next = 2;
        let r = client
            .trans(ctx, port, payload(20))
            .expect("recovers again");
        assert_eq!(r, payload(20));
    });
    sim.run_until_finished(&h).expect("run");
    // At-most-once: the lost-reply case must not have re-executed the
    // request (cached reply retransmission served it).
    let execs = executions.load(std::sync::atomic::Ordering::SeqCst);
    assert_eq!(execs, 3, "each trans executed exactly once");
}

/// Which of thread A's frames [`race_two_calls`] loses.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Lose {
    Request,
    Reply,
}

/// Two `get_request` daemons serve one port on machine 1. After a warm-up
/// call, thread A on machine 0 calls after `a_delay` and thread B after
/// `b_delay`, so B's later call is acked while A's is still open; both must
/// get their own request back. Returns how many times the server ran a
/// request.
fn race_two_calls(a_delay: u64, b_delay: u64, lose: Lose) -> u32 {
    let mut sim = Simulation::new(11);
    let (net, machines) = boot_cluster(&mut sim, 2);
    let port = Port(3);
    let server = RpcServer::register(&machines[1], port);
    let executions = Arc::new(AtomicU32::new(0));
    for d in 0..2 {
        let (server, net, executions) = (server.clone(), net.clone(), executions.clone());
        sim.spawn_daemon(machines[1].proc(), &format!("server{d}"), move |ctx| {
            while let Some((req, token)) = server.get_request(ctx) {
                executions.fetch_add(1, Ordering::SeqCst);
                if lose == Lose::Reply && &req[..] == b"A" {
                    // Long enough for B's call to be answered and acked.
                    ctx.sleep(ms(50));
                    net.faults().lock().force_drop_next = 1;
                }
                server.put_reply(ctx, token, req);
            }
        });
    }
    let client = RpcClient::install(&machines[0], RpcConfig::default());
    let h = sim.spawn(machines[0].proc(), "A", move |ctx| {
        client.trans(ctx, port, payload(4)).expect("warmup");
        let b_client = client.clone();
        let b = ctx.spawn("B", move |ctx| {
            ctx.sleep(ms(b_delay));
            let r = b_client.trans(ctx, port, Bytes::from_static(b"B"));
            assert_eq!(&r.expect("B gets its reply")[..], b"B");
        });
        ctx.sleep(ms(a_delay));
        if lose == Lose::Request {
            net.faults().lock().force_drop_next = 1;
        }
        let r = client.trans(ctx, port, Bytes::from_static(b"A"));
        assert_eq!(&r.expect("A gets its reply")[..], b"A");
        b.join(ctx);
    });
    sim.run_until_finished(&h).expect("run");
    executions.load(Ordering::SeqCst)
}

#[test]
fn rpc_lost_reply_resent_after_a_later_call_is_acked() {
    // A's retransmission must get the cached reply, not be dropped as a
    // stale duplicate because a later seq was acked.
    assert_eq!(race_two_calls(0, 1, Lose::Reply), 3, "each call ran once");
}

#[test]
fn rpc_lost_request_runs_after_a_later_call_is_acked() {
    // The server never ran A's call, so its retransmission is delivered.
    assert_eq!(race_two_calls(1, 3, Lose::Request), 3, "each call ran once");
}

#[test]
fn rpc_times_out_when_server_missing() {
    let mut sim = Simulation::new(1);
    let (_net, machines) = boot_cluster(&mut sim, 2);
    let client = RpcClient::install(
        &machines[0],
        RpcConfig {
            timeout: ms(2),
            retries: 2,
        },
    );
    let h = sim.spawn(machines[0].proc(), "client", move |ctx| {
        let err = client
            .trans(ctx, Port(0xdead), payload(4))
            .expect_err("no server");
        assert_eq!(err, amoeba::RpcError::Timeout);
    });
    sim.run_until_finished(&h).expect("run");
}

#[test]
#[should_panic(expected = "put_reply from the thread that issued get_request")]
fn rpc_reply_from_wrong_thread_rejected() {
    let mut sim = Simulation::new(1);
    let (_net, machines) = boot_cluster(&mut sim, 2);
    let port = Port(2);
    let server = RpcServer::register(&machines[1], port);
    let client = RpcClient::install(&machines[0], RpcConfig::default());
    let server2 = server.clone();
    sim.spawn_daemon(machines[1].proc(), "server", move |ctx| {
        let Some((req, token)) = server.get_request(ctx) else {
            return;
        };
        // Hand the token to a different thread — Amoeba forbids this.
        let srv = server2.clone();
        let helper = ctx.spawn("helper", move |ctx2| {
            srv.put_reply(ctx2, token, req);
        });
        helper.join(ctx);
    });
    sim.spawn(machines[0].proc(), "client", move |ctx| {
        let _ = client.trans(ctx, port, payload(4));
    });
    let _ = sim.run();
}

// ---------------------------------------------------------------------------
// Group communication
// ---------------------------------------------------------------------------

/// Spawns a collector on each member that records delivered (sender, seq,
/// first payload byte) triples into a shared log.
type DeliveryLog = std::sync::Arc<std::sync::Mutex<Vec<Vec<(u32, u64, u8)>>>>;

fn spawn_collectors(
    sim: &mut Simulation,
    members: &[GroupMember],
    expect_each: usize,
) -> DeliveryLog {
    let log: DeliveryLog =
        std::sync::Arc::new(std::sync::Mutex::new(vec![Vec::new(); members.len()]));
    for (i, m) in members.iter().enumerate() {
        let m = m.clone();
        let log = log.clone();
        sim.spawn(m.machine().proc(), &format!("collect{i}"), move |ctx| {
            for _ in 0..expect_each {
                let msg = m.recv(ctx).expect("only a daemon reads None");
                log.lock().expect("log")[i].push((
                    msg.sender,
                    msg.seq,
                    msg.payload.first().copied().unwrap_or(0),
                ));
            }
        });
    }
    log
}

fn make_group(_sim: &mut Simulation, machines: &[Machine], sequencer: usize) -> Vec<GroupMember> {
    let spec = GroupSpec::build(1, machines.len(), sequencer);
    machines
        .iter()
        .enumerate()
        .map(|(i, m)| GroupMember::join(m, spec.clone(), i as u32))
        .collect()
}

#[test]
fn group_total_order_across_members() {
    let mut sim = Simulation::new(5);
    let (_net, machines) = boot_cluster(&mut sim, 4);
    let members = make_group(&mut sim, &machines, 0);
    let per_sender = 10usize;
    let total = per_sender * members.len();
    let log = spawn_collectors(&mut sim, &members, total);
    for (i, m) in members.iter().enumerate() {
        let m = m.clone();
        sim.spawn(m.machine().proc(), &format!("send{i}"), move |ctx| {
            for k in 0..per_sender {
                let body = Bytes::from(vec![(i * per_sender + k) as u8; 16]);
                m.send(ctx, body).expect("sequenced");
            }
        });
    }
    sim.run().expect("run");
    let log = log.lock().expect("log");
    assert_eq!(log[0].len(), total);
    // Sequence numbers are contiguous from 1 and identical at every member.
    for member_log in log.iter() {
        for (idx, (_, seq, _)) in member_log.iter().enumerate() {
            assert_eq!(*seq, idx as u64 + 1);
        }
        assert_eq!(member_log, &log[0], "identical total order everywhere");
    }
}

#[test]
fn group_send_returns_sequence_number() {
    let mut sim = Simulation::new(2);
    let (_net, machines) = boot_cluster(&mut sim, 2);
    let members = make_group(&mut sim, &machines, 0);
    let _log = spawn_collectors(&mut sim, &members, 3);
    let m1 = members[1].clone();
    let h = sim.spawn(m1.machine().proc(), "sender", move |ctx| {
        assert_eq!(m1.send(ctx, payload(4)).expect("ok"), 1);
        assert_eq!(m1.send(ctx, payload(4)).expect("ok"), 2);
        assert_eq!(m1.send(ctx, payload(4)).expect("ok"), 3);
    });
    sim.run_until_finished(&h).expect("run");
    let _ = sim.run();
}

#[test]
fn group_large_messages_use_bb_and_arrive_intact() {
    let mut sim = Simulation::new(3);
    let (_net, machines) = boot_cluster(&mut sim, 3);
    let members = make_group(&mut sim, &machines, 0);
    let body = payload(8000); // well past the BB threshold
    let check: DeliveryLog =
        std::sync::Arc::new(std::sync::Mutex::new(vec![Vec::new(); members.len()]));
    for (i, m) in members.iter().enumerate() {
        let m = m.clone();
        let check = check.clone();
        let expected = body.clone();
        sim.spawn(m.machine().proc(), &format!("collect{i}"), move |ctx| {
            let msg = m.recv(ctx).expect("only a daemon reads None");
            assert_eq!(msg.payload, expected, "BB payload intact at member {i}");
            check.lock().expect("log")[i].push((msg.sender, msg.seq, 0));
        });
    }
    let sender = members[1].clone();
    let body2 = body.clone();
    sim.spawn(sender.machine().proc(), "sender", move |ctx| {
        sender.send(ctx, body2).expect("sequenced");
    });
    sim.run().expect("run");
    for member_log in check.lock().expect("log").iter() {
        assert_eq!(member_log, &[(1, 1, 0)]);
    }
}

#[test]
fn group_recovers_from_lost_sequencer_multicast() {
    let mut sim = Simulation::new(11);
    let (net, machines) = boot_cluster(&mut sim, 3);
    let members = make_group(&mut sim, &machines, 0);
    let total = 6usize;
    let log = spawn_collectors(&mut sim, &members, total);
    let sender = members[1].clone();
    let net2 = net.clone();
    sim.spawn(sender.machine().proc(), "sender", move |ctx| {
        sender.send(ctx, payload(8)).expect("warm");
        // Kill the next two frames (the REQ or the sequenced multicast):
        // retransmission and gap-repair must recover.
        net2.faults().lock().force_drop_next = 2;
        for _ in 0..total - 1 {
            sender.send(ctx, payload(8)).expect("recovered");
        }
    });
    sim.run().expect("run");
    let log = log.lock().expect("log");
    for member_log in log.iter() {
        assert_eq!(member_log.len(), total);
        assert_eq!(member_log, &log[0]);
    }
}

#[test]
fn group_random_loss_still_totally_ordered() {
    let mut sim = Simulation::new(17);
    let (net, machines) = boot_cluster(&mut sim, 3);
    let members = make_group(&mut sim, &machines, 0);
    net.faults().lock().rx_loss_prob = 0.05;
    let per_sender = 15usize;
    let total = per_sender * members.len();
    let log = spawn_collectors(&mut sim, &members, total);
    for (i, m) in members.iter().enumerate() {
        let m = m.clone();
        sim.spawn(m.machine().proc(), &format!("send{i}"), move |ctx| {
            for _ in 0..per_sender {
                m.send(ctx, payload(40)).expect("sequenced despite loss");
            }
        });
    }
    sim.run().expect("run");
    let log = log.lock().expect("log");
    for member_log in log.iter() {
        assert_eq!(member_log.len(), total);
        assert_eq!(member_log, &log[0], "total order survives 5% receiver loss");
    }
}
