//! Protocol-level tests of the user-space Panda RPC: stop-and-wait
//! serialization, two frames per call with no explicit acknowledgement,
//! the one reply held per client until its next request, duplicate
//! suppression, and the Working (server-alive) mechanism.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use amoeba::rpc::core::Kind;
use amoeba::{FlipDest, Machine, RpcConfig};
use bytes::Bytes;
use chaos::testutil;
use desim::trace::Layer;
use desim::{ms, SimChannel, Simulation};
use ethernet::Network;
use panda::{panda_addr, Module, Panda, PandaConfig, PandaHeader, UserSpacePanda};

/// Two nodes: node 0 is the client, node 1 the server, whose RPC handler
/// each test installs.
fn world(
    sim: &mut Simulation,
    cfg: &PandaConfig,
) -> (Network, Vec<Machine>, Vec<Arc<UserSpacePanda>>) {
    // Booted through the shared scaffold; built directly as UserSpacePanda
    // because these tests poke protocol internals the Panda trait hides.
    let w = testutil::boot_machines(sim, 2);
    let nodes = UserSpacePanda::build(sim, &w.machines, cfg);
    for n in &nodes {
        n.set_group_handler(Arc::new(|_, _| {}));
    }
    nodes[0].set_rpc_handler(Arc::new(|_, _, _, _| {}));
    (w.net, w.machines, nodes)
}

/// Makes node 1 echo every request; counts the handler's executions.
fn echo(nodes: &[Arc<UserSpacePanda>]) -> Arc<AtomicU64> {
    let executions = Arc::new(AtomicU64::new(0));
    let (ex, replier) = (Arc::clone(&executions), Arc::clone(&nodes[1]));
    nodes[1].set_rpc_handler(Arc::new(move |ctx, _f, req, t| {
        ex.fetch_add(1, Ordering::SeqCst);
        replier.reply(ctx, t, req);
    }));
    executions
}

#[test]
fn stop_and_wait_serializes_calls_per_connection() {
    // Two client threads on node 0 target the same server: the connection
    // lock must serialize them (the 2-way protocol allows one outstanding
    // request per connection).
    let mut sim = Simulation::new(1);
    let (_net, machines, nodes) = world(&mut sim, &PandaConfig::default());
    let in_service = Arc::new(AtomicU64::new(0));
    let overlap_seen = Arc::new(AtomicU64::new(0));
    let (ins, ovl) = (Arc::clone(&in_service), Arc::clone(&overlap_seen));
    let replier = Arc::clone(&nodes[1]);
    nodes[1].set_rpc_handler(Arc::new(move |ctx, _f, req, t| {
        if ins.fetch_add(1, Ordering::SeqCst) > 0 {
            ovl.fetch_add(1, Ordering::SeqCst);
        }
        ins.fetch_sub(1, Ordering::SeqCst);
        replier.reply(ctx, t, req);
    }));
    for t in 0..2 {
        let client = Arc::clone(&nodes[0]);
        sim.spawn(machines[0].proc(), &format!("c{t}"), move |ctx| {
            for _ in 0..10 {
                client.rpc(ctx, 1, Bytes::from_static(b"x")).expect("rpc");
            }
        });
    }
    sim.run().expect("run");
    assert_eq!(
        overlap_seen.load(Ordering::SeqCst),
        0,
        "one request in flight per conn"
    );
}

/// Sends node 0's request `seq` to node 1 again, as a retransmission would
/// but outside any call, and runs until the world drains.
fn retransmit(sim: &mut Simulation, client: &Machine, seq: u64) {
    let machine = client.clone();
    let h = sim.spawn(client.proc(), "retransmit", move |ctx| {
        let header = PandaHeader {
            module: Module::Rpc,
            kind: Kind::Request.to_byte(),
            src: 0,
            msg_id: seq,
            a: seq,
            b: 0,
        };
        let dst = FlipDest::Addr(panda_addr(1));
        machine.flip_send_syscall(ctx, panda_addr(0), dst, header.encode_with(b"x"));
    });
    sim.run_until_finished(&h).expect("run");
    sim.run().expect("drain");
}

/// How many RPC trace notes named `name` the run emitted.
fn counter(sim: &Simulation, name: &str) -> u64 {
    sim.trace_counters()
        .iter()
        .filter(|c| c.layer == Layer::Rpc && c.name == name)
        .map(|c| c.count)
        .sum()
}

#[test]
fn quiet_call_sends_two_frames_and_holds_one_reply() {
    // A call with no follow-up puts only its request and reply on the wire.
    // The server holds that reply until the client's next request: a
    // retransmission of the newest call is answered from it without running
    // the handler, and one of an earlier call, which the newer request
    // acknowledged, is ignored.
    let mut sim = Simulation::new(2);
    sim.enable_tracing();
    let (net, machines, nodes) = world(&mut sim, &PandaConfig::default());
    let executions = echo(&nodes);
    let call = |sim: &mut Simulation| {
        let client = Arc::clone(&nodes[0]);
        let h = sim.spawn(machines[0].proc(), "client", move |ctx| {
            client.rpc(ctx, 1, Bytes::from_static(b"x")).expect("rpc");
        });
        sim.run_until_finished(&h).expect("run");
        sim.run().expect("drain");
    };
    let frames = || net.total_stats().frames;

    call(&mut sim);
    // The client's locate query and its answer, the request and the reply:
    // the server learned the route back from the request, so it needs no
    // locate of its own.
    assert_eq!(frames(), 4);
    retransmit(&mut sim, &machines[0], 1);
    assert_eq!(frames(), 6, "the retransmission and its answer");
    assert_eq!(counter(&sim, "reply_resend"), 1, "from the held reply");

    call(&mut sim);
    assert_eq!(frames(), 8);
    retransmit(&mut sim, &machines[0], 1);
    assert_eq!(frames(), 9, "call 1's reply is no longer held");
    retransmit(&mut sim, &machines[0], 2);
    assert_eq!(frames(), 11, "call 2's reply is held");
    assert_eq!(counter(&sim, "reply_resend"), 2);
    assert_eq!(executions.load(Ordering::SeqCst), 2, "each call ran once");
}

#[test]
fn back_to_back_calls_send_two_frames_each() {
    // Each request acknowledges the previous reply: the wire carries
    // request + reply per call and nothing else, even after the world
    // drains.
    let mut sim = Simulation::new(3);
    let (net, machines, nodes) = world(&mut sim, &PandaConfig::default());
    echo(&nodes);
    let calls = 20u64;
    let client = Arc::clone(&nodes[0]);
    let h = sim.spawn(machines[0].proc(), "client", move |ctx| {
        for _ in 0..calls {
            client.rpc(ctx, 1, Bytes::from_static(b"x")).expect("rpc");
        }
    });
    sim.run_until_finished(&h).expect("run");
    sim.run().expect("drain");
    // 2 per call + the client's locate query and answer; the server routes
    // its replies by the route it learned from the first request.
    assert_eq!(net.total_stats().frames, 2 * calls + 2);
}

#[test]
fn working_probe_waits_out_long_server_holds() {
    // The server parks the ticket far longer than the full retry budget;
    // the Working probe must keep the client from timing out.
    let mut sim = Simulation::new(4);
    let cfg = PandaConfig {
        rpc: RpcConfig {
            timeout: ms(5),
            retries: 2, // raw budget (5+10+20 ms with backoff) << hold time
        },
        ..PandaConfig::default()
    };
    let (_net, machines, nodes) = world(&mut sim, &cfg);
    let held: SimChannel<panda::ReplyTicket> = SimChannel::new();
    let held_in = held.clone();
    nodes[1].set_rpc_handler(Arc::new(move |ctx, _f, _req, t| {
        let _ = held_in.send(ctx, t);
    }));
    let replier = Arc::clone(&nodes[1]);
    sim.spawn(machines[1].proc(), "guard", move |ctx| {
        let t = held.recv(ctx).expect("ticket");
        ctx.sleep(ms(200)); // far beyond the raw retry budget
        replier.reply(ctx, t, Bytes::from_static(b"eventually"));
    });
    let client = Arc::clone(&nodes[0]);
    let h = sim.spawn(machines[0].proc(), "client", move |ctx| {
        let r = client
            .rpc(ctx, 1, Bytes::from_static(b"hold me"))
            .expect("held rpc");
        assert_eq!(&r[..], b"eventually");
        assert!(ctx.now().as_millis_f64() >= 200.0);
    });
    sim.run_until_finished(&h).expect("run");
}

#[test]
fn duplicate_requests_do_not_reexecute() {
    // Force the reply to be lost: the retransmitted request must be served
    // from the reply cache, not by running the handler again.
    let mut sim = Simulation::new(5);
    let cfg = PandaConfig {
        rpc: RpcConfig {
            timeout: ms(10),
            ..PandaConfig::default().rpc
        },
        ..PandaConfig::default()
    };
    let (net, machines, nodes) = world(&mut sim, &cfg);
    let executions = echo(&nodes);
    let client = Arc::clone(&nodes[0]);
    let h = sim.spawn(machines[0].proc(), "client", move |ctx| {
        client
            .rpc(ctx, 1, Bytes::from_static(b"warm"))
            .expect("warmup");
        // Two drops: the request goes through on attempt 2, then the reply
        // dies, and the cached-reply path answers the retransmission.
        net.faults().lock().force_drop_next = 2;
        let r = client
            .rpc(ctx, 1, Bytes::from_static(b"again"))
            .expect("recovers");
        assert_eq!(&r[..], b"again");
    });
    sim.run_until_finished(&h).expect("run");
    assert_eq!(
        executions.load(Ordering::SeqCst),
        2,
        "warmup + one real execution"
    );
}

#[test]
fn held_request_is_not_rerun_after_a_lost_first_transmission() {
    // The held request's first transmission is lost, so the server first
    // sees a retransmission. While a guard holds that request, the later
    // retransmissions must get Working, not run the handler again.
    let mut sim = Simulation::new(6);
    sim.enable_tracing();
    let cfg = PandaConfig {
        rpc: RpcConfig {
            timeout: ms(5),
            ..PandaConfig::default().rpc
        },
        ..PandaConfig::default()
    };
    let (net, machines, nodes) = world(&mut sim, &cfg);
    let executions = Arc::new(AtomicU64::new(0));
    let held: SimChannel<panda::ReplyTicket> = SimChannel::new();
    let (ex, held_in) = (Arc::clone(&executions), held.clone());
    let replier = Arc::clone(&nodes[1]);
    nodes[1].set_rpc_handler(Arc::new(move |ctx, _f, req, t| {
        ex.fetch_add(1, Ordering::SeqCst);
        match &req[..] {
            b"hold" => drop(held_in.send(ctx, t)),
            _ => replier.reply(ctx, t, req),
        }
    }));
    let guard = Arc::clone(&nodes[1]);
    sim.spawn_daemon(machines[1].proc(), "guard", move |ctx| {
        while let Some(t) = held.recv(ctx) {
            ctx.sleep(ms(40));
            guard.reply(ctx, t, Bytes::from_static(b"released"));
        }
    });
    let client = Arc::clone(&nodes[0]);
    let h = sim.spawn(machines[0].proc(), "client", move |ctx| {
        client
            .rpc(ctx, 1, Bytes::from_static(b"warm"))
            .expect("warmup");
        ctx.sleep(ms(20));
        // The next frame on the wire is the held request.
        net.faults().lock().force_drop_next = 1;
        let r = client
            .rpc(ctx, 1, Bytes::from_static(b"hold"))
            .expect("held rpc");
        assert_eq!(&r[..], b"released");
    });
    sim.run_until_finished(&h).expect("run");
    assert!(counter(&sim, "working_tx") >= 1, "held: got Working");
    assert_eq!(
        executions.load(Ordering::SeqCst),
        2,
        "warmup + one execution of the held request"
    );
}
