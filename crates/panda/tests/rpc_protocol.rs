//! Protocol-level tests of the user-space Panda RPC: stop-and-wait
//! serialization, piggybacked vs explicit acknowledgements, duplicate
//! suppression, and the Working (server-alive) mechanism.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use amoeba::Machine;
use bytes::Bytes;
use chaos::testutil;
use desim::{ms, SimChannel, Simulation};
use ethernet::Network;
use panda::{Panda, PandaConfig, UserSpacePanda};

fn world(
    sim: &mut Simulation,
    n: u32,
    cfg: &PandaConfig,
) -> (Network, Vec<Machine>, Vec<Arc<UserSpacePanda>>) {
    // Booted through the shared scaffold; built directly as UserSpacePanda
    // because these tests poke protocol internals the Panda trait hides.
    let w = testutil::boot_machines(sim, n);
    let nodes = UserSpacePanda::build(sim, &w.machines, cfg);
    (w.net, w.machines, nodes)
}

#[test]
fn stop_and_wait_serializes_calls_per_connection() {
    // Two client threads on node 0 target the same server: the connection
    // lock must serialize them (the 2-way protocol allows one outstanding
    // request per connection).
    let mut sim = Simulation::new(1);
    let (_net, machines, nodes) = world(&mut sim, 2, &PandaConfig::default());
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
    for n in &nodes {
        n.set_group_handler(Arc::new(|_, _| {}));
    }
    nodes[0].set_rpc_handler(Arc::new(|_, _, _, _| {}));
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

#[test]
fn quiet_client_sends_explicit_ack() {
    // After a reply with no follow-up request, the explicit-ack daemon must
    // release the server's cached reply.
    let mut sim = Simulation::new(2);
    let cfg = PandaConfig {
        ack_delay: ms(3),
        ..PandaConfig::default()
    };
    let (net, machines, nodes) = world(&mut sim, 2, &cfg);
    let replier = Arc::clone(&nodes[1]);
    nodes[1].set_rpc_handler(Arc::new(move |ctx, _f, req, t| {
        replier.reply(ctx, t, req);
    }));
    for n in &nodes {
        n.set_group_handler(Arc::new(|_, _| {}));
    }
    nodes[0].set_rpc_handler(Arc::new(|_, _, _, _| {}));
    let client = Arc::clone(&nodes[0]);
    let h = sim.spawn(machines[0].proc(), "client", move |ctx| {
        client
            .rpc(ctx, 1, Bytes::from_static(b"only"))
            .expect("rpc");
        // Stay quiet past the ack delay.
        ctx.sleep(ms(20));
    });
    sim.run_until_finished(&h).expect("run");
    let _ = sim.run();
    // Exactly: a locate query and answer each way, request, reply, and the
    // explicit ack (six frames without it).
    assert_eq!(
        net.total_stats().frames,
        7,
        "the explicit ack must be the one frame after request and reply"
    );
}

#[test]
fn back_to_back_calls_piggyback_the_ack() {
    // Continuous calls piggyback acknowledgements: wire frames stay at
    // request+reply per call (at most stray acks at the boundaries).
    let mut sim = Simulation::new(3);
    let (net, machines, nodes) = world(&mut sim, 2, &PandaConfig::default());
    let replier = Arc::clone(&nodes[1]);
    nodes[1].set_rpc_handler(Arc::new(move |ctx, _f, req, t| {
        replier.reply(ctx, t, req);
    }));
    for n in &nodes {
        n.set_group_handler(Arc::new(|_, _| {}));
    }
    nodes[0].set_rpc_handler(Arc::new(|_, _, _, _| {}));
    let calls = 20u64;
    let client = Arc::clone(&nodes[0]);
    let h = sim.spawn(machines[0].proc(), "client", move |ctx| {
        for _ in 0..calls {
            client.rpc(ctx, 1, Bytes::from_static(b"x")).expect("rpc");
        }
    });
    sim.run_until_finished(&h).expect("run");
    let frames_during_calls = net.total_stats().frames;
    // 2 per call + locate query/reply + at most one trailing explicit ack.
    assert!(
        frames_during_calls <= 2 * calls + 4,
        "piggybacking keeps the wire at ~2 frames per call, saw {frames_during_calls}"
    );
}

#[test]
fn working_probe_waits_out_long_server_holds() {
    // The server parks the ticket far longer than the full retry budget;
    // the Working probe must keep the client from timing out.
    let mut sim = Simulation::new(4);
    let cfg = PandaConfig {
        rpc_timeout: ms(5),
        rpc_retries: 2, // raw budget (5+10+20 ms with backoff) << hold time
        ..PandaConfig::default()
    };
    let (_net, machines, nodes) = world(&mut sim, 2, &cfg);
    let held: SimChannel<panda::ReplyTicket> = SimChannel::new();
    let held_in = held.clone();
    nodes[1].set_rpc_handler(Arc::new(move |ctx, _f, _req, t| {
        let _ = held_in.send(ctx, t);
    }));
    for n in &nodes {
        n.set_group_handler(Arc::new(|_, _| {}));
    }
    nodes[0].set_rpc_handler(Arc::new(|_, _, _, _| {}));
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
        rpc_timeout: ms(10),
        ..PandaConfig::default()
    };
    let (net, machines, nodes) = world(&mut sim, 2, &cfg);
    let executions = Arc::new(AtomicU64::new(0));
    let ex = Arc::clone(&executions);
    let replier = Arc::clone(&nodes[1]);
    nodes[1].set_rpc_handler(Arc::new(move |ctx, _f, req, t| {
        ex.fetch_add(1, Ordering::SeqCst);
        replier.reply(ctx, t, req);
    }));
    for n in &nodes {
        n.set_group_handler(Arc::new(|_, _| {}));
    }
    nodes[0].set_rpc_handler(Arc::new(|_, _, _, _| {}));
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
fn held_request_is_not_rerun_after_a_lost_explicit_ack() {
    // The explicit ack of the warm-up reply is lost, so the next request
    // piggybacks nothing. While a guard holds that request, its
    // retransmissions must get Working, not run the handler again.
    let mut sim = Simulation::new(6);
    let cfg = PandaConfig {
        rpc_timeout: ms(5),
        ack_delay: ms(3),
        ..PandaConfig::default()
    };
    let (net, machines, nodes) = world(&mut sim, 2, &cfg);
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
    for n in &nodes {
        n.set_group_handler(Arc::new(|_, _| {}));
    }
    nodes[0].set_rpc_handler(Arc::new(|_, _, _, _| {}));
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
        // The next frame on the wire is the explicit ack.
        net.faults().lock().force_drop_next = 1;
        ctx.sleep(ms(20));
        let r = client
            .rpc(ctx, 1, Bytes::from_static(b"hold"))
            .expect("held rpc");
        assert_eq!(&r[..], b"released");
    });
    sim.run_until_finished(&h).expect("run");
    assert_eq!(
        executions.load(Ordering::SeqCst),
        2,
        "warmup + one execution of the held request"
    );
}
