//! End-to-end FLIP tests over the simulated Ethernet: locate resolution,
//! fragmentation, groups, stale routes, and loss behaviour.

use bytes::Bytes;
use desim::{ms, Ctx, SimChannel, Simulation};
use ethernet::{MacAddr, McastAddr, NetConfig, Network};
use flip::{FlipAddr, FlipIface, FlipMessage, FLIP_FRAGMENT_BYTES};

/// Builds `n` machines, each with a FLIP interface and a receive pump that
/// forwards completed messages into a per-machine channel.
fn cluster(
    sim: &mut Simulation,
    n: u32,
) -> (Network, Vec<FlipIface>, Vec<SimChannel<FlipMessage>>) {
    let mut net = Network::new(NetConfig::default());
    let seg = net.add_segment(sim, "s0");
    let mut ifaces = Vec::new();
    let mut inboxes = Vec::new();
    for i in 0..n {
        let nic = net.attach(MacAddr(i), seg);
        let iface = FlipIface::new(nic);
        let proc = sim.add_processor(&format!("m{i}"));
        let inbox = SimChannel::new();
        let pump_iface = iface.clone();
        let pump_inbox = inbox.clone();
        sim.spawn_daemon(proc, &format!("netrx{i}"), move |ctx: &Ctx| {
            let rx = pump_iface.nic().rx().clone();
            while let Some(frame) = rx.recv(ctx) {
                for msg in pump_iface.handle_frame(ctx, &frame) {
                    let _ = pump_inbox.send(ctx, msg);
                }
            }
        });
        ifaces.push(iface);
        inboxes.push(inbox);
    }
    (net, ifaces, inboxes)
}

fn payload(n: usize) -> Bytes {
    Bytes::from((0..n).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
}

#[test]
fn locate_then_deliver() {
    let mut sim = Simulation::new(1);
    let (_net, ifaces, inboxes) = cluster(&mut sim, 2);
    let dst = FlipAddr(100);
    ifaces[1].register(dst);
    let tx = ifaces[0].clone();
    let proc = sim.add_processor("driver");
    let inbox = inboxes[1].clone();
    let h = sim.spawn(proc, "t", move |ctx| {
        let local = tx.send(ctx, FlipAddr(50), dst, payload(64));
        assert!(local.is_none(), "remote destination");
        let msg = inbox.recv(ctx).expect("delivered");
        assert_eq!(msg.src, FlipAddr(50));
        assert_eq!(msg.dst, dst);
        assert_eq!(msg.payload, payload(64));
        assert!(!msg.multicast);
        // Route is now cached: a second send needs no locate.
        let locates_before = tx.stats().locates_sent;
        tx.send(ctx, FlipAddr(50), dst, payload(8));
        assert!(inbox.recv(ctx).is_some());
        assert_eq!(tx.stats().locates_sent, locates_before);
    });
    sim.run_until_finished(&h).expect("run");
}

#[test]
fn local_destination_short_circuits() {
    let mut sim = Simulation::new(1);
    let (net, ifaces, _inboxes) = cluster(&mut sim, 1);
    let dst = FlipAddr(7);
    ifaces[0].register(dst);
    let iface = ifaces[0].clone();
    let proc = sim.add_processor("driver");
    let h = sim.spawn(proc, "t", move |ctx| {
        let msg = iface.send(ctx, FlipAddr(1), dst, payload(10));
        let msg = msg.expect("local delivery");
        assert_eq!(msg.payload, payload(10));
    });
    sim.run_until_finished(&h).expect("run");
    assert_eq!(net.total_stats().frames, 0, "nothing touched the wire");
}

#[test]
fn large_message_fragments_and_reassembles() {
    let mut sim = Simulation::new(1);
    let (net, ifaces, inboxes) = cluster(&mut sim, 2);
    let dst = FlipAddr(100);
    ifaces[1].register(dst);
    let tx = ifaces[0].clone();
    let inbox = inboxes[1].clone();
    let proc = sim.add_processor("driver");
    let size = 4096;
    let h = sim.spawn(proc, "t", move |ctx| {
        tx.send(ctx, FlipAddr(50), dst, payload(size));
        let msg = inbox.recv(ctx).expect("delivered");
        assert_eq!(msg.payload, payload(size));
    });
    sim.run_until_finished(&h).expect("run");
    // 4 KB needs exactly 3 data fragments (plus 1 locate + 1 reply).
    assert_eq!(size.div_ceil(FLIP_FRAGMENT_BYTES), 3);
    assert_eq!(net.total_stats().frames, 3 + 2);
}

#[test]
fn empty_message_is_valid() {
    let mut sim = Simulation::new(1);
    let (_net, ifaces, inboxes) = cluster(&mut sim, 2);
    let dst = FlipAddr(100);
    ifaces[1].register(dst);
    let tx = ifaces[0].clone();
    let inbox = inboxes[1].clone();
    let proc = sim.add_processor("driver");
    let h = sim.spawn(proc, "t", move |ctx| {
        tx.send(ctx, FlipAddr(50), dst, Bytes::new());
        let msg = inbox.recv(ctx).expect("delivered");
        assert!(msg.payload.is_empty());
    });
    sim.run_until_finished(&h).expect("run");
}

#[test]
fn group_multicast_delivers_to_members_and_self() {
    let mut sim = Simulation::new(1);
    let (_net, ifaces, inboxes) = cluster(&mut sim, 3);
    let group = FlipAddr(0x9000);
    let eth = McastAddr(1);
    ifaces[0].join_group(group, eth);
    ifaces[1].join_group(group, eth);
    // Machine 2 is not a member.
    let sender = ifaces[0].clone();
    let member_inbox = inboxes[1].clone();
    let outsider_inbox = inboxes[2].clone();
    let proc = sim.add_processor("driver");
    let h = sim.spawn(proc, "t", move |ctx| {
        let self_msg = sender.send_group(ctx, FlipAddr(1), group, payload(100));
        let self_msg = self_msg.expect("self delivery is returned");
        assert!(self_msg.multicast);
        let msg = member_inbox.recv(ctx).expect("member receives");
        assert_eq!(msg.payload, payload(100));
        assert!(msg.multicast);
        ctx.sleep(ms(5));
        assert!(outsider_inbox.is_empty(ctx), "non-member must not receive");
    });
    sim.run_until_finished(&h).expect("run");
}

#[test]
fn stale_route_is_evicted_and_relocated() {
    let mut sim = Simulation::new(1);
    let (_net, ifaces, inboxes) = cluster(&mut sim, 3);
    let dst = FlipAddr(500);
    ifaces[2].register(dst);
    // A route to a station that does not host the address.
    ifaces[0].install_route(dst, ifaces[1].mac());
    let tx = ifaces[0].clone();
    let wrong = ifaces[1].clone();
    let inbox2 = inboxes[2].clone();
    let proc = sim.add_processor("driver");
    let h = sim.spawn(proc, "t", move |ctx| {
        // The first send follows the stale route; machine 1 answers "not
        // here", the route is evicted, and the next send locates machine 2.
        tx.send(ctx, FlipAddr(1), dst, payload(5));
        ctx.sleep(ms(1)); // allow NotHere to come back and evict
        assert_eq!(wrong.stats().misdelivered, 1);
        tx.send(ctx, FlipAddr(1), dst, payload(6));
        let msg = inbox2.recv(ctx).expect("delivered at the real home");
        assert_eq!(msg.payload.len(), 6);
        assert_eq!(tx.stats().locates_sent, 1, "one locate, after the eviction");
    });
    sim.run_until_finished(&h).expect("run");
}

#[test]
fn unlocatable_destination_discards_silently() {
    let mut sim = Simulation::new(1);
    let (_net, ifaces, _inboxes) = cluster(&mut sim, 2);
    let tx = ifaces[0].clone();
    let proc = sim.add_processor("driver");
    let h = sim.spawn(proc, "t", move |ctx| {
        // Nobody registers this address anywhere.
        tx.send(ctx, FlipAddr(1), FlipAddr(0xdead), payload(8));
        ctx.sleep(ms(50));
        // Enough later traffic to trigger pending expiry.
        tx.send(ctx, FlipAddr(1), FlipAddr(0xdead), payload(8));
        ctx.sleep(ms(1));
        assert!(tx.stats().pending_expired >= 1);
    });
    sim.run_until_finished(&h).expect("run");
}

#[test]
fn lost_fragment_drops_whole_message_not_later_ones() {
    let mut sim = Simulation::new(1);
    let (net, ifaces, inboxes) = cluster(&mut sim, 2);
    let dst = FlipAddr(100);
    ifaces[1].register(dst);
    let tx = ifaces[0].clone();
    let inbox = inboxes[1].clone();
    let proc = sim.add_processor("driver");
    let h = sim.spawn(proc, "t", move |ctx| {
        // Prime the route first so the locate is not what gets dropped.
        tx.send(ctx, FlipAddr(50), dst, payload(4));
        assert!(inbox.recv(ctx).is_some());
        net.faults().lock().force_drop_next = 1;
        tx.send(ctx, FlipAddr(50), dst, payload(4096)); // first fragment dies
        tx.send(ctx, FlipAddr(50), dst, payload(32)); // complete message
        let msg = inbox.recv(ctx).expect("intact message delivered");
        assert_eq!(msg.payload.len(), 32, "the mutilated 4 KB message is gone");
        ctx.sleep(ms(5));
        assert!(inbox.is_empty(ctx));
    });
    sim.run_until_finished(&h).expect("run");
}

#[test]
fn concurrent_senders_interleave_without_corruption() {
    let mut sim = Simulation::new(3);
    let (_net, ifaces, inboxes) = cluster(&mut sim, 3);
    let dst = FlipAddr(42);
    ifaces[2].register(dst);
    let proc_a = sim.add_processor("da");
    let proc_b = sim.add_processor("db");
    for (i, proc) in [(0usize, proc_a), (1usize, proc_b)] {
        let tx = ifaces[i].clone();
        sim.spawn(proc, &format!("send{i}"), move |ctx| {
            for k in 0..5u32 {
                let size = 2000 + (k as usize) * 100 + i;
                tx.send(ctx, FlipAddr(i as u64 + 1), dst, payload(size));
            }
        });
    }
    let inbox = inboxes[2].clone();
    let proc = sim.add_processor("driver");
    let h = sim.spawn(proc, "check", move |ctx| {
        let mut got = Vec::new();
        for _ in 0..10 {
            let msg = inbox.recv(ctx).expect("message");
            assert_eq!(msg.payload, payload(msg.payload.len()));
            got.push((msg.src, msg.payload.len()));
        }
        // Each sender's five sizes all arrived.
        for i in 0..2usize {
            let mut sizes: Vec<usize> = got
                .iter()
                .filter(|(s, _)| *s == FlipAddr(i as u64 + 1))
                .map(|(_, l)| *l)
                .collect();
            sizes.sort_unstable();
            assert_eq!(
                sizes,
                (0..5).map(|k| 2000 + k * 100 + i).collect::<Vec<_>>()
            );
        }
    });
    sim.run_until_finished(&h).expect("run");
}
