//! Integration tests: delivery semantics, medium serialization, the switch,
//! and fault injection.

use std::sync::Arc;

use bytes::Bytes;
use desim::{us, LaneId, SimChannel, SimTime, Simulation};
use ethernet::{
    Dest, FaultState, GilbertElliott, MacAddr, McastAddr, NetConfig, Network, SegmentStats,
    FRAME_OVERHEAD_BYTES,
};
use parking_lot::Mutex;

fn payload(n: usize) -> Bytes {
    Bytes::from(vec![0xabu8; n])
}

#[test]
fn unicast_delivered_to_addressee_only() {
    let mut sim = Simulation::new(1);
    let mut net = Network::new(NetConfig::default());
    let seg = net.add_segment(&mut sim, "s0");
    let a = net.attach(MacAddr(0), seg);
    let b = net.attach(MacAddr(1), seg);
    let c = net.attach(MacAddr(2), seg);
    let m = sim.add_processor("m");
    let a2 = a.clone();
    sim.spawn(m, "send", move |ctx| {
        a2.send(ctx, Dest::Unicast(MacAddr(1)), payload(100));
    });
    let h = sim.spawn(m, "check", move |ctx| {
        let f = b.rx().recv(ctx).expect("b gets the frame");
        assert_eq!(f.src, MacAddr(0));
        assert_eq!(f.payload.len(), 100);
        assert!(c.rx().is_empty(ctx), "bystander receives nothing");
        assert!(a.rx().is_empty(ctx), "no self-delivery");
    });
    sim.run_until_finished(&h).expect("run");
}

#[test]
fn wire_time_matches_bandwidth() {
    // 100-byte payload + 38 bytes overhead at 10 Mbit/s = 110.4 us.
    let mut sim = Simulation::new(1);
    let mut net = Network::new(NetConfig::default());
    let seg = net.add_segment(&mut sim, "s0");
    let a = net.attach(MacAddr(0), seg);
    let b = net.attach(MacAddr(1), seg);
    let m = sim.add_processor("m");
    sim.spawn(m, "send", move |ctx| {
        a.send(ctx, Dest::Unicast(MacAddr(1)), payload(100));
    });
    let h = sim.spawn(m, "check", move |ctx| {
        let _ = b.rx().recv(ctx).expect("frame");
        let expected_ns = (100 + FRAME_OVERHEAD_BYTES) as u64 * 800;
        assert_eq!(ctx.now().as_nanos(), expected_ns);
    });
    sim.run_until_finished(&h).expect("run");
}

#[test]
fn medium_serializes_back_to_back_frames() {
    let mut sim = Simulation::new(1);
    let mut net = Network::new(NetConfig::default());
    let seg = net.add_segment(&mut sim, "s0");
    let a = net.attach(MacAddr(0), seg);
    let b = net.attach(MacAddr(1), seg);
    let m = sim.add_processor("m");
    sim.spawn(m, "send", move |ctx| {
        // Two frames queued at t=0 must serialize on the wire.
        a.send(ctx, Dest::Unicast(MacAddr(1)), payload(1000));
        a.send(ctx, Dest::Unicast(MacAddr(1)), payload(1000));
    });
    let h = sim.spawn(m, "check", move |ctx| {
        let one_frame_ns = (1000 + FRAME_OVERHEAD_BYTES) as u64 * 800;
        let _ = b.rx().recv(ctx).expect("first");
        assert_eq!(ctx.now().as_nanos(), one_frame_ns);
        let _ = b.rx().recv(ctx).expect("second");
        assert_eq!(ctx.now().as_nanos(), 2 * one_frame_ns);
    });
    sim.run_until_finished(&h).expect("run");
}

#[test]
fn multicast_reaches_subscribers_only() {
    let mut sim = Simulation::new(1);
    let mut net = Network::new(NetConfig::default());
    let seg = net.add_segment(&mut sim, "s0");
    let a = net.attach(MacAddr(0), seg);
    let b = net.attach(MacAddr(1), seg);
    let c = net.attach(MacAddr(2), seg);
    let g = McastAddr(9);
    b.join_group(g);
    let m = sim.add_processor("m");
    sim.spawn(m, "send", move |ctx| {
        a.send(ctx, Dest::Multicast(g), payload(10));
    });
    let h = sim.spawn(m, "check", move |ctx| {
        assert!(b.rx().recv(ctx).is_some(), "subscriber receives");
        assert!(c.rx().is_empty(ctx), "non-subscriber filtered in hardware");
    });
    sim.run_until_finished(&h).expect("run");
}

#[test]
fn broadcast_reaches_everyone() {
    let mut sim = Simulation::new(1);
    let mut net = Network::new(NetConfig::default());
    let seg = net.add_segment(&mut sim, "s0");
    let a = net.attach(MacAddr(0), seg);
    let nics: Vec<_> = (1..5).map(|i| net.attach(MacAddr(i), seg)).collect();
    let m = sim.add_processor("m");
    sim.spawn(m, "send", move |ctx| {
        a.send(ctx, Dest::Broadcast, payload(10));
    });
    let h = sim.spawn(m, "check", move |ctx| {
        for nic in &nics {
            assert!(nic.rx().recv(ctx).is_some());
        }
    });
    sim.run_until_finished(&h).expect("run");
}

#[test]
fn switch_forwards_unicast_across_segments() {
    let mut sim = Simulation::new(1);
    let mut net = Network::new(NetConfig::default());
    let s0 = net.add_segment(&mut sim, "s0");
    let s1 = net.add_segment(&mut sim, "s1");
    net.add_switch(&mut sim, &[s0, s1], "sw");
    let a = net.attach(MacAddr(0), s0);
    let b = net.attach(MacAddr(1), s1);
    let m = sim.add_processor("m");
    sim.spawn(m, "send", move |ctx| {
        a.send(ctx, Dest::Unicast(MacAddr(1)), payload(200));
    });
    let h = sim.spawn(m, "check", move |ctx| {
        let f = b.rx().recv(ctx).expect("forwarded frame");
        assert_eq!(f.src, MacAddr(0));
        // Crossing the switch costs two wire transits plus switch latency.
        let one_wire = (200 + FRAME_OVERHEAD_BYTES) as u64 * 800;
        assert_eq!(ctx.now().as_nanos(), 2 * one_wire + 30_000);
    });
    sim.run_until_finished(&h).expect("run");
}

#[test]
fn switch_does_not_reinject_local_traffic() {
    let mut sim = Simulation::new(1);
    let mut net = Network::new(NetConfig::default());
    let s0 = net.add_segment(&mut sim, "s0");
    let s1 = net.add_segment(&mut sim, "s1");
    net.add_switch(&mut sim, &[s0, s1], "sw");
    let a = net.attach(MacAddr(0), s0);
    let b = net.attach(MacAddr(1), s0); // same segment
    let m = sim.add_processor("m");
    let net2 = net.clone();
    let h = sim.spawn(m, "t", move |ctx| {
        a.send(ctx, Dest::Unicast(MacAddr(1)), payload(50));
        let _ = b.rx().recv(ctx).expect("local delivery");
        ctx.sleep(us(2000));
        // The other segment carried nothing.
        assert_eq!(net2.segment_stats(s1).frames, 0);
    });
    sim.run_until_finished(&h).expect("run");
}

#[test]
fn switch_floods_multicast_to_other_segments_once() {
    let mut sim = Simulation::new(1);
    let mut net = Network::new(NetConfig::default());
    let s0 = net.add_segment(&mut sim, "s0");
    let s1 = net.add_segment(&mut sim, "s1");
    let s2 = net.add_segment(&mut sim, "s2");
    net.add_switch(&mut sim, &[s0, s1, s2], "sw");
    let a = net.attach(MacAddr(0), s0);
    let b = net.attach(MacAddr(1), s1);
    let c = net.attach(MacAddr(2), s2);
    let g = McastAddr(1);
    b.join_group(g);
    c.join_group(g);
    let m = sim.add_processor("m");
    sim.spawn(m, "send", move |ctx| {
        a.send(ctx, Dest::Multicast(g), payload(64));
    });
    let net2 = net.clone();
    let h = sim.spawn(m, "check", move |ctx| {
        assert!(b.rx().recv(ctx).is_some());
        assert!(c.rx().recv(ctx).is_some());
        ctx.sleep(us(5000));
        // Exactly one frame per segment: no switch loops.
        for seg in [s0, s1, s2] {
            assert_eq!(net2.segment_stats(seg).frames, 1, "{seg}");
        }
        assert!(b.rx().is_empty(ctx));
        assert!(c.rx().is_empty(ctx));
    });
    sim.run_until_finished(&h).expect("run");
}

#[test]
fn flat_switch_floods_multicast_to_memberless_segments() {
    let mut sim = Simulation::new(1);
    let mut net = Network::new(NetConfig::default());
    let s0 = net.add_segment(&mut sim, "s0");
    let s1 = net.add_segment(&mut sim, "s1");
    let s2 = net.add_segment(&mut sim, "s2");
    net.add_switch(&mut sim, &[s0, s1, s2], "sw");
    let a = net.attach(MacAddr(0), s0);
    let b = net.attach(MacAddr(1), s1);
    let c = net.attach(MacAddr(2), s2);
    let g = McastAddr(3);
    b.join_group(g);
    let m = sim.add_processor("m");
    let h = sim.spawn(m, "t", move |ctx| {
        a.send(ctx, Dest::Multicast(g), payload(10));
        assert!(b.rx().recv(ctx).is_some(), "member behind the switch");
        ctx.sleep(us(2000));
        assert!(c.rx().is_empty(ctx), "non-member filtered in hardware");
    });
    sim.run_until_finished(&h).expect("run");
    assert_eq!(
        net.segment_stats(s2).frames,
        1,
        "a flat switch does not prune: the memberless segment carries the flood"
    );
}

/// `(source station, arrival ns)` of every frame one station received.
type ArrivalLog = Vec<(u32, u64)>;

/// Three segments, one station each, behind one flat switch: all on the
/// root lane, or each segment on a lane of its own. Station `i` unicasts to
/// station `i + 1` (mod 3) in slot `i` of five 1 ms rounds, and station 0
/// broadcasts in slot 3 of round 2. Slots are 300 µs apart, so no two frames
/// ever share a medium and the arrival instants measure the switch hops
/// alone. Returns each station's log and the lookahead.
fn flat_switch_arrivals(lane_per_segment: bool) -> (Vec<ArrivalLog>, Option<desim::SimDuration>) {
    let mut sim = Simulation::new(9);
    let mut net = Network::new(NetConfig::default());
    let lane_ids: Vec<LaneId> = (0..3)
        .map(|i| {
            if lane_per_segment && i > 0 {
                sim.add_lane()
            } else {
                LaneId::ZERO
            }
        })
        .collect();
    let segs: Vec<_> = (0..3)
        .map(|i| net.add_segment_on(&mut sim, &format!("s{i}"), lane_ids[i]))
        .collect();
    net.add_switch(&mut sim, &segs, "sw");
    let logs: Vec<Arc<Mutex<ArrivalLog>>> = (0..3).map(|_| Arc::default()).collect();
    for i in 0..3 {
        let nic = net.attach(MacAddr(i as u32), segs[i]);
        let proc = sim.add_processor_on(lane_ids[i], &format!("m{i}"), desim::SimDuration::ZERO);
        let tx = nic.clone();
        let dst = MacAddr(((i + 1) % 3) as u32);
        sim.spawn(proc, &format!("tx{i}"), move |ctx| {
            let wait_for_slot = |round: u64, slot: u64| {
                let at = SimTime::ZERO + us(1000 * round + 300 * slot);
                ctx.sleep(at.duration_since(ctx.now()));
            };
            for round in 0..5u64 {
                wait_for_slot(round, i as u64);
                tx.send(ctx, Dest::Unicast(dst), payload(100));
                if i == 0 && round == 2 {
                    wait_for_slot(round, 3);
                    tx.send(ctx, Dest::Broadcast, payload(46));
                }
            }
        });
        let log = Arc::clone(&logs[i]);
        sim.spawn_daemon(proc, &format!("rx{i}"), move |ctx| {
            while let Some(f) = nic.rx().recv(ctx) {
                log.lock().push((f.src.0, ctx.now().as_nanos()));
            }
        });
    }
    sim.run().expect("run");
    let logs = logs.iter().map(|l| l.lock().clone()).collect();
    (logs, sim.lookahead())
}

#[test]
fn flat_switch_local_and_cross_lane_links_deliver_at_identical_instants() {
    let (one_lane, no_links) = flat_switch_arrivals(false);
    let (three_lanes, lookahead) = flat_switch_arrivals(true);
    assert_eq!(no_links, None, "one lane: every hop is a local link");
    assert_eq!(
        lookahead,
        Some(us(30)),
        "three lanes: every hop crosses lanes"
    );
    // Five unicasts from the neighbour, plus the broadcast at stations 1, 2.
    let counts: Vec<usize> = one_lane.iter().map(Vec::len).collect();
    assert_eq!(counts, [5, 6, 6]);
    // The broadcast leaves at 2.9 ms: two 67.2 µs wire transits and a hop.
    let broadcast_at = 2_900_000 + 2 * (46 + FRAME_OVERHEAD_BYTES) as u64 * 800 + 30_000;
    assert!(one_lane[1].contains(&(0, broadcast_at)), "{one_lane:?}");
    assert_eq!(one_lane, three_lanes);
}

#[test]
fn forced_drops_lose_frames() {
    let mut sim = Simulation::new(1);
    let mut net = Network::new(NetConfig::default());
    let seg = net.add_segment(&mut sim, "s0");
    let a = net.attach(MacAddr(0), seg);
    let b = net.attach(MacAddr(1), seg);
    net.faults().lock().force_drop_next = 1;
    let m = sim.add_processor("m");
    let net2 = net.clone();
    let h = sim.spawn(m, "t", move |ctx| {
        a.send(ctx, Dest::Unicast(MacAddr(1)), payload(10));
        a.send(ctx, Dest::Unicast(MacAddr(1)), payload(10));
        let f = b.rx().recv(ctx).expect("second frame survives");
        assert_eq!(f.payload.len(), 10);
        let stats = net2.segment_stats(seg);
        assert_eq!(stats.wire_drops, 1);
        assert_eq!(stats.frames, 1);
    });
    sim.run_until_finished(&h).expect("run");
}

#[test]
fn probabilistic_loss_is_deterministic_per_seed() {
    fn losses(seed: u64) -> u64 {
        let mut sim = Simulation::new(seed);
        let mut net = Network::new(NetConfig::default());
        let seg = net.add_segment(&mut sim, "s0");
        let a = net.attach(MacAddr(0), seg);
        let _b = net.attach(MacAddr(1), seg);
        net.faults().lock().wire_loss_prob = 0.3;
        let m = sim.add_processor("m");
        let h = sim.spawn(m, "t", move |ctx| {
            for _ in 0..100 {
                a.send(ctx, Dest::Unicast(MacAddr(1)), payload(10));
            }
            ctx.sleep(desim::ms(100));
        });
        sim.run_until_finished(&h).expect("run");
        net.segment_stats(seg).wire_drops
    }
    let first = losses(42);
    assert!(first > 5 && first < 70, "plausible loss count, got {first}");
    assert_eq!(first, losses(42));
}

#[test]
fn utilization_reflects_busy_medium() {
    let mut sim = Simulation::new(1);
    let mut net = Network::new(NetConfig::default());
    let seg = net.add_segment(&mut sim, "s0");
    let a = net.attach(MacAddr(0), seg);
    let b = net.attach(MacAddr(1), seg);
    let m = sim.add_processor("m");
    let h = sim.spawn(m, "t", move |ctx| {
        for _ in 0..8 {
            a.send(ctx, Dest::Unicast(MacAddr(1)), payload(1500));
        }
        for _ in 0..8 {
            let _ = b.rx().recv(ctx);
        }
    });
    sim.run_until_finished(&h).expect("run");
    let stats = net.segment_stats(seg);
    let elapsed = sim.now().duration_since(desim::SimTime::ZERO);
    let u = stats.utilization(elapsed);
    assert!(u > 0.99, "back-to-back full frames saturate the wire: {u}");
    let _: SimChannel<u8> = SimChannel::new(); // keep import used
}

/// `edges` (at least two) edge switches sharing a backbone, one leaf each.
/// Returns the leaves of the first two switches and the backbone; tests put
/// `a` behind the first, `b` behind the second, `srv` on the backbone, and
/// leave any further switch a bystander.
fn tree(
    sim: &mut Simulation,
    net: &mut Network,
    edges: usize,
) -> (
    ethernet::SegmentId,
    ethernet::SegmentId,
    ethernet::SegmentId,
) {
    let leaves: Vec<_> = (0..edges)
        .map(|i| net.add_segment(sim, &format!("s{i}")))
        .collect();
    let bb = net.add_segment(sim, "backbone");
    for (i, &leaf) in leaves.iter().enumerate() {
        net.add_switch_with_uplink(sim, &[leaf], bb, &format!("sw{i}"));
    }
    (leaves[0], leaves[1], bb)
}

#[test]
fn tree_switch_routes_unicast_between_edge_switches() {
    let mut sim = Simulation::new(1);
    let mut net = Network::new(NetConfig::default());
    let (s0, s1, bb) = tree(&mut sim, &mut net, 2);
    let a = net.attach(MacAddr(0), s0);
    let b = net.attach(MacAddr(1), s1);
    let srv = net.attach(MacAddr(2), bb);
    let m = sim.add_processor("m");
    let a2 = a.clone();
    let b2 = b.clone();
    let srv2 = srv.clone();
    sim.spawn(m, "send", move |ctx| {
        // Leaf → leaf crosses both switches and the backbone.
        a2.send(ctx, Dest::Unicast(MacAddr(1)), payload(100));
    });
    let h = sim.spawn(m, "check", move |ctx| {
        let f = b.rx().recv(ctx).expect("leaf-to-leaf across the backbone");
        assert_eq!(f.src, MacAddr(0));
        // Leaf → backbone station: one switch hop up.
        b2.send(ctx, Dest::Unicast(MacAddr(2)), payload(50));
        let f = srv.rx().recv(ctx).expect("leaf to backbone station");
        assert_eq!(f.src, MacAddr(1));
        // Backbone station → leaf: one switch hop down.
        srv2.send(ctx, Dest::Unicast(MacAddr(0)), payload(25));
        let f = a.rx().recv(ctx).expect("backbone station to leaf");
        assert_eq!(f.src, MacAddr(2));
    });
    sim.run_until_finished(&h).expect("run");
}

#[test]
fn tree_switch_floods_multicast_only_toward_members() {
    let mut sim = Simulation::new(1);
    let mut net = Network::new(NetConfig::default());
    let s0 = net.add_segment(&mut sim, "s0");
    let s2 = net.add_segment(&mut sim, "s2");
    let s1 = net.add_segment(&mut sim, "s1");
    let bb = net.add_segment(&mut sim, "backbone");
    net.add_switch_with_uplink(&mut sim, &[s0, s2], bb, "swA");
    net.add_switch_with_uplink(&mut sim, &[s1], bb, "swB");
    let a = net.attach(MacAddr(0), s0);
    let b = net.attach(MacAddr(1), s1);
    let _c = net.attach(MacAddr(2), s2);
    let g = McastAddr(9);
    b.join_group(g);
    let m = sim.add_processor("m");
    let h = sim.spawn(m, "t", move |ctx| {
        a.send(ctx, Dest::Multicast(g), payload(10));
        assert!(b.rx().recv(ctx).is_some(), "member behind the other switch");
    });
    sim.run_until_finished(&h).expect("run");
    assert_eq!(
        net.segment_stats(s2).frames,
        0,
        "memberless sibling leaf is pruned"
    );
    assert_eq!(
        net.segment_stats(bb).frames,
        1,
        "one copy crosses the backbone"
    );
}

#[test]
fn tree_switch_keeps_local_multicast_off_the_backbone() {
    let mut sim = Simulation::new(1);
    let mut net = Network::new(NetConfig::default());
    let (s0, _s1, bb) = tree(&mut sim, &mut net, 2);
    let a = net.attach(MacAddr(0), s0);
    let b = net.attach(MacAddr(1), s0);
    let g = McastAddr(7);
    b.join_group(g);
    let m = sim.add_processor("m");
    let h = sim.spawn(m, "t", move |ctx| {
        a.send(ctx, Dest::Multicast(g), payload(10));
        assert!(b.rx().recv(ctx).is_some(), "same-segment member");
    });
    sim.run_until_finished(&h).expect("run");
    assert_eq!(
        net.segment_stats(bb).frames,
        0,
        "all members local: nothing crosses the uplink"
    );
}

#[test]
fn tree_switch_broadcast_reaches_every_segment() {
    let mut sim = Simulation::new(1);
    let mut net = Network::new(NetConfig::default());
    let (s0, s1, bb) = tree(&mut sim, &mut net, 2);
    let a = net.attach(MacAddr(0), s0);
    let b = net.attach(MacAddr(1), s1);
    let srv = net.attach(MacAddr(2), bb);
    let m = sim.add_processor("m");
    let h = sim.spawn(m, "t", move |ctx| {
        a.send(ctx, Dest::Broadcast, payload(10));
        assert!(b.rx().recv(ctx).is_some(), "leaf behind the other switch");
        assert!(srv.rx().recv(ctx).is_some(), "backbone station");
    });
    sim.run_until_finished(&h).expect("run");
}

/// Runs `exchange` on its own processor once the network's daemons have
/// started and blocked. Returns the events the exchange cost, beyond that
/// start-up.
fn exchange_events(
    sim: &mut Simulation,
    exchange: impl FnOnce(&desim::Ctx) + Send + 'static,
) -> u64 {
    let idle = sim.run().expect("daemons start").events;
    let m = sim.add_processor("m");
    let h = sim.spawn(m, "exchange", exchange);
    sim.run_until_finished(&h).expect("run").events - idle
}

/// Five rounds of backbone station → leaf station → backbone station
/// unicasts, to the leaves behind the first two of `edges` edge switches,
/// each round closed by a multicast to a group whose only other member is
/// a second backbone station. Returns each frame's arrival instant (ns) and
/// the events it all cost.
fn backbone_exchange(edges: usize) -> (Vec<u64>, u64) {
    let mut sim = Simulation::new(1);
    let mut net = Network::new(NetConfig::default());
    let (s0, s1, bb) = tree(&mut sim, &mut net, edges);
    let a = net.attach(MacAddr(0), s0);
    let b = net.attach(MacAddr(1), s1);
    let srv = net.attach(MacAddr(2), bb);
    let peer = net.attach(MacAddr(3), bb);
    let g = McastAddr(5);
    srv.join_group(g);
    peer.join_group(g);
    let log = Arc::new(Mutex::new(Vec::new()));
    let log2 = Arc::clone(&log);
    let events = exchange_events(&mut sim, move |ctx| {
        for _ in 0..5 {
            for leaf in [&a, &b] {
                srv.send(ctx, Dest::Unicast(leaf.mac()), payload(100));
                leaf.rx().recv(ctx).expect("down to the leaf");
                log2.lock().push(ctx.now().as_nanos());
                leaf.send(ctx, Dest::Unicast(srv.mac()), payload(60));
                srv.rx().recv(ctx).expect("up to the backbone");
                log2.lock().push(ctx.now().as_nanos());
            }
            srv.send(ctx, Dest::Multicast(g), payload(40));
            peer.rx().recv(ctx).expect("multicast on the backbone");
            log2.lock().push(ctx.now().as_nanos());
        }
    });
    let arrivals = log.lock().clone();
    (arrivals, events)
}

#[test]
fn bystander_edge_switches_cost_no_events() {
    let (two, two_events) = backbone_exchange(2);
    let (eight, eight_events) = backbone_exchange(8);
    assert_eq!(two.len(), 25);
    assert_eq!(eight, two, "bystander switches move no arrival");
    assert_eq!(
        eight_events, two_events,
        "a switch that forwards none of the frames is never woken by them"
    );
}

/// One same-segment unicast, on a segment that is or is not a port of a
/// flat switch. Returns the arrival instant (ns) and the events it cost.
fn same_segment_unicast(switched: bool) -> (u64, u64) {
    let mut sim = Simulation::new(1);
    let mut net = Network::new(NetConfig::default());
    let s0 = net.add_segment(&mut sim, "s0");
    let s1 = net.add_segment(&mut sim, "s1");
    if switched {
        net.add_switch(&mut sim, &[s0, s1], "sw");
    }
    let a = net.attach(MacAddr(0), s0);
    let b = net.attach(MacAddr(1), s0);
    let at = Arc::new(Mutex::new(0));
    let at2 = Arc::clone(&at);
    let events = exchange_events(&mut sim, move |ctx| {
        a.send(ctx, Dest::Unicast(MacAddr(1)), payload(50));
        b.rx().recv(ctx).expect("local delivery");
        *at2.lock() = ctx.now().as_nanos();
    });
    let at = *at.lock();
    (at, events)
}

#[test]
fn flat_switch_costs_no_events_for_local_unicast() {
    assert_eq!(same_segment_unicast(true), same_segment_unicast(false));
}

#[test]
#[should_panic(expected = "restricted to single-lane networks")]
fn force_drop_next_panics_on_multi_lane_network() {
    let mut sim = Simulation::new(1);
    let lane = sim.add_lane();
    let mut net = Network::new(NetConfig::default());
    let seg = net.add_segment(&mut sim, "s0");
    let _far = net.add_segment_on(&mut sim, "s1", lane);
    let a = net.attach(MacAddr(0), seg);
    let _b = net.attach(MacAddr(1), seg);
    net.faults().lock().force_drop_next = 1;
    let m = sim.add_processor("m");
    sim.spawn(m, "t", move |ctx| {
        a.send(ctx, Dest::Unicast(MacAddr(1)), payload(10));
    });
    let _ = sim.run();
}

#[test]
#[should_panic(expected = "restricted to single-lane networks")]
fn gilbert_panics_on_multi_lane_network() {
    let mut sim = Simulation::new(1);
    let lane = sim.add_lane();
    let mut net = Network::new(NetConfig::default());
    let seg = net.add_segment(&mut sim, "s0");
    let _far = net.add_segment_on(&mut sim, "s1", lane);
    let a = net.attach(MacAddr(0), seg);
    let _b = net.attach(MacAddr(1), seg);
    net.faults().lock().gilbert = Some(GilbertElliott {
        p_enter_bad: 0.5,
        p_exit_bad: 0.5,
        loss_good: 0.0,
        loss_bad: 1.0,
        bad: false,
    });
    let m = sim.add_processor("m");
    sim.spawn(m, "t", move |ctx| {
        a.send(ctx, Dest::Unicast(MacAddr(1)), payload(10));
    });
    let _ = sim.run();
}

// --- Per-delivery fault paths -------------------------------------------
//
// `fault_world` is one segment where station 0 sends and stations 1..=3
// receive. Each test asserts every arrival instant and every
// `SegmentStats` counter.

/// The multicast group of [`fault_world`].
const G: McastAddr = McastAddr(4);

/// Wire time of one [`tagged`] frame: 100 payload bytes plus framing at
/// 10 Mbit/s.
const WIRE_NS: u64 = (100 + FRAME_OVERHEAD_BYTES) as u64 * 800;

/// A 100-byte payload whose every byte is `tag`.
fn tagged(tag: u8) -> Bytes {
    Bytes::from(vec![tag; 100])
}

/// `(station, payload tag, arrival ns)` of every frame stations 1..=3
/// received, in the order their receivers ran.
type TaggedLog = Vec<(u32, u8, u64)>;

/// Runs `script` on station 0's machine in a world seeded `seed`, where
/// the stations in `members` have joined [`G`]. Returns the arrival log and
/// the segment's counters once every daemon has parked. `script` gets the
/// sender's NIC and the network's fault knobs.
fn fault_world(
    seed: u64,
    members: &[u32],
    script: impl FnOnce(&desim::Ctx, &ethernet::Nic, &Mutex<FaultState>) + Send + 'static,
) -> (TaggedLog, SegmentStats) {
    let mut sim = Simulation::new(seed);
    let mut net = Network::new(NetConfig::default());
    let seg = net.add_segment(&mut sim, "s0");
    let a = net.attach(MacAddr(0), seg);
    let m = sim.add_processor("m0");
    let log = Arc::new(Mutex::new(Vec::new()));
    for i in 1..=3 {
        let nic = net.attach(MacAddr(i), seg);
        if members.contains(&i) {
            nic.join_group(G);
        }
        let log = Arc::clone(&log);
        sim.spawn_daemon(m, &format!("rx{i}"), move |ctx| {
            while let Some(f) = nic.rx().recv(ctx) {
                log.lock().push((i, f.payload[0], ctx.now().as_nanos()));
            }
        });
    }
    let faults = net.faults();
    sim.spawn(m, "script", move |ctx| script(ctx, &a, &faults));
    sim.run().expect("run");
    let log = log.lock().clone();
    (log, net.segment_stats(seg))
}

/// Counters of `frames` carried and `wire_drops` lost [`tagged`] frames.
fn wire_stats(frames: u64, wire_drops: u64) -> SegmentStats {
    let wire_bytes = frames * (100 + FRAME_OVERHEAD_BYTES) as u64;
    SegmentStats {
        frames,
        wire_bytes,
        busy: desim::SimDuration::from_nanos((frames + wire_drops) * WIRE_NS),
        wire_drops,
        ..SegmentStats::default()
    }
}

/// The seed [`held_twice`] runs under: its first reorder draw holds the
/// delivery for two frames, so the next carried or dropped frame releases
/// it (`1 + rand_range(2)` draws 2; a hold of 1 would release within the
/// carrying frame).
const TWO_FRAME_HOLD_SEED: u64 = 1;

/// Station 0 unicasts tag 1 to station 1 with every delivery held
/// (`reorder_span = 2`), waits out its wire time, switches reordering off,
/// runs `between`, then sends tag 2 to `second_to`. The second frame's wire
/// ends at 200 µs + [`WIRE_NS`].
fn held_twice(
    second_to: u32,
    between: impl FnOnce(&mut FaultState) + Send + 'static,
) -> (TaggedLog, SegmentStats) {
    fault_world(TWO_FRAME_HOLD_SEED, &[], move |ctx, a, faults| {
        {
            let mut f = faults.lock();
            f.reorder_prob = 1.0;
            f.reorder_span = 2;
        }
        a.send(ctx, Dest::Unicast(MacAddr(1)), tagged(1));
        ctx.sleep(us(200));
        {
            let mut f = faults.lock();
            f.reorder_prob = 0.0;
            between(&mut f);
        }
        a.send(ctx, Dest::Unicast(MacAddr(second_to)), tagged(2));
    })
}

#[test]
fn dup_prob_one_delivers_each_member_the_frame_twice() {
    let (log, stats) = fault_world(1, &[1, 2], |ctx, a, faults| {
        faults.lock().dup_prob = 1.0;
        a.send(ctx, Dest::Multicast(G), tagged(1));
    });
    let w = WIRE_NS;
    assert_eq!(log, [(1, 1, w), (1, 1, w), (2, 1, w), (2, 1, w)]);
    let want = SegmentStats {
        dup_deliveries: 2,
        ..wire_stats(1, 0)
    };
    assert_eq!(stats, want);
}

#[test]
fn rx_loss_prob_one_drops_every_member_delivery() {
    let (log, stats) = fault_world(1, &[1, 2, 3], |ctx, a, faults| {
        faults.lock().rx_loss_prob = 1.0;
        a.send(ctx, Dest::Multicast(G), tagged(1));
    });
    assert_eq!(log, []);
    let want = SegmentStats {
        rx_drops: 3,
        ..wire_stats(1, 0)
    };
    assert_eq!(stats, want);
}

#[test]
fn one_frame_hold_releases_within_the_carrying_frame() {
    // A hold counts the frame that carried it: with `reorder_span = 1`
    // every delivery is released at that frame's own wire end, in hold
    // order.
    let (log, stats) = fault_world(1, &[1, 2], |ctx, a, faults| {
        {
            let mut f = faults.lock();
            f.reorder_prob = 1.0;
            f.reorder_span = 1;
        }
        a.send(ctx, Dest::Multicast(G), tagged(1));
        a.send(ctx, Dest::Multicast(G), tagged(2));
    });
    let (w1, w2) = (WIRE_NS, 2 * WIRE_NS);
    assert_eq!(log, [(1, 1, w1), (2, 1, w1), (1, 2, w2), (2, 2, w2)]);
    let want = SegmentStats {
        held_deliveries: 4,
        ..wire_stats(2, 0)
    };
    assert_eq!(stats, want);
}

#[test]
fn held_delivery_arrives_behind_the_next_carried_frame() {
    let (log, stats) = held_twice(1, |_| {});
    let at = 200_000 + WIRE_NS;
    assert_eq!(log, [(1, 2, at), (1, 1, at)], "the held frame is overtaken");
    let want = SegmentStats {
        held_deliveries: 1,
        ..wire_stats(2, 0)
    };
    assert_eq!(stats, want);
}

#[test]
fn wire_dropped_frame_advances_the_hold_countdown() {
    let (log, stats) = held_twice(1, |f| f.force_drop_next = 1);
    assert_eq!(log, [(1, 1, 200_000 + WIRE_NS)]);
    let want = SegmentStats {
        held_deliveries: 1,
        ..wire_stats(1, 1)
    };
    assert_eq!(stats, want);
}

#[test]
fn receiver_crashed_while_held_loses_the_delivery_at_release() {
    let (log, stats) = held_twice(2, |f| f.crash(MacAddr(1)));
    assert_eq!(log, [(2, 2, 200_000 + WIRE_NS)]);
    let want = SegmentStats {
        held_deliveries: 1,
        link_drops: 1,
        ..wire_stats(2, 0)
    };
    assert_eq!(stats, want);
}

#[test]
fn partitioned_member_is_skipped_while_the_others_receive() {
    let (log, stats) = fault_world(1, &[1, 2, 3], |ctx, a, faults| {
        faults.lock().partition(MacAddr(0), MacAddr(2));
        a.send(ctx, Dest::Multicast(G), tagged(1));
    });
    let w = WIRE_NS;
    assert_eq!(log, [(1, 1, w), (3, 1, w)]);
    let want = SegmentStats {
        link_drops: 1,
        ..wire_stats(1, 0)
    };
    assert_eq!(stats, want);
}

#[test]
fn held_delivery_to_a_switch_port_keeps_its_route() {
    let mut sim = Simulation::new(1);
    let mut net = Network::new(NetConfig::default());
    let s0 = net.add_segment(&mut sim, "s0");
    let s1 = net.add_segment(&mut sim, "s1");
    net.add_switch(&mut sim, &[s0, s1], "sw");
    let a = net.attach(MacAddr(0), s0);
    let b = net.attach(MacAddr(1), s1);
    {
        let faults = net.faults();
        let mut f = faults.lock();
        f.reorder_prob = 1.0;
        f.reorder_span = 1;
    }
    let m = sim.add_processor("m");
    sim.spawn(m, "send", move |ctx| {
        a.send(ctx, Dest::Unicast(MacAddr(1)), tagged(1));
    });
    let h = sim.spawn(m, "check", move |ctx| {
        let f = b.rx().recv(ctx).expect("forwarded after its hold");
        assert_eq!(f.payload[0], 1);
        assert_eq!(ctx.now().as_nanos(), 2 * WIRE_NS + 30_000);
    });
    sim.run_until_finished(&h).expect("run");
    // On s0 the port's delivery was held, on s1 the station's.
    let want = SegmentStats {
        held_deliveries: 1,
        ..wire_stats(1, 0)
    };
    assert_eq!(net.segment_stats(s0), want);
    assert_eq!(net.segment_stats(s1), want);
}
