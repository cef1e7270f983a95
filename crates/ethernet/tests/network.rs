//! Integration tests: delivery semantics, medium serialization, the switch,
//! and fault injection.

use std::sync::Arc;

use bytes::Bytes;
use desim::{us, LaneId, SimChannel, SimTime, Simulation};
use ethernet::{
    Dest, GilbertElliott, MacAddr, McastAddr, NetConfig, Network, FRAME_OVERHEAD_BYTES,
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
        assert!(c.rx().is_empty(), "bystander receives nothing");
        assert!(a.rx().is_empty(), "no self-delivery");
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
        assert!(c.rx().is_empty(), "non-subscriber filtered in hardware");
    });
    sim.run_until_finished(&h).expect("run");
}

#[test]
fn leave_group_stops_delivery() {
    let mut sim = Simulation::new(1);
    let mut net = Network::new(NetConfig::default());
    let seg = net.add_segment(&mut sim, "s0");
    let a = net.attach(MacAddr(0), seg);
    let b = net.attach(MacAddr(1), seg);
    let g = McastAddr(4);
    b.join_group(g);
    b.leave_group(g);
    let m = sim.add_processor("m");
    let h = sim.spawn(m, "t", move |ctx| {
        a.send(ctx, Dest::Multicast(g), payload(10));
        ctx.sleep(us(500));
        assert!(b.rx().is_empty());
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
        assert!(b.rx().is_empty());
        assert!(c.rx().is_empty());
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
        assert!(c.rx().is_empty(), "non-member filtered in hardware");
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
        let lane = lane_ids[i];
        let nic = net.attach(MacAddr(i as u32), segs[i]);
        let proc = sim.add_processor_on(lane, &format!("m{i}"));
        let tx = nic.clone();
        let dst = MacAddr(((i + 1) % 3) as u32);
        sim.spawn_on_lane(lane, proc, &format!("tx{i}"), move |ctx| {
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
        sim.spawn_daemon_on_lane(lane, proc, &format!("rx{i}"), move |ctx| {
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

/// Two edge switches sharing a backbone: `a` on a leaf behind switch A,
/// `b` on a leaf behind switch B, `srv` directly on the backbone.
fn tree(
    sim: &mut Simulation,
    net: &mut Network,
) -> (
    ethernet::SegmentId,
    ethernet::SegmentId,
    ethernet::SegmentId,
) {
    let s0 = net.add_segment(sim, "s0");
    let s1 = net.add_segment(sim, "s1");
    let bb = net.add_segment(sim, "backbone");
    net.add_switch_with_uplink(sim, &[s0], bb, "swA");
    net.add_switch_with_uplink(sim, &[s1], bb, "swB");
    (s0, s1, bb)
}

#[test]
fn tree_switch_routes_unicast_between_edge_switches() {
    let mut sim = Simulation::new(1);
    let mut net = Network::new(NetConfig::default());
    let (s0, s1, bb) = tree(&mut sim, &mut net);
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
    let (s0, _s1, bb) = tree(&mut sim, &mut net);
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
    let (s0, s1, bb) = tree(&mut sim, &mut net);
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
