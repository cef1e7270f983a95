//! Layer probes: short loops that time one layer's public functions in
//! isolation and report a unit cost. Every traced run runs the whole suite,
//! so each workload's attribution uses unit costs taken in the same process
//! on the same machine state. Probes only call public items; their numbers
//! are host times and carry no bound.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use orca_panda::apps::fleet::build_fleet;
use orca_panda::desim::{Backend, SimDuration, Simulation};
use orca_panda::ethernet::{Dest, MacAddr, McastAddr, NetConfig, Network, SegmentId};
use orca_panda::flip::{FlipAddr, FlipIface, PacketHeader, PacketType};
use orca_panda::orca::{WireReader, WireWriter};

use crate::harness::{Metrics, SplitMix};
use crate::host;
use crate::spans::Spans;
use crate::workloads::{fleet, proto_pair, sched_micro, Stack};

/// Runs `sim` to completion and returns host nanoseconds per `per`.
fn timed_run(mut sim: Simulation, per: u64, what: &str) -> f64 {
    let t0 = Instant::now();
    sim.run()
        .unwrap_or_else(|e| panic!("{what} probe failed: {e}"));
    t0.elapsed().as_nanos() as f64 / per as f64
}

const FRAME: &[u8] = &[0u8; 64];

/// One station storming `frames` 64-byte unicast frames at another on the
/// same segment.
fn ethernet_unicast(seed: u64, frames: u64) -> f64 {
    let mut sim = Simulation::new(seed);
    let mut net = Network::new(NetConfig::default());
    let seg = net.add_segment(&mut sim, "s0");
    let (tx, rx) = (net.attach(MacAddr(0), seg), net.attach(MacAddr(1), seg));
    let p = sim.add_processor("tx");
    sim.spawn(p, "tx", move |ctx| {
        for _ in 0..frames {
            tx.send(ctx, Dest::Unicast(MacAddr(1)), Bytes::from_static(FRAME));
        }
    });
    let p = sim.add_processor("rx");
    sim.spawn(p, "rx", move |ctx| {
        for _ in 0..frames {
            rx.rx().recv(ctx);
        }
    });
    timed_run(sim, frames, "ethernet unicast")
}

/// Four segments on one lane joined by a switch; station `i` storms station
/// `i + 1`, so every frame is captured, forwarded and delivered once.
fn ethernet_switch(seed: u64, frames: u64) -> f64 {
    const SEGS: u32 = 4;
    let mut sim = Simulation::new(seed);
    let mut net = Network::new(NetConfig::default());
    let segs: Vec<SegmentId> = (0..SEGS)
        .map(|i| net.add_segment(&mut sim, &format!("s{i}")))
        .collect();
    net.add_switch(&mut sim, &segs, "sw");
    for i in 0..SEGS {
        let nic = net.attach(MacAddr(i), segs[i as usize]);
        let dst = MacAddr((i + 1) % SEGS);
        let (tx, p) = (nic.clone(), sim.add_processor(&format!("tx{i}")));
        sim.spawn(p, &format!("tx{i}"), move |ctx| {
            for _ in 0..frames {
                tx.send(ctx, Dest::Unicast(dst), Bytes::from_static(FRAME));
            }
        });
        let p = sim.add_processor(&format!("rx{i}"));
        sim.spawn(p, &format!("rx{i}"), move |ctx| {
            for _ in 0..frames {
                nic.rx().recv(ctx);
            }
        });
    }
    timed_run(sim, frames * u64::from(SEGS), "ethernet switch")
}

/// One sender storming multicast frames into a 32-member group on a shared
/// segment; the cost is per delivery (frame x member).
fn ethernet_fanout(seed: u64, frames: u64) -> f64 {
    const MEMBERS: u32 = 32;
    let mut sim = Simulation::new(seed);
    let mut net = Network::new(NetConfig::default());
    let seg = net.add_segment(&mut sim, "s0");
    let group = McastAddr(1);
    for i in 0..MEMBERS {
        let nic = net.attach(MacAddr(1 + i), seg);
        nic.join_group(group);
        let p = sim.add_processor(&format!("m{i}"));
        sim.spawn(p, &format!("rx{i}"), move |ctx| {
            for _ in 0..frames {
                nic.rx().recv(ctx);
            }
        });
    }
    let sender = net.attach(MacAddr(0), seg);
    let p = sim.add_processor("tx");
    sim.spawn(p, "tx", move |ctx| {
        for _ in 0..frames {
            sender.send(ctx, Dest::Multicast(group), Bytes::from_static(FRAME));
        }
    });
    timed_run(sim, frames * u64::from(MEMBERS), "ethernet fanout")
}

/// Encode + decode of one FLIP header around a 64-byte fragment.
fn flip_header_codec(iters: u64) -> f64 {
    let header = PacketHeader {
        dst: FlipAddr(0x1234),
        src: FlipAddr(0x5678),
        msg_id: 7,
        offset: 0,
        total_len: 64,
        ptype: PacketType::Data,
        multicast: false,
    };
    let t0 = Instant::now();
    for i in 0..iters {
        let h = PacketHeader {
            msg_id: i,
            ..header
        };
        let packet = black_box(h).encode_with(black_box(FRAME));
        let (decoded, data) = PacketHeader::decode(&packet).expect("own encoding decodes");
        black_box((decoded, data));
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// `msgs` messages of `bytes` from one bare FLIP interface to another over a
/// pre-installed route: fragmentation, the wire, reassembly, delivery.
fn flip_message(seed: u64, msgs: u64, bytes: usize) -> f64 {
    let mut sim = Simulation::new(seed);
    let mut net = Network::new(NetConfig::default());
    let seg = net.add_segment(&mut sim, "s0");
    let tx = FlipIface::new(net.attach(MacAddr(0), seg));
    let rx = FlipIface::new(net.attach(MacAddr(1), seg));
    let (src, dst) = (FlipAddr(0xa), FlipAddr(0xb));
    tx.register(src);
    rx.register(dst);
    tx.install_route(dst, MacAddr(1));
    let payload = Bytes::from(SplitMix::stream(seed, 30).bytes(bytes));
    let delivered = Arc::new(AtomicU64::new(0));
    let p = sim.add_processor("tx");
    sim.spawn(p, "tx", move |ctx| {
        for _ in 0..msgs {
            tx.send(ctx, src, dst, payload.clone());
        }
    });
    let (count, p) = (Arc::clone(&delivered), sim.add_processor("rx"));
    sim.spawn(p, "rx", move |ctx| {
        let mut got = 0;
        while got < msgs {
            let frame = rx.nic().rx().recv(ctx).expect("segment stays up");
            got += rx.handle_frame(ctx, &frame).len() as u64;
        }
        count.store(got, Ordering::Relaxed);
    });
    let ns = timed_run(sim, msgs, "flip message");
    assert_eq!(
        delivered.load(Ordering::Relaxed),
        msgs,
        "flip probe lost messages"
    );
    ns
}

/// One Orca operation's worth of marshalling: a small header and a 1 KB
/// argument written and read back.
fn orca_wire_codec(iters: u64) -> f64 {
    let arg = [0x5au8; 1024];
    let t0 = Instant::now();
    for i in 0..iters {
        let mut w = WireWriter::with_capacity(arg.len() + 32);
        w.put_u32(black_box(i as u32)).put_u64(i).put_bytes(&arg);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        let decoded = (
            r.get_u32().expect("u32"),
            r.get_u64().expect("u64"),
            r.get_bytes().expect("bytes").len(),
        );
        black_box(decoded);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// A quarter-size kernel fleet for one virtual second: host seconds and
/// events of the run, at the given lane and runner counts.
fn fleet_cell(seed: u64, lanes: u32, shards: usize) -> (f64, u64) {
    let spec = fleet::spec(Stack::Kernel, seed, 256, lanes, SimDuration::from_secs(1));
    let world = build_fleet(&spec, Backend::default_backend(), shards);
    let t0 = Instant::now();
    let report = world.run();
    (t0.elapsed().as_secs_f64(), report.sim_events)
}

/// Runs every probe and returns the unit costs by per-layer metric name.
pub fn suite(seed: u64, spans: &mut Spans) -> Metrics {
    let mut m = Metrics::new();

    // desim and the twelve protocol cells: probe-sized reps of the
    // `sched_micro` and `proto_pair` workloads themselves.
    let sched = spans.scope("probe desim cells", |s| {
        let worlds = sched_micro::prepare(seed, &sched_micro::PROBE, s);
        sched_micro::run_cells(seed, &sched_micro::PROBE, worlds, s)
    });
    let proto = spans.scope("probe protocol cells", |s| {
        let cells = proto_pair::prepare(seed, &proto_pair::PROBE, false, s);
        proto_pair::run_cells(cells, &Metrics::new(), s)
    });
    let is_unit_cost = |k: &str| {
        k.contains(".host_us_")
            || [
                "desim.handoff_ns",
                "desim.timer_wake_ns",
                "desim.wheel_ns_10k",
                "desim.thread_lifecycle_ns",
            ]
            .contains(&k)
    };
    for (k, v) in sched.timed.into_iter().chain(proto.timed) {
        if is_unit_cost(&k) {
            m.insert(k, v);
        }
    }

    let mut probe = |name: &str, f: &mut dyn FnMut() -> f64| {
        let v = spans.scope(&format!("probe {name}"), |_| f());
        m.insert(name.to_owned(), v);
    };
    probe("ethernet.unicast_ns_per_frame", &mut || {
        ethernet_unicast(seed, 100_000)
    });
    probe("ethernet.switch_ns_per_frame", &mut || {
        ethernet_switch(seed, 20_000)
    });
    probe("ethernet.fanout_ns_per_delivery", &mut || {
        ethernet_fanout(seed, 10_000)
    });
    probe("flip.header_codec_ns", &mut || flip_header_codec(1_000_000));
    probe("flip.msg_1frag_ns", &mut || {
        flip_message(seed, 40_000, 1_000)
    });
    probe("flip.msg_6frag_ns", &mut || {
        flip_message(seed, 10_000, 8_000)
    });
    probe("orca.wire_codec_ns", &mut || orca_wire_codec(500_000));

    // The window engine's price: the same fleet cell on eight lanes and on
    // one. The multi-core number: the eight-lane cell on two runner threads.
    let (lanes8, lanes1, runners2) = spans.scope("probe fleet cells", |_| {
        (
            fleet_cell(seed, 8, 1),
            fleet_cell(seed, 1, 1),
            fleet_cell(seed, 8, 2),
        )
    });
    m.insert(
        "desim.window.overhead_ns_per_event".into(),
        lanes8.0 * 1e9 / lanes8.1 as f64 - lanes1.0 * 1e9 / lanes1.1 as f64,
    );
    m.insert("desim.shard.speedup_2r".into(), lanes8.0 / runners2.0);
    m.insert("desim.shard.host_cores".into(), host::nproc() as f64);
    m
}
