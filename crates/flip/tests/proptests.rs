//! Property-based tests: FLIP header codec and fragmentation/reassembly
//! must round-trip arbitrary messages, including under fragment reordering,
//! and hostile fragments must never complete a message early.

use bytes::Bytes;
use proptest::prelude::*;

use desim::Simulation;
use ethernet::{Dest, MacAddr, NetConfig, Network};
use flip::{FlipAddr, FlipIface, PacketHeader, PacketType, FLIP_FRAGMENT_BYTES};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn header_roundtrips(
        dst in any::<u64>(),
        src in any::<u64>(),
        msg_id in any::<u64>(),
        offset in any::<u32>(),
        total_len in any::<u32>(),
        ptype_sel in 0u8..4,
        multicast in any::<bool>(),
        body in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let ptype = match ptype_sel {
            0 => PacketType::Data,
            1 => PacketType::Locate,
            2 => PacketType::LocateReply,
            _ => PacketType::NotHere,
        };
        let h = PacketHeader {
            dst: FlipAddr(dst),
            src: FlipAddr(src),
            msg_id,
            offset,
            total_len,
            ptype,
            multicast,
        };
        let wire = h.encode_with(&body);
        let (h2, body2) = PacketHeader::decode(&wire).expect("roundtrip");
        prop_assert_eq!(h, h2);
        prop_assert_eq!(&body2[..], &body[..]);
    }

    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = PacketHeader::decode(&Bytes::from(bytes));
    }

    #[test]
    fn messages_of_any_size_roundtrip_over_the_wire(
        size in 0usize..6000,
        seed in any::<u64>(),
    ) {
        let mut sim = Simulation::new(seed);
        let mut net = Network::new(NetConfig::default());
        let seg = net.add_segment(&mut sim, "s0");
        let tx = FlipIface::new(net.attach(MacAddr(0), seg));
        let rx = FlipIface::new(net.attach(MacAddr(1), seg));
        rx.register(FlipAddr(9));
        let proc = sim.add_processor("m");
        let payload: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        let payload2 = payload.clone();
        let rx2 = rx.clone();
        // Pump the sender's interface so locate replies are processed.
        let tx_pump = tx.clone();
        sim.spawn_daemon(proc, "tx-pump", move |ctx| {
            let frames = tx_pump.nic().rx().clone();
            while let Some(frame) = frames.recv(ctx) {
                let _ = tx_pump.handle_frame(ctx, &frame);
            }
        });
        let h = sim.spawn(proc, "driver", move |ctx| {
            tx.send(ctx, FlipAddr(1), FlipAddr(9), Bytes::from(payload2.clone()));
            let frames = rx2.nic().rx().clone();
            loop {
                let frame = frames.recv(ctx).expect("frame");
                let msgs = rx2.handle_frame(ctx, &frame);
                if let Some(m) = msgs.into_iter().next() {
                    assert_eq!(&m.payload[..], &payload2[..], "payload intact");
                    assert_eq!(m.src, FlipAddr(1));
                    break;
                }
            }
        });
        sim.run_until_finished(&h).expect("run");
    }

    #[test]
    fn fragment_count_is_exact(size in 1usize..20_000) {
        // div_ceil semantics: the number of wire fragments FLIP produces.
        let frags = size.div_ceil(FLIP_FRAGMENT_BYTES);
        prop_assert!(frags * FLIP_FRAGMENT_BYTES >= size);
        prop_assert!((frags - 1) * FLIP_FRAGMENT_BYTES < size);
    }

    #[test]
    fn hostile_fragments_never_deliver_a_short_or_gapped_message(
        total in 1usize..4000,
        frags in proptest::collection::vec((any::<u16>(), any::<u16>()), 1..8),
    ) {
        let mut sim = Simulation::new(7);
        let mut net = Network::new(NetConfig::default());
        let seg = net.add_segment(&mut sim, "s0");
        let raw = net.attach(MacAddr(0), seg);
        let rx = FlipIface::new(net.attach(MacAddr(1), seg));
        rx.register(FlipAddr(9));
        let proc = sim.add_processor("m");
        // Arbitrary in-range `(offset, len)` pieces of one message, each
        // fitting one frame; each byte carries its (non-zero) position
        // pattern, so a gap shows.
        let pieces: Vec<(usize, usize)> = frags
            .iter()
            .map(|&(o, l)| {
                let off = usize::from(o) % total;
                let fits = FLIP_FRAGMENT_BYTES.min(total - off);
                (off, usize::from(l) % (fits + 1))
            })
            .collect();
        let h = sim.spawn(proc, "driver", move |ctx| {
            for &(off, len) in &pieces {
                let header = PacketHeader {
                    dst: FlipAddr(9),
                    src: FlipAddr(1),
                    msg_id: 5,
                    offset: off as u32,
                    total_len: total as u32,
                    ptype: PacketType::Data,
                    multicast: false,
                };
                let body: Vec<u8> = (off..off + len).map(|p| (p % 251) as u8 + 1).collect();
                raw.send(ctx, Dest::Unicast(MacAddr(1)), header.encode_with(&body));
            }
            let frames = rx.nic().rx().clone();
            for _ in &pieces {
                let frame = frames.recv(ctx).expect("frame");
                for m in rx.handle_frame(ctx, &frame) {
                    assert_eq!(m.payload.len(), total, "delivered length");
                    assert!(
                        m.payload.iter().enumerate().all(|(p, &b)| b == (p % 251) as u8 + 1),
                        "delivered bytes that were never sent"
                    );
                }
            }
        });
        sim.run_until_finished(&h).expect("run");
    }
}
