//! Slotted packet-level CDMA link simulation.
//!
//! The paper's case for minimal recoding is an *application* argument:
//! "recoding can be very costly ... hard real-time applications, and
//! applications where maintaining a persistent high data rate is
//! critical" (§1, §2). This crate makes that argument measurable. Time
//! advances in slots; each node offers traffic to a random out-neighbor
//! every slot with some probability; with a correct TOCA assignment all
//! concurrent transmissions are collision-free — **except** that a
//! node whose code was just changed spends `retune_slots` slots
//! retuning its transceiver, during which it can neither send nor
//! receive. Every recoding therefore costs a bounded outage window,
//! and a strategy that recodes three nodes where one would do triples
//! the outage.
//!
//! [`RadioSim`] tracks outage windows and delivery statistics;
//! [`run_scenario`] interleaves a reconfiguration event trace (at given
//! slot times) with traffic under any recoding strategy, yielding
//! the goodput comparison that `repro -- radio` tabulates: Minim's
//! minimal recoding translates directly into fewer lost slots.
//!
//! Reception is pluggable ([`Reception`]): the default
//! [`Reception::Orthogonal`] rule trusts CA1/CA2 (concurrent
//! transmissions never collide), while [`Reception::SinrCapture`]
//! re-judges every delivery against the physical layer —
//! `minim-power`'s path-loss gain model, aggregate interference from
//! the slot's concurrent transmitters, and a despread-SINR capture
//! threshold — replacing the binary collision rule with the one real
//! receivers implement.

#![deny(missing_docs)]

use minim_core::RecodeOutcome;
use minim_graph::NodeId;
use minim_net::event::Event;
use minim_net::Network;
use minim_power::{GainModel, LinkBudget};
use rand::Rng;
use std::collections::HashMap;

/// How concurrent transmissions resolve at a receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reception {
    /// Orthogonal CDMA codes: with CA1/CA2 holding, concurrent
    /// transmissions never collide — the original binary rule
    /// (delivery fails only on outages or a missing receiver).
    Orthogonal,
    /// Physical SINR capture (`minim-power`'s gain model): a packet is
    /// decoded iff its despread SINR at the receiver clears
    /// `capture_sinr` against the aggregate power of every concurrent
    /// transmitter (walls attenuate per crossing; a receiver cancels
    /// its own transmission). Each node's transmit power is derived
    /// from its configured range via the noise-limited decode disc,
    /// so a correct code assignment usually delivers — but dense
    /// concurrent bursts can now physically drown a link, which the
    /// orthogonal abstraction hides.
    SinrCapture {
        /// Path-loss model (wall attenuation included).
        gain: GainModel,
        /// Processing gain and noise of every receiver.
        budget: LinkBudget,
        /// Despread SINR a packet needs to be captured (linear).
        capture_sinr: f64,
    },
}

impl Reception {
    /// A terrain-path-loss capture model with the CDMA-64 budget and
    /// a capture threshold of 4 (≈ 6 dB).
    pub fn sinr_capture() -> Self {
        Reception::SinrCapture {
            gain: GainModel::terrain(),
            budget: LinkBudget::cdma64(),
            capture_sinr: 4.0,
        }
    }
}

/// Link-layer simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct RadioConfig {
    /// Slots a transceiver is deaf/mute after a code change. CDMA
    /// hardware must resynchronize its spreading sequence; a handful
    /// of slots is the right order of magnitude.
    pub retune_slots: u64,
    /// Per-slot probability that a node offers one packet.
    pub traffic_prob: f64,
    /// The reception model (default: orthogonal codes).
    pub reception: Reception,
}

impl Default for RadioConfig {
    fn default() -> Self {
        RadioConfig {
            retune_slots: 8,
            traffic_prob: 0.5,
            reception: Reception::Orthogonal,
        }
    }
}

/// Delivery accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RadioStats {
    /// Packets offered by the traffic generator.
    pub offered: u64,
    /// Packets delivered collision-free.
    pub delivered: u64,
    /// Packets lost because the sender was retuning.
    pub lost_sender_outage: u64,
    /// Packets lost because the receiver was retuning.
    pub lost_receiver_outage: u64,
    /// Packets lost for lack of any in-range receiver.
    pub lost_no_receiver: u64,
    /// Packets lost because the despread SINR fell below the capture
    /// threshold (only under [`Reception::SinrCapture`]).
    pub lost_sinr: u64,
    /// Total node·slots spent retuning.
    pub outage_node_slots: u64,
    /// Code changes observed.
    pub recodings: u64,
}

impl RadioStats {
    /// Delivered / offered (1.0 when nothing was offered).
    pub fn goodput(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.delivered as f64 / self.offered as f64
        }
    }

    /// Packets lost to retune outages (either end).
    pub fn lost_to_outages(&self) -> u64 {
        self.lost_sender_outage + self.lost_receiver_outage
    }
}

/// The slotted link simulation.
#[derive(Debug, Clone)]
pub struct RadioSim {
    cfg: RadioConfig,
    now: u64,
    /// Node → first slot at which it is tuned again.
    outage_until: HashMap<NodeId, u64>,
    stats: RadioStats,
}

impl RadioSim {
    /// Creates an idle simulation at slot 0.
    pub fn new(cfg: RadioConfig) -> Self {
        RadioSim {
            cfg,
            now: 0,
            outage_until: HashMap::new(),
            stats: RadioStats::default(),
        }
    }

    /// Current slot.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> RadioStats {
        self.stats
    }

    /// Whether `node` is retuning at the current slot.
    pub fn in_outage(&self, node: NodeId) -> bool {
        self.outage_until.get(&node).is_some_and(|&t| t > self.now)
    }

    /// Registers the outage windows caused by a recoding outcome.
    pub fn on_recode(&mut self, outcome: &RecodeOutcome) {
        for &(node, _, _) in &outcome.recoded {
            self.stats.recodings += 1;
            let until = self.now + self.cfg.retune_slots;
            let entry = self.outage_until.entry(node).or_insert(0);
            *entry = (*entry).max(until);
        }
    }

    /// Advances one slot: every tuned node may offer a packet to a
    /// uniformly random out-neighbor; delivery succeeds iff both ends
    /// are tuned — and, under [`Reception::SinrCapture`], iff the
    /// despread SINR at the receiver clears the capture threshold
    /// against the slot's concurrent transmitters. Under
    /// [`Reception::Orthogonal`] collision-freedom is CA1/CA2's job —
    /// asserted, not simulated.
    ///
    /// Both reception models consume randomness identically (offer
    /// coin, receiver pick), so the same seed replays the same
    /// traffic under either — the capture model only re-judges
    /// deliveries.
    pub fn slot<R: Rng + ?Sized>(&mut self, net: &Network, rng: &mut R) {
        debug_assert!(
            net.validate().is_ok(),
            "radio requires a correct assignment"
        );
        // Pass 1: traffic generation and outage accounting. Intents
        // whose sender is mute are charged immediately and never
        // transmit (a retuning transceiver radiates nothing).
        let mut intents: Vec<(NodeId, NodeId)> = Vec::new();
        for u in net.iter_nodes() {
            if self.in_outage(u) {
                self.stats.outage_node_slots += 1;
            }
            if !rng.gen_bool(self.cfg.traffic_prob) {
                continue;
            }
            self.stats.offered += 1;
            let out = net.graph().out_neighbors(u);
            if out.is_empty() {
                self.stats.lost_no_receiver += 1;
                continue;
            }
            let v = out[rng.gen_range(0..out.len())];
            if self.in_outage(u) {
                self.stats.lost_sender_outage += 1;
                continue;
            }
            intents.push((u, v));
        }
        // Pass 2: judge deliveries against the concurrent slot.
        match self.cfg.reception {
            Reception::Orthogonal => {
                for &(_, v) in &intents {
                    if self.in_outage(v) {
                        self.stats.lost_receiver_outage += 1;
                    } else {
                        self.stats.delivered += 1;
                    }
                }
            }
            Reception::SinrCapture {
                gain,
                budget,
                capture_sinr,
            } => {
                // Per-transmitter state, computed once per slot:
                // position and transmit power — the latter from the
                // configured range via `minim-power`'s shared
                // power ↔ range mapping (exact inverse of the gain
                // charged below).
                let tx: Vec<(NodeId, NodeId, minim_geom::Point, f64)> = intents
                    .iter()
                    .map(|&(u, v)| {
                        let cfg = net.config(u).expect("transmitter exists");
                        let p =
                            minim_power::power_for_range(&gain, budget, capture_sinr, cfg.range);
                        (u, v, cfg.pos, p)
                    })
                    .collect();
                let walls = (!net.obstacles().is_empty()).then(|| net.obstacle_index());
                for &(u, v, u_pos, u_power) in &tx {
                    if self.in_outage(v) {
                        self.stats.lost_receiver_outage += 1;
                        continue;
                    }
                    let rx = net.config(v).expect("receiver exists").pos;
                    let signal =
                        budget.processing_gain * gain.gain_between(&u_pos, &rx, walls) * u_power;
                    let mut interference = budget.noise;
                    for &(w, _, w_pos, w_power) in &tx {
                        // A receiver cancels its own transmission.
                        if w == u || w == v {
                            continue;
                        }
                        interference += gain.gain_between(&w_pos, &rx, walls) * w_power;
                    }
                    if signal / interference >= capture_sinr {
                        self.stats.delivered += 1;
                    } else {
                        self.stats.lost_sinr += 1;
                    }
                }
            }
        }
        self.now += 1;
        self.outage_until.retain(|_, &mut t| t > self.now);
    }
}

/// A reconfiguration scheduled at a slot time.
#[derive(Debug, Clone)]
pub struct TimedEvent {
    /// Slot at which the event fires (events at the same slot fire in
    /// list order, before that slot's traffic).
    pub at: u64,
    /// The reconfiguration.
    pub event: Event,
}

/// Runs `total_slots` of traffic over `net`, firing `schedule` through
/// `fire` at the scheduled slots and charging retune outages for every
/// node its outcome recoded. The schedule must be sorted by `at`.
/// `fire` is usually `|net, e| strategy.apply(net, e).1`.
pub fn run_scenario<R: Rng + ?Sized>(
    net: &mut Network,
    schedule: &[TimedEvent],
    total_slots: u64,
    cfg: RadioConfig,
    rng: &mut R,
    mut fire: impl FnMut(&mut Network, &Event) -> RecodeOutcome,
) -> RadioStats {
    debug_assert!(
        schedule.windows(2).all(|w| w[0].at <= w[1].at),
        "schedule must be sorted by slot"
    );
    let mut sim = RadioSim::new(cfg);
    let mut next = 0usize;
    for _ in 0..total_slots {
        while next < schedule.len() && schedule[next].at <= sim.now() {
            sim.on_recode(&fire(net, &schedule[next].event));
            next += 1;
        }
        sim.slot(net, rng);
    }
    sim.stats()
}

/// Spreads `events` uniformly across `total_slots` (the common way the
/// studies schedule a workload burst).
pub fn spread_events(events: Vec<Event>, total_slots: u64, start: u64) -> Vec<TimedEvent> {
    let n = events.len().max(1) as u64;
    let span = total_slots.saturating_sub(start).max(1);
    events
        .into_iter()
        .enumerate()
        .map(|(i, event)| TimedEvent {
            at: start + (i as u64 * span) / n,
            event,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use minim_core::{Minim, RecodingStrategy, StrategyKind};
    use minim_geom::Point;
    use minim_net::workload::{JoinWorkload, MovementWorkload};
    use minim_net::NodeConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line_net(n: usize) -> Network {
        let mut net = Network::new(10.0);
        let mut m = Minim::default();
        for i in 0..n {
            let id = net.next_id();
            m.on_join(
                &mut net,
                id,
                NodeConfig::new(Point::new(i as f64 * 6.0, 0.0), 7.0),
            );
        }
        net
    }

    #[test]
    fn tuned_network_delivers_everything() {
        let mut net = line_net(6);
        let mut sim = RadioSim::new(RadioConfig {
            retune_slots: 4,
            traffic_prob: 1.0,
            ..RadioConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            sim.slot(&net, &mut rng);
        }
        let s = sim.stats();
        assert_eq!(s.offered, 300);
        assert_eq!(s.delivered, 300, "no outages, no endpoints missing");
        assert_eq!(s.lost_to_outages(), 0);
        let _ = &mut net;
    }

    #[test]
    fn recoded_node_is_deaf_and_mute_for_the_window() {
        // Fully connected triangle so the two tuned nodes can still
        // exchange traffic around the deaf victim.
        let mut net = Network::new(15.0);
        let mut m = Minim::default();
        for i in 0..3 {
            let id = net.next_id();
            m.on_join(
                &mut net,
                id,
                NodeConfig::new(Point::new(i as f64 * 6.0, 0.0), 13.0),
            );
        }
        let mut sim = RadioSim::new(RadioConfig {
            retune_slots: 5,
            traffic_prob: 1.0,
            ..RadioConfig::default()
        });
        let victim = net.node_ids()[1];
        let outcome = RecodeOutcome {
            recoded: vec![(victim, None, minim_graph::Color::new(9))],
            max_color_after: 9,
        };
        sim.on_recode(&outcome);
        assert!(sim.in_outage(victim));
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..5 {
            sim.slot(&net, &mut rng);
        }
        assert!(!sim.in_outage(victim), "window expired");
        let s = sim.stats();
        assert_eq!(s.outage_node_slots, 5);
        // The victim's own offers were sender-lost; neighbors lost only
        // the packets they happened to aim at the victim.
        assert!(s.lost_sender_outage >= 5);
        assert!(s.delivered > 0);
    }

    #[test]
    fn overlapping_recodes_extend_not_reset() {
        let net = line_net(2);
        let mut sim = RadioSim::new(RadioConfig {
            retune_slots: 4,
            traffic_prob: 0.0,
            ..RadioConfig::default()
        });
        let v = net.node_ids()[0];
        let mk = |c: u32| RecodeOutcome {
            recoded: vec![(v, None, minim_graph::Color::new(c))],
            max_color_after: c,
        };
        sim.on_recode(&mk(5));
        let mut rng = StdRng::seed_from_u64(3);
        sim.slot(&net, &mut rng);
        sim.slot(&net, &mut rng); // now = 2, outage until 4
        sim.on_recode(&mk(6)); // extends to 6
        for _ in 0..3 {
            sim.slot(&net, &mut rng);
        }
        assert!(sim.in_outage(v), "second retune still pending at slot 5");
        sim.slot(&net, &mut rng);
        assert!(!sim.in_outage(v));
        assert_eq!(sim.stats().recodings, 2);
    }

    #[test]
    fn run_scenario_orders_events_and_traffic() {
        let mut net = Network::new(10.0);
        let mut strategy = Minim::default();
        let mut rng = StdRng::seed_from_u64(4);
        let joins = JoinWorkload::paper(10).generate(&mut rng);
        let schedule = spread_events(joins, 100, 0);
        let stats = run_scenario(
            &mut net,
            &schedule,
            100,
            RadioConfig::default(),
            &mut rng,
            |net, e| strategy.apply(net, e).1,
        );
        assert_eq!(net.node_count(), 10, "all joins fired");
        assert!(stats.recodings >= 10);
        assert!(stats.offered > 0);
        assert!(net.validate().is_ok());
    }

    /// The crate's raison d'être: under identical mobility and traffic,
    /// Minim's lower recoding count yields strictly fewer outage losses
    /// than CP's leave-and-rejoin.
    #[test]
    fn minim_outage_losses_below_cp_under_mobility() {
        let mut build_rng = StdRng::seed_from_u64(5);
        let join_events = JoinWorkload::paper(30).generate(&mut build_rng);

        let mut totals = Vec::new();
        for kind in [StrategyKind::Minim, StrategyKind::Cp] {
            let mut net = Network::new(25.0);
            let mut s = kind.build();
            for e in &join_events {
                s.apply(&mut net, e);
            }
            // Identical movement schedule for both strategies.
            let mut move_rng = StdRng::seed_from_u64(6);
            let mut schedule = Vec::new();
            let mut ghost = net.clone();
            for round in 0..4u64 {
                for e in MovementWorkload::paper(40.0, 1).generate_round(&ghost, &mut move_rng) {
                    minim_net::event::apply_topology(&mut ghost, &e);
                    schedule.push(TimedEvent {
                        at: round * 250,
                        event: e,
                    });
                }
            }
            let mut traffic_rng = StdRng::seed_from_u64(7);
            let stats = run_scenario(
                &mut net,
                &schedule,
                1000,
                RadioConfig {
                    retune_slots: 12,
                    traffic_prob: 0.6,
                    ..RadioConfig::default()
                },
                &mut traffic_rng,
                |net, e| s.apply(net, e).1,
            );
            totals.push(stats);
        }
        let (minim, cp) = (totals[0], totals[1]);
        assert!(
            minim.lost_to_outages() < cp.lost_to_outages(),
            "Minim lost {} to outages, CP lost {}",
            minim.lost_to_outages(),
            cp.lost_to_outages()
        );
        assert!(minim.goodput() >= cp.goodput());
        assert!(minim.recodings < cp.recodings);
    }

    #[test]
    fn goodput_of_empty_sim_is_one() {
        assert_eq!(RadioStats::default().goodput(), 1.0);
    }

    #[test]
    fn sinr_capture_delivers_clean_pairs_and_consumes_identical_randomness() {
        // Two well-separated pairs: capture succeeds whenever the
        // orthogonal rule would deliver, and the traffic pattern
        // (offered counts) is bit-identical between models under the
        // same seed.
        let mut net = Network::new(15.0);
        let mut m = Minim::default();
        for (x, y) in [(0.0, 0.0), (8.0, 0.0), (500.0, 0.0), (508.0, 0.0)] {
            let id = net.next_id();
            m.on_join(&mut net, id, NodeConfig::new(Point::new(x, y), 10.0));
        }
        let run_with = |reception: Reception| {
            let mut sim = RadioSim::new(RadioConfig {
                retune_slots: 4,
                traffic_prob: 0.7,
                reception,
            });
            let mut rng = StdRng::seed_from_u64(21);
            for _ in 0..80 {
                sim.slot(&net, &mut rng);
            }
            sim.stats()
        };
        let ortho = run_with(Reception::Orthogonal);
        let capture = run_with(Reception::sinr_capture());
        assert_eq!(ortho.offered, capture.offered, "same traffic stream");
        assert_eq!(ortho.delivered, ortho.offered);
        assert_eq!(capture.lost_sinr, 0, "isolated pairs always capture");
        assert_eq!(capture.delivered, capture.offered);
    }

    #[test]
    fn sinr_capture_drops_drowned_links() {
        // A long weak link next to a shouting clump: the clump's
        // aggregate interference must drown some of the weak link's
        // packets — losses the orthogonal abstraction cannot see.
        let mut net = Network::new(40.0);
        let mut m = Minim::default();
        // The weak pair, 30 apart with just-enough range.
        let far_a = net.next_id();
        m.on_join(
            &mut net,
            far_a,
            NodeConfig::new(Point::new(0.0, 60.0), 31.0),
        );
        let far_b = net.next_id();
        m.on_join(
            &mut net,
            far_b,
            NodeConfig::new(Point::new(30.0, 60.0), 31.0),
        );
        // A dense high-power clump near the weak receiver.
        for k in 0..6 {
            let id = net.next_id();
            m.on_join(
                &mut net,
                id,
                NodeConfig::new(Point::new(28.0 + k as f64, 50.0), 60.0),
            );
        }
        let mut sim = RadioSim::new(RadioConfig {
            retune_slots: 0,
            traffic_prob: 1.0,
            reception: Reception::sinr_capture(),
        });
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..60 {
            sim.slot(&net, &mut rng);
        }
        let s = sim.stats();
        assert!(s.lost_sinr > 0, "the clump must drown the weak link");
        assert!(s.delivered > 0, "clump-internal traffic still captures");
        assert_eq!(s.offered, s.delivered + s.lost_sinr + s.lost_no_receiver);
    }

    #[test]
    fn walls_shield_interference_under_capture() {
        // A clump placed *outside* everyone's link range (so the
        // induced topology — and hence the traffic stream — is
        // identical with and without the wall) but close enough that
        // its aggregate power drowns the marginal weak link. The wall
        // between them touches no actual link; it only attenuates the
        // interference paths (10 dB per crossing), which must flip the
        // weak link from drowned back to captured.
        let build = |walled: bool| {
            let mut net = Network::new(40.0);
            if walled {
                net.add_obstacle(minim_geom::Segment::new(
                    Point::new(-20.0, 40.0),
                    Point::new(80.0, 40.0),
                ));
            }
            let mut m = Minim::default();
            // The weak pair: 30 apart with range 31 — barely closed.
            let a = net.next_id();
            m.on_join(&mut net, a, NodeConfig::new(Point::new(0.0, 60.0), 31.0));
            let b = net.next_id();
            m.on_join(&mut net, b, NodeConfig::new(Point::new(30.0, 60.0), 31.0));
            // The clump at y=20: ≥ 40 from both weak nodes, range 35 —
            // loud, but linked only internally.
            for k in 0..6 {
                let id = net.next_id();
                m.on_join(
                    &mut net,
                    id,
                    NodeConfig::new(Point::new(28.0 + k as f64, 20.0), 35.0),
                );
            }
            // Identical link sets: the wall crosses no link.
            assert_eq!(net.graph().out_neighbors(a), &[b]);
            assert_eq!(net.graph().out_neighbors(b), &[a]);
            let mut sim = RadioSim::new(RadioConfig {
                retune_slots: 0,
                traffic_prob: 1.0,
                reception: Reception::sinr_capture(),
            });
            let mut rng = StdRng::seed_from_u64(33);
            for _ in 0..60 {
                sim.slot(&net, &mut rng);
            }
            sim.stats()
        };
        let open = build(false);
        let walled = build(true);
        assert_eq!(open.offered, walled.offered, "identical traffic stream");
        assert!(open.lost_sinr > 0, "unshielded clump drowns the weak link");
        assert!(
            walled.lost_sinr < open.lost_sinr,
            "wall must shield the weak link: {} < {}",
            walled.lost_sinr,
            open.lost_sinr
        );
    }

    #[test]
    fn spread_events_is_sorted_and_in_range() {
        let events: Vec<Event> = (0..7)
            .map(|i| Event::Join {
                cfg: NodeConfig::new(Point::new(i as f64, 0.0), 5.0),
            })
            .collect();
        let sched = spread_events(events, 100, 10);
        assert_eq!(sched.len(), 7);
        assert!(sched.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(sched.iter().all(|t| t.at >= 10 && t.at < 100));
    }
}
