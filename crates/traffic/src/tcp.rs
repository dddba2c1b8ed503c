//! An event-driven TCP bulk-transfer simulator.
//!
//! Models one unidirectional transfer (sender → receiver) with the
//! mechanisms that shape the byte/ACK time series the paper correlates:
//!
//! * slow start and AIMD congestion avoidance (cwnd in MSS units),
//! * a paced bottleneck rate at the sender's egress,
//! * cumulative acknowledgments (one ACK per received segment),
//! * optional random segment loss with fast retransmit (3 dup-ACKs)
//!   and a coarse retransmission timeout.
//!
//! Fidelity target: the *shape* of cumulative bytes over time and the
//! equality of bytes-sent vs bytes-acked curves, not per-RFC edge-case
//! conformance (no SACK, no Nagle, no window scaling — the same honesty
//! the smoltcp feature list practices).

use quicksand_net::{SimDuration, SimTime};
use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// One packet as a vantage point would record it from TCP/IP headers:
/// timestamps, direction, sequence/ack numbers, payload length. No
/// payload bytes — SSL/TLS hides those, but not the header fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketRecord {
    /// When the packet passes the vantage point.
    pub at: SimTime,
    /// Sequence number of the first payload byte (data packets).
    pub seq: u64,
    /// Payload length in bytes (0 for pure ACKs).
    pub len: u32,
    /// Cumulative acknowledgment number carried by the packet.
    pub ack: u64,
}

/// Configuration for [`TcpSim`].
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Bytes to transfer.
    pub transfer_bytes: u64,
    /// Maximum segment size.
    pub mss: u32,
    /// One-way propagation delay (RTT = 2×).
    pub one_way_delay: SimDuration,
    /// Bottleneck rate in bytes/second (pacing at the sender).
    pub rate_bytes_per_sec: u64,
    /// Initial congestion window in segments.
    pub initial_cwnd: u32,
    /// Per-segment loss probability (data direction only).
    pub loss: f64,
    /// RNG seed (loss draws).
    pub seed: u64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            transfer_bytes: 10 * 1024 * 1024,
            mss: 1448,
            one_way_delay: SimDuration::from_millis(40),
            rate_bytes_per_sec: 2_000_000,
            initial_cwnd: 10,
            loss: 0.0,
            seed: 0x7C9,
        }
    }
}

/// The simulator's output: header traces at both ends.
#[derive(Clone, Debug, Default)]
pub struct TcpTrace {
    /// Data packets as sent (timestamped at the sender's egress).
    pub data_sent: Vec<PacketRecord>,
    /// Data packets as received (sender's egress + one-way delay,
    /// lost segments excluded).
    pub data_received: Vec<PacketRecord>,
    /// Pure ACKs as sent by the receiver.
    pub acks_sent: Vec<PacketRecord>,
    /// Pure ACKs as received by the sender.
    pub acks_received: Vec<PacketRecord>,
    /// When the last byte was acknowledged.
    pub completed_at: SimTime,
}

#[derive(PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Ev {
    /// Data segment arrives at receiver (seq, len).
    Arrive(u64, u32),
    /// ACK arrives at sender (cumulative ack).
    AckArrive(u64),
    /// Retransmission timer check.
    Rto,
}

/// The TCP simulator. Construct with [`TcpSim::new`], then call
/// [`TcpSim::run`] once.
pub struct TcpSim {
    config: TcpConfig,
    rng: StdRng,
}

impl TcpSim {
    /// Create a simulator.
    ///
    /// # Panics
    /// Panics on degenerate configs (zero MSS/rate/transfer).
    pub fn new(config: TcpConfig) -> Self {
        assert!(config.mss > 0 && config.rate_bytes_per_sec > 0);
        assert!(config.transfer_bytes > 0);
        assert!((0.0..1.0).contains(&config.loss));
        let rng = StdRng::seed_from_u64(config.seed);
        TcpSim { config, rng }
    }

    /// Run the transfer to completion and return the traces.
    pub fn run(mut self) -> TcpTrace {
        let c = self.config.clone();
        let mss = u64::from(c.mss);
        let mut trace = TcpTrace::default();

        // Event queue keyed by (time, seq#) for determinism.
        let mut queue: BinaryHeap<Reverse<(SimTime, u64, Ev)>> = BinaryHeap::new();
        let mut evseq = 0u64;
        let push = |q: &mut BinaryHeap<Reverse<(SimTime, u64, Ev)>>,
                        evseq: &mut u64,
                        at: SimTime,
                        ev: Ev| {
            *evseq += 1;
            q.push(Reverse((at, *evseq, ev)));
        };

        // Sender state.
        let mut next_seq = 0u64; // next new byte to send
        let mut snd_una = 0u64; // lowest unacked byte
        let mut cwnd = f64::from(c.initial_cwnd); // in MSS
        let mut ssthresh = f64::INFINITY;
        let mut dup_acks = 0u32;
        let mut egress_free_at = SimTime::ZERO; // pacing
        let mut now = SimTime::ZERO;
        let mut last_progress = SimTime::ZERO;
        let rto = SimDuration(c.one_way_delay.0 * 6).max(SimDuration::from_millis(200));
        // Receiver state: contiguous received watermark + out-of-order
        // segments (seq → len).
        let mut rcv_next = 0u64;
        let mut ooo: BTreeMap<u64, u32> = BTreeMap::new();

        // Helper: send (or resend) the segment starting at `seq`.
        // Serialization at the bottleneck paces departures.
        macro_rules! send_segment {
            ($seq:expr) => {{
                let seq: u64 = $seq;
                let len = (c.transfer_bytes - seq).min(mss) as u32;
                let depart = egress_free_at.max(now);
                let ser =
                    SimDuration((u64::from(len) * 1_000_000) / c.rate_bytes_per_sec);
                egress_free_at = depart + ser;
                let rec = PacketRecord {
                    at: egress_free_at,
                    seq,
                    len,
                    ack: 0,
                };
                trace.data_sent.push(rec);
                if self.rng.gen_bool(1.0 - c.loss) {
                    push(
                        &mut queue,
                        &mut evseq,
                        egress_free_at + c.one_way_delay,
                        Ev::Arrive(seq, len),
                    );
                }
                len
            }};
        }

        // Fill the initial window.
        let in_flight = |next_seq: u64, snd_una: u64| next_seq.saturating_sub(snd_una);
        while next_seq < c.transfer_bytes
            && in_flight(next_seq, snd_una) + mss <= (cwnd * mss as f64) as u64
        {
            let len = send_segment!(next_seq);
            next_seq += u64::from(len);
        }
        push(&mut queue, &mut evseq, now + rto, Ev::Rto);

        let mut guard = 0u64;
        while let Some(Reverse((at, _, ev))) = queue.pop() {
            guard += 1;
            assert!(guard < 50_000_000, "runaway TCP simulation");
            now = at;
            match ev {
                Ev::Arrive(seq, len) => {
                    trace.data_received.push(PacketRecord {
                        at: now,
                        seq,
                        len,
                        ack: 0,
                    });
                    if seq == rcv_next {
                        rcv_next += u64::from(len);
                        // Coalesce any buffered contiguous segments.
                        while let Some((&s, &l)) = ooo.first_key_value() {
                            if s <= rcv_next {
                                ooo.pop_first();
                                rcv_next = rcv_next.max(s + u64::from(l));
                            } else {
                                break;
                            }
                        }
                    } else if seq > rcv_next {
                        ooo.insert(seq, len);
                    }
                    // Cumulative ACK for every data segment.
                    let ack = PacketRecord {
                        at: now,
                        seq: 0,
                        len: 0,
                        ack: rcv_next,
                    };
                    trace.acks_sent.push(ack);
                    push(
                        &mut queue,
                        &mut evseq,
                        now + c.one_way_delay,
                        Ev::AckArrive(rcv_next),
                    );
                }
                Ev::AckArrive(ack) => {
                    trace.acks_received.push(PacketRecord {
                        at: now,
                        seq: 0,
                        len: 0,
                        ack,
                    });
                    if ack > snd_una {
                        // New data acked: grow cwnd.
                        let acked_segs = ((ack - snd_una) as f64 / mss as f64).ceil();
                        if cwnd < ssthresh {
                            cwnd += acked_segs; // slow start
                        } else {
                            cwnd += acked_segs / cwnd; // congestion avoidance
                        }
                        snd_una = ack;
                        dup_acks = 0;
                        last_progress = now;
                        if snd_una >= c.transfer_bytes {
                            trace.completed_at = now;
                            break;
                        }
                    } else if ack == snd_una && snd_una < next_seq {
                        dup_acks += 1;
                        if dup_acks == 3 {
                            // Fast retransmit + multiplicative decrease.
                            ssthresh = (cwnd / 2.0).max(2.0);
                            cwnd = ssthresh;
                            send_segment!(snd_una);
                        }
                    }
                    // Send whatever the window now allows.
                    while next_seq < c.transfer_bytes
                        && in_flight(next_seq, snd_una) + mss
                            <= (cwnd * mss as f64) as u64
                    {
                        let len = send_segment!(next_seq);
                        next_seq += u64::from(len);
                    }
                }
                Ev::Rto => {
                    if snd_una >= c.transfer_bytes {
                        break;
                    }
                    if now.since(last_progress) >= rto && snd_una < next_seq {
                        // Timeout: retransmit the first unacked segment,
                        // collapse the window.
                        ssthresh = (cwnd / 2.0).max(2.0);
                        cwnd = f64::from(c.initial_cwnd).min(ssthresh).max(1.0);
                        dup_acks = 0;
                        send_segment!(snd_una);
                        last_progress = now;
                    }
                    push(&mut queue, &mut evseq, now + rto, Ev::Rto);
                }
            }
        }
        if trace.completed_at == SimTime::ZERO {
            trace.completed_at = now;
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(config: TcpConfig) -> TcpTrace {
        TcpSim::new(config).run()
    }

    #[test]
    fn lossless_transfer_completes_and_conserves_bytes() {
        let cfg = TcpConfig {
            transfer_bytes: 1_000_000,
            ..Default::default()
        };
        let t = run(cfg.clone());
        // All bytes delivered exactly once (no loss ⇒ no retransmits).
        let sent: u64 = t.data_sent.iter().map(|p| u64::from(p.len)).sum();
        assert_eq!(sent, cfg.transfer_bytes);
        let recv: u64 = t.data_received.iter().map(|p| u64::from(p.len)).sum();
        assert_eq!(recv, cfg.transfer_bytes);
        // Final ACK covers the whole transfer.
        assert_eq!(
            t.acks_received.last().unwrap().ack,
            cfg.transfer_bytes
        );
        assert!(t.completed_at > SimTime::ZERO);
    }

    #[test]
    fn acks_are_cumulative_and_monotone() {
        let t = run(TcpConfig {
            transfer_bytes: 500_000,
            loss: 0.02,
            ..Default::default()
        });
        let mut prev = 0u64;
        for a in &t.acks_sent {
            assert!(a.ack >= prev, "ACK went backwards");
            prev = a.ack;
        }
    }

    #[test]
    fn lossy_transfer_still_completes() {
        let cfg = TcpConfig {
            transfer_bytes: 300_000,
            loss: 0.05,
            seed: 7,
            ..Default::default()
        };
        let t = run(cfg.clone());
        assert_eq!(t.acks_received.last().unwrap().ack, cfg.transfer_bytes);
        // Retransmissions happened: more bytes sent than the file size.
        let sent: u64 = t.data_sent.iter().map(|p| u64::from(p.len)).sum();
        assert!(sent > cfg.transfer_bytes);
    }

    #[test]
    fn throughput_respects_bottleneck() {
        let cfg = TcpConfig {
            transfer_bytes: 4_000_000,
            rate_bytes_per_sec: 1_000_000,
            ..Default::default()
        };
        let t = run(cfg.clone());
        let secs = t.completed_at.as_secs_f64();
        // Can't beat the bottleneck; shouldn't be much slower either.
        assert!(secs >= 4.0, "faster than the bottleneck: {secs}");
        assert!(secs < 8.0, "unreasonably slow: {secs}");
    }

    #[test]
    fn slow_start_ramps_up() {
        let t = run(TcpConfig {
            transfer_bytes: 2_000_000,
            ..Default::default()
        });
        // Bytes delivered in the first RTT window should be much less
        // than in a later window of the same length (the ramp).
        let window = 0.08; // one RTT
        let bytes_in = |from: f64, to: f64| -> u64 {
            t.data_received
                .iter()
                .filter(|p| {
                    let s = p.at.as_secs_f64();
                    s >= from && s < to
                })
                .map(|p| u64::from(p.len))
                .sum()
        };
        let first = bytes_in(0.0, window);
        let later = bytes_in(4.0 * window, 5.0 * window);
        assert!(
            later > first * 2,
            "no ramp: first={first} later={later}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = TcpConfig {
            transfer_bytes: 200_000,
            loss: 0.03,
            ..Default::default()
        };
        let a = run(cfg.clone());
        let b = run(cfg);
        assert_eq!(a.data_sent, b.data_sent);
        assert_eq!(a.acks_received, b.acks_received);
    }

    #[test]
    #[should_panic]
    fn zero_transfer_panics() {
        let _ = TcpSim::new(TcpConfig {
            transfer_bytes: 0,
            ..Default::default()
        });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Whatever the loss rate and size, the transfer completes, the
        /// receiver's final cumulative ACK equals the file size, and
        /// ACKs never run ahead of delivered contiguous data.
        #[test]
        fn completion_and_ack_sanity(
            kb in 16u64..256,
            loss in 0.0f64..0.15,
            seed in any::<u64>(),
        ) {
            let cfg = TcpConfig {
                transfer_bytes: kb * 1024,
                loss,
                seed,
                ..Default::default()
            };
            let t = TcpSim::new(cfg.clone()).run();
            prop_assert_eq!(
                t.acks_received.last().unwrap().ack,
                cfg.transfer_bytes
            );
            let mut prev = 0;
            for a in &t.acks_sent {
                prop_assert!(a.ack >= prev);
                prop_assert!(a.ack <= cfg.transfer_bytes);
                prev = a.ack;
            }
        }
    }
}
