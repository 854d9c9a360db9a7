//! Chaos-injection drills for the simulated MPI runtime.
//!
//! The oracle throughout: [`ChaosComm`] perturbs *timing only*, so a correct
//! SPMD program must produce bitwise identical results under any seeded
//! fault schedule — and the schedules themselves must be byte-identical
//! replays of the seed. Injected stalls and kills must surface as structured
//! [`CommError`] / rank-failure reports instead of hangs.

use std::time::{Duration, Instant};

use diffreg_comm::{
    run_threaded, run_threaded_checked, ChaosComm, ChaosConfig, Comm, CommError, ReduceOp,
};

/// A comm workload touching every primitive: tag-matched p2p ring exchange,
/// barrier, allreduce, allgather, broadcast, alltoallv, and a split with a
/// sub-communicator reduction. Returns the allreduced scalar (identical on
/// all ranks) so callers can compare runs bitwise.
fn workload<C: Comm>(c: &C) -> f64 {
    let p = c.size();
    let me = c.rank();
    let right = (me + 1) % p;
    let left = (me + p - 1) % p;
    // Two tags to the same neighbor: reordering across tags is legal, FIFO
    // within a tag is required.
    c.send(right, 10, vec![me as u64]);
    c.send(right, 11, vec![2 * me as u64]);
    let a: Vec<u64> = c.recv(left, 11);
    let b: Vec<u64> = c.recv(left, 10);
    assert_eq!(b, vec![left as u64]);
    assert_eq!(a, vec![2 * left as u64]);
    c.barrier();
    let mut v = vec![me as f64, 1.0];
    c.allreduce(&mut v, ReduceOp::Sum);
    assert_eq!(v[1], p as f64);
    let g = c.allgather(vec![me]);
    assert_eq!(g, (0..p).map(|r| vec![r]).collect::<Vec<_>>());
    let mut data = if me == 0 { vec![7u32, 8, 9] } else { vec![] };
    c.broadcast(0, &mut data);
    assert_eq!(data, vec![7, 8, 9]);
    let parts: Vec<Vec<u64>> = (0..p).map(|d| vec![(me * 100 + d) as u64]).collect();
    let t = c.alltoallv(parts);
    for (s, part) in t.iter().enumerate() {
        assert_eq!(part, &vec![(s * 100 + me) as u64]);
    }
    let sub = c.split(me % 2, me / 2);
    let s = sub.sum_f64(me as f64);
    let expect: f64 = (0..p).filter(|r| r % 2 == me % 2).map(|r| r as f64).sum();
    assert_eq!(s, expect);
    v[0]
}

/// Same seed ⇒ byte-identical per-rank fault schedules, at 2/4/6 ranks;
/// a different seed must produce a different schedule.
#[test]
fn same_seed_replays_byte_identical_schedules() {
    for p in [2usize, 4, 6] {
        let run = |seed: u64| -> Vec<Vec<String>> {
            run_threaded(p, move |c| {
                let chaos = ChaosComm::new(
                    c,
                    ChaosConfig::seeded(seed).with_latency(0.4, 60).with_reorder(0.5),
                );
                workload(&chaos);
                chaos.schedule()
            })
        };
        let first = run(42);
        let replay = run(42);
        assert_eq!(first, replay, "schedules diverged across replays at p={p}");
        let other = run(43);
        assert_ne!(first, other, "different seeds gave identical schedules at p={p}");
    }
}

/// Injected latency + tag-safe reordering must not change any result bit:
/// every collective and the p2p exchange agree with the fault-free run.
#[test]
fn collectives_under_chaos_match_fault_free_bitwise() {
    for p in [2usize, 4, 6] {
        let clean: Vec<u64> = run_threaded(p, |c| workload(c).to_bits());
        for seed in [1u64, 9, 1234] {
            let noisy: Vec<u64> = run_threaded(p, move |c| {
                let chaos = ChaosComm::new(
                    c,
                    ChaosConfig::seeded(seed).with_latency(0.3, 80).with_reorder(0.5),
                );
                workload(&chaos).to_bits()
            });
            assert_eq!(noisy, clean, "chaos changed results at p={p} seed={seed}");
        }
    }
}

/// Ranks calling *different* collectives is a contract violation, reported
/// with the expected and observed operation (not a type-mismatch panic).
#[test]
fn mismatched_collectives_are_reported_precisely() {
    let out = run_threaded_checked(2, |c| {
        // Deliberate mismatch: the contract checker must report it.
        if c.rank() == 0 {
            let mut v = vec![0.0f64];
            c.allreduce(&mut v, ReduceOp::Sum); // rank 0 reduces…
        } else {
            let _ = c.allgather(vec![1u8]); // …rank 1 gathers
        }
    });
    let violation = out
        .iter()
        .filter_map(|r| r.as_ref().err())
        .find(|f| f.payload.contains("contract violation"))
        .expect("one rank must report the contract violation");
    assert!(violation.payload.contains("Allreduce(send)"), "{}", violation.payload);
    assert!(violation.payload.contains("Allgather"), "{}", violation.payload);
    assert!(violation.payload.contains("different orders"), "{}", violation.payload);
}

/// A barrier is a stamped collective too: facing another collective it is a
/// contract violation at once, not a deadlock left to the watchdog. The
/// violating rank then returns, so its peer sees it gone.
#[test]
fn a_barrier_against_another_collective_is_a_contract_violation() {
    let t0 = Instant::now();
    let out = run_threaded(2, |c| {
        c.set_timeout(Some(Duration::from_secs(3)));
        // Deliberate mismatch: the contract checker must report it.
        if c.rank() == 0 {
            let mut v = vec![0.0f64];
            c.try_allreduce(&mut v, ReduceOp::Sum).unwrap_err()
        } else {
            c.try_barrier().unwrap_err()
        }
    });
    match &out[0] {
        CommError::ContractViolation { rank: 0, src: 1, expected, observed } => {
            assert!(expected.contains("Allreduce(send)"), "{expected}");
            assert!(observed.contains("Barrier"), "{observed}");
        }
        other => panic!("expected ContractViolation on rank 0, got {other:?}"),
    }
    assert_eq!(out[1], CommError::PeerGone { rank: 1, peer: 0 });
    assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
}

/// A barrier waits on every peer directly, so a peer that has already
/// returned is `PeerGone` at once, long before the watchdog.
#[test]
fn a_barrier_whose_peer_has_returned_is_peer_gone() {
    let out = run_threaded(2, |c| {
        c.set_timeout(Some(Duration::from_secs(3)));
        if c.rank() == 1 {
            return None;
        }
        let t0 = Instant::now();
        Some((c.try_barrier().unwrap_err(), t0.elapsed()))
    });
    let (err, elapsed) = out[0].clone().unwrap();
    assert_eq!(err, CommError::PeerGone { rank: 0, peer: 1 });
    assert!(elapsed < Duration::from_secs(1), "{elapsed:?}");
}

/// An injected rank stall is reported as `CommError::Timeout` with the
/// blocked-rank table — and once the stall ends, the run completes.
#[test]
fn injected_stall_surfaces_as_timeout_with_table() {
    let out = run_threaded(2, |c| {
        c.set_timeout(Some(Duration::from_millis(120)));
        let cfg = if c.rank() == 0 {
            // Rank 0 stalls 500ms at its first comm op (the send below).
            ChaosConfig::seeded(7).with_stall(0, 1, 500)
        } else {
            ChaosConfig::seeded(7)
        };
        let chaos = ChaosComm::new(c, cfg);
        if c.rank() == 0 {
            chaos.send(1, 3, vec![9u8]);
            None
        } else {
            let err = chaos.try_recv::<u8>(0, 3).unwrap_err();
            // The stall is bounded: disarm the watchdog and finish the exchange.
            c.set_timeout(None);
            let v: Vec<u8> = chaos.recv(0, 3);
            assert_eq!(v, vec![9]);
            Some(err)
        }
    });
    match out[1].as_ref().unwrap() {
        CommError::Timeout { rank, waiting_on, table } => {
            assert_eq!(*rank, 1);
            assert!(waiting_on.contains("src=0"), "{waiting_on}");
            assert_eq!(table.len(), 2, "{table:?}");
        }
        other => panic!("expected Timeout on rank 1, got {other:?}"),
    }
}

/// A kill-at-Nth-op fault is contained by `run_threaded_checked`: the killed
/// rank reports the injected kill, every peer unblocks (PeerGone) and
/// nothing hangs.
#[test]
fn chaos_kill_is_contained_without_hanging_peers() {
    let out = run_threaded_checked(4, |c| {
        c.set_timeout(Some(Duration::from_secs(10)));
        let chaos = ChaosComm::new(c, ChaosConfig::seeded(3).with_kill(2, 3));
        workload(&chaos)
    });
    let killed = out[2].as_ref().unwrap_err();
    assert_eq!(killed.rank, 2);
    assert!(killed.payload.contains("injected kill"), "{}", killed.payload);
    assert!(killed.payload.contains("op 3"), "{}", killed.payload);
    for (r, res) in out.iter().enumerate() {
        if r != 2 {
            // Peers either finished before the kill or observed PeerGone —
            // never a hang (the join above returning proves liveness).
            if let Err(f) = res {
                assert!(f.payload.contains("gone"), "rank {r}: {}", f.payload);
            }
        }
    }
}

/// Chaos schedules survive communicator splits: the sub-communicator gets a
/// seed derived from the parent stream, so whole-program replays (including
/// sub-comm traffic) stay deterministic.
#[test]
fn split_subcomms_stay_deterministic_under_chaos() {
    let run = || -> Vec<Vec<String>> {
        run_threaded(4, |c| {
            let chaos =
                ChaosComm::new(c, ChaosConfig::seeded(11).with_latency(0.5, 40).with_reorder(0.4));
            let sub = chaos.split(chaos.rank() % 2, chaos.rank() / 2);
            let me = chaos.rank();
            let peer = 1 - sub.rank();
            sub.send(peer, 77, vec![me as u64]);
            let got: Vec<u64> = sub.recv(peer, 77);
            assert_eq!(got.len(), 1);
            let mut log = chaos.schedule();
            log.extend(sub.schedule());
            log
        })
    };
    assert_eq!(run(), run());
}

/// Epoch-keyed kills fire at an exact *collective* epoch, independent of how
/// many p2p ops preceded them — the property that makes failure placement
/// reproducible without seed-hunting over raw op counters. Rank 1 does extra
/// rank-dependent p2p traffic first; the kill still lands exactly at its
/// 3rd collective.
#[test]
fn kill_at_epoch_fires_at_exact_collective_epoch() {
    let out = run_threaded_checked(4, |c| {
        c.set_timeout(Some(Duration::from_secs(10)));
        let chaos = ChaosComm::new(c, ChaosConfig::seeded(5).with_kill_at_epoch(1, 3));
        // Rank-dependent p2p prologue: shifts op counters, not epochs.
        if chaos.rank() == 0 {
            chaos.send(1, 77, vec![1u8]);
            chaos.send(1, 78, vec![2u8]);
        }
        if chaos.rank() == 1 {
            let _: Vec<u8> = chaos.recv(0, 77);
            let _: Vec<u8> = chaos.recv(0, 78);
        }
        chaos.barrier(); // epoch 1
        let mut v = vec![chaos.rank() as f64];
        chaos.allreduce(&mut v, ReduceOp::Sum); // epoch 2
        assert_eq!(chaos.epochs_executed(), 2);
        chaos.barrier(); // epoch 3: rank 1 dies here
        chaos.barrier(); // unreachable for everyone (PeerGone cascade)
        chaos.schedule()
    });
    let fail = out[1].as_ref().expect_err("rank 1 must be killed");
    assert!(
        fail.payload.contains("collective epoch 3"),
        "kill must report its epoch: {}",
        fail.payload
    );
    for (r, res) in out.iter().enumerate() {
        if r != 1 {
            let e = res.as_ref().expect_err("peers must cascade, not hang");
            assert!(
                e.payload.contains("peer") || e.payload.to_lowercase().contains("timeout"),
                "rank {r}: unexpected failure {}",
                e.payload
            );
        }
    }
}

/// Epoch-keyed stalls perturb timing only: results stay bitwise identical
/// to the fault-free run and the schedule replay is byte-identical, with
/// the stall recorded at the exact collective epoch.
#[test]
fn stall_at_epoch_is_timing_only_and_replays() {
    let clean: Vec<u64> = run_threaded(4, |c| workload(c).to_bits());
    let run = || {
        run_threaded(4, |c| {
            let chaos = ChaosComm::new(
                c,
                ChaosConfig::seeded(11).with_latency(0.2, 40).with_stall_at_epoch(2, 2, 30),
            );
            (workload(&chaos).to_bits(), chaos.schedule())
        })
    };
    let first = run();
    let replay = run();
    let bits: Vec<u64> = first.iter().map(|(b, _)| *b).collect();
    assert_eq!(bits, clean, "epoch stall changed results");
    let scheds: Vec<_> = first.iter().map(|(_, s)| s.clone()).collect();
    let scheds2: Vec<_> = replay.iter().map(|(_, s)| s.clone()).collect();
    assert_eq!(scheds, scheds2, "epoch-stall schedule must replay byte-identically");
    assert!(
        scheds[2].iter().any(|l| l.contains("epoch2") && l.contains("stall=30ms")),
        "rank 2 schedule must record the stall at epoch 2: {:?}",
        scheds[2]
    );
}
