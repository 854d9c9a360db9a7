//! `Comm::split` under rank failure: gang containment drills (ISSUE 7).
//!
//! The serving runtime carves per-job gangs out of a rank pool with
//! `split` and runs each job attempt under [`run_gang`] containment. These
//! tests pin the containment contract at the comm layer:
//!
//! * a rank that dies inside one gang poisons *only its own*
//!   sub-communicator — every member of that gang observes a structured
//!   failure (the kill itself, or a `PeerGone` cascade) instead of hanging;
//! * sibling gangs split from the same parent complete their work
//!   untouched, bit for bit;
//! * the parent (world) communicator survives: after the gang attempt every
//!   pool rank — including the one whose closure was killed — still
//!   participates in world collectives;
//! * the world ranks of a plain `run_threaded` run under the same
//!   containment: a panicking rank aborts the run, it cannot strand a peer.

use std::time::Duration;

use diffreg_comm::{
    run_gang, run_threaded, ChaosComm, ChaosConfig, Comm, ReduceOp, ThreadComm,
};

/// The core containment drill. 4 world ranks split into two 2-rank gangs;
/// gang A's rank 0 (world rank 0) is killed by an epoch-keyed chaos fault
/// mid-collective. Gang A must fail structurally on both members, gang B
/// must finish its reduction untouched, and the world communicator must
/// still complete a barrier + allreduce afterwards on all 4 ranks.
#[test]
fn dead_rank_poisons_only_its_own_gang() {
    let out = run_threaded(4, |world| {
        let me = world.rank();
        let gang_id = me / 2; // ranks {0,1} -> gang 0, {2,3} -> gang 1
        let sub = world.split(gang_id, me % 2);
        sub.set_timeout(Some(Duration::from_secs(10)));

        let result = run_gang(sub, |gang| {
            // Gang 0's rank 0 dies at its 2nd collective epoch; the fault
            // schedule lives on the gang comm, so gang 1 runs fault-free.
            let cfg = if gang_id == 0 {
                ChaosConfig::seeded(3).with_kill_at_epoch(0, 2)
            } else {
                ChaosConfig::seeded(3)
            };
            let chaos = ChaosComm::new(gang, cfg);
            chaos.barrier(); // epoch 1
            let mut v = vec![(me + 1) as f64];
            chaos.allreduce(&mut v, ReduceOp::Sum); // epoch 2: kill fires here in gang 0
            chaos.barrier(); // epoch 3
            v[0]
        });

        // The world communicator must be fully usable after the gang
        // attempt, on every rank — dead-gang members included.
        world.barrier();
        let survivors = world.sum_f64(if result.is_ok() { 1.0 } else { 0.0 });
        (result, survivors)
    });

    // Gang 0, rank 0: the injected kill itself.
    let f0 = out[0].0.as_ref().expect_err("world rank 0 must be killed");
    assert_eq!(f0.rank, 0, "failure reports the gang-local rank");
    assert!(f0.payload.contains("collective epoch 2"), "{}", f0.payload);

    // Gang 0, rank 1: the PeerGone cascade, contained — not a hang, not a
    // test-process panic.
    let f1 = out[1].0.as_ref().expect_err("gang peer must cascade");
    assert!(
        f1.payload.contains("peer") || f1.payload.to_lowercase().contains("timeout"),
        "gang peer saw an unstructured failure: {}",
        f1.payload
    );

    // Gang 1 finished untouched with the exact reduction value.
    for r in [2, 3] {
        let v = *out[r].0.as_ref().expect("sibling gang must complete");
        assert_eq!(v.to_bits(), 7.0f64.to_bits(), "gang 1 reduction perturbed");
    }

    // The post-attempt world collective saw all 4 ranks and agreed that
    // exactly the two gang-1 ranks succeeded.
    for (r, (_, survivors)) in out.iter().enumerate() {
        assert_eq!(*survivors, 2.0, "world collective broken on rank {r}");
    }
}

/// Sequential reuse: after a gang dies, the same pool ranks must be able to
/// split fresh gangs off the world communicator and complete work — the
/// retry path of the serving runtime.
#[test]
fn pool_survives_gang_death_and_runs_the_next_gang() {
    let out = run_threaded(4, |world| {
        let me = world.rank();

        // Attempt 1: all four ranks form one gang; rank 2 is killed.
        let sub = world.split(0, me);
        sub.set_timeout(Some(Duration::from_secs(10)));
        let first = run_gang(sub, |gang| {
            let chaos =
                ChaosComm::new(gang, ChaosConfig::seeded(9).with_kill_at_epoch(2, 1));
            chaos.barrier();
            chaos.barrier();
        });
        assert!(first.is_err() || me != 2, "rank 2's attempt must fail");

        // Attempt 2 (the "retry"): a fresh split must work for everyone.
        let sub = world.split(0, me);
        let second = run_gang(sub, |gang| {
            let mut v = vec![1.0f64];
            gang.allreduce(&mut v, ReduceOp::Sum);
            v[0]
        });
        second.expect("retry gang must complete on every rank")
    });
    assert_eq!(out, vec![4.0; 4]);
}

/// A kill inside a *nested* split (a gang splitting row/column
/// sub-communicators, as the pencil FFT does) still resolves within the
/// gang: stack unwinding drops the nested endpoints and the watchdog turns
/// orphaned collective waits into contained timeouts.
#[test]
fn kill_inside_nested_split_is_contained_by_the_gang() {
    let out = run_threaded(4, |world| {
        let me = world.rank();
        let sub = world.split(0, me);
        sub.set_timeout(Some(Duration::from_millis(500)));
        let result = run_gang(sub, |gang| {
            let row = gang.split(gang.rank() / 2, gang.rank() % 2);
            if gang.rank() == 1 {
                panic!("injected kill inside nested split");
            }
            row.barrier(); // rank 0's row partner is dead
            let mut v = vec![1.0f64];
            gang.allreduce(&mut v, ReduceOp::Sum);
            v[0]
        });
        world.barrier(); // the pool outlives the wreckage
        result
    });
    assert!(out[1].is_err(), "killed rank reports failure");
    for (r, res) in out.iter().enumerate() {
        if let Err(e) = res {
            assert!(
                e.payload.contains("peer")
                    || e.payload.to_lowercase().contains("timeout")
                    || e.payload.contains("injected kill"),
                "rank {r}: unstructured failure {}",
                e.payload
            );
        }
    }
}

/// `run_threaded` with rank 0 panicking while rank 1 sits in `blocked`:
/// returns the re-raised panic message. Driven from a helper thread, so a
/// runtime that strands rank 1 fails this test after 10 s instead of hanging
/// the suite.
fn abort_message(blocked: fn(&ThreadComm)) -> String {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let run = std::panic::catch_unwind(|| {
            run_threaded(2, |c| {
                if c.rank() == 0 {
                    panic!("boom on zero");
                }
                blocked(c);
            })
        });
        let payload = run.expect_err("a rank panic must abort the run");
        let _ = tx.send(payload.downcast::<String>().map(|s| *s).unwrap_or_default());
    });
    rx.recv_timeout(Duration::from_secs(10)).expect("run_threaded hung on a dead rank")
}

/// A rank that dies must abort the run, not strand its peers — whether they
/// sit in a barrier or in a receive — and the
/// re-raised message carries the failing rank, its payload and where the
/// peers were.
#[test]
fn run_threaded_aborts_instead_of_hanging_when_a_rank_panics() {
    for blocked in [|c: &ThreadComm| c.barrier(), |c: &ThreadComm| drop(c.recv::<u8>(0, 5))] {
        let msg = abort_message(blocked);
        assert!(msg.starts_with("rank thread panicked: rank 0 failed: boom on zero"), "{msg}");
        assert!(msg.contains("state at failure:"), "{msg}");
    }
}
