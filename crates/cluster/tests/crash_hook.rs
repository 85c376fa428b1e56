//! The runtime's own unwinds — a scheduled crash, the cascade a failed
//! peer's poison starts, a deadlocked receive — skip the panic hook, so
//! an injected crash prints nothing and captures no backtrace. A rank
//! body's own panic still reaches the hook. The hook is process-global,
//! so this test has a binary of its own.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mdp_cluster::{run_spmd, run_spmd_ft, ClusterError, FaultPlan, Machine};

#[test]
fn only_a_rank_bodys_own_panic_reaches_the_hook() {
    let calls = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&calls);
    std::panic::set_hook(Box::new(move |_| {
        counter.fetch_add(1, Ordering::SeqCst);
    }));

    let plan = FaultPlan::new(0).with_crash(1, 2);
    let out = run_spmd_ft(2, Machine::ideal(), plan, async |comm| {
        for step in 0..4 {
            comm.fault_step(step);
        }
        comm.rank()
    })
    .expect("rank 0 survives the scheduled crash");
    let after_crash = calls.load(Ordering::SeqCst);

    let deadlock = run_spmd(2, Machine::ideal(), async |comm| {
        let _ = comm.recv(1 - comm.rank(), 7).await;
    })
    .unwrap_err();
    let after_deadlock = calls.load(Ordering::SeqCst);

    // Rank 0's own panic reaches the hook; the cascade it starts in
    // rank 1's receive does not.
    let failed = run_spmd(2, Machine::ideal(), async |comm| {
        if comm.rank() == 0 {
            panic!("a bug in the rank body");
        }
        let _ = comm.recv(0, 7).await;
    })
    .unwrap_err();
    let after_panic = calls.load(Ordering::SeqCst);
    // Restore the default hook first, so a failed assertion prints.
    drop(std::panic::take_hook());

    assert_eq!(out.crash_sites(), vec![(1, 2)]);
    assert_eq!(after_crash, 0, "scheduled crash");
    assert!(
        matches!(deadlock, ClusterError::Deadlock { .. }),
        "{deadlock:?}"
    );
    assert_eq!(after_deadlock, 0, "deadlock");
    assert_eq!(
        failed,
        ClusterError::RanksFailed(vec![(0, "a bug in the rank body".to_string())])
    );
    assert_eq!(after_panic, 1, "rank body panic");
}
