//! Chaos lockdown for the self-healing serve path: a randomized fault
//! schedule (worker panics and stalls at named failpoints) runs against
//! concurrent clients, and the server must hold four invariants:
//!
//! 1. **No client hangs** — every wait is deadline-bounded and returns.
//! 2. **Every request resolves to a typed outcome** — `Ok(Prediction)`
//!    or a typed [`ServeError`]; never a panic across the API boundary.
//! 3. **Non-degraded answers are bitwise identical** to a direct
//!    [`EngineSession`] evaluation of the same example — faults may cost
//!    latency or availability, never silent accuracy.
//! 4. **Per-shard stats sum consistently** — the aggregate equals the
//!    per-shard sums, and delivered `Ok` answers equal the requests the
//!    shards claim to have served.

use std::sync::Arc;
use std::time::Duration;

use mn_ensemble::engine::EnginePlan;
use mn_ensemble::faults::{self, FaultAction};
use mn_ensemble::serve::{BatchingConfig, ServeError, Server};
use mn_ensemble::EnsembleMember;
use mn_nn::arch::{Architecture, InputSpec};
use mn_nn::Network;
use mn_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small mixed ensemble: cheap enough for many chaos cases, real
/// enough to exercise the engine's staging and combine paths.
fn small_members(master_seed: u64) -> Vec<EnsembleMember> {
    let input = InputSpec::new(2, 6, 6);
    (0..3u64)
        .map(|i| {
            let arch = Architecture::mlp(format!("m{i}"), input, 4, vec![8 + 2 * i as usize]);
            EnsembleMember::new(format!("m{i}"), Network::seeded(&arch, master_seed + i))
        })
        .collect()
}

/// One entry of the randomized fault schedule.
#[derive(Debug, Clone, Copy)]
struct ScheduledFault {
    site: usize,   // index into SITES
    action: usize, // 0 = panic, 1 = stall
    times: u64,
    stall_ms: u64,
}

const SITES: [&str; 3] = [
    faults::sites::QUEUE_POP,
    faults::sites::WORKER_EVAL,
    faults::sites::SHUTDOWN_DRAIN,
];

fn fault_strategy() -> impl Strategy<Value = ScheduledFault> {
    (0usize..SITES.len(), 0usize..2, 1u64..3, 5u64..30).prop_map(
        |(site, action, times, stall_ms)| ScheduledFault {
            site,
            action,
            times,
            stall_ms,
        },
    )
}

#[derive(Debug)]
enum Outcome {
    Answered {
        example: Vec<f32>,
        probs: Vec<f32>,
        degraded: bool,
    },
    Shed(ServeError),
    RejectedAtSubmit,
}

proptest! {
    // Each case spins up a real server, injects faults with sleeps and
    // restart backoff, and joins client threads: keep the case count low
    // enough that the whole suite stays in CI-scale seconds.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn randomized_faults_never_break_serving_invariants(
        schedule in proptest::collection::vec(fault_strategy(), 1..4),
        shards in 1usize..4,
        clients in 2u64..5,
        per_client in 3usize..7,
        seed in 0u64..1_000_000,
    ) {
        let plan = EnginePlan::new(small_members(seed % 97), 2).unwrap().into_shared();

        // Arm the schedule. The scope's global lock also serializes this
        // suite against every other fault-driven test in the workspace;
        // panic counts stay under the restart budget so availability
        // survives the whole schedule.
        let scope = faults::scope();
        let mut injected_panics = 0u64;
        for f in &schedule {
            let action = if f.action == 0 {
                injected_panics += f.times;
                FaultAction::Panic
            } else {
                FaultAction::Stall(Duration::from_millis(f.stall_ms))
            };
            // Later schedule entries for the same site overwrite earlier
            // ones — fine: the schedule is still a random single action
            // per site, and `fired` tallies whatever actually triggered.
            scope.enable_times(SITES[f.site], action, f.times);
        }

        let server = Server::builder(Arc::clone(&plan))
            .shards(shards)
            .queue_capacity(256)
            .batching(BatchingConfig { max_batch: 4 })
            .restart_budget(16)
            .restart_backoff(Duration::from_millis(1))
            .start();

        // Concurrent clients, every wait bounded by a generous deadline:
        // if invariant 1 fails, the deadline converts the hang into a
        // typed error and the assertions below report it.
        let outcomes: Vec<Outcome> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let client = server.client();
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(seed ^ (c + 1));
                        let mut out = Vec::new();
                        for _ in 0..per_client {
                            let x = Tensor::randn([2, 6, 6], 1.0, &mut rng);
                            let pending = match client
                                .submit_with_deadline(&x, Duration::from_secs(10))
                            {
                                Ok(p) => p,
                                Err(_) => {
                                    out.push(Outcome::RejectedAtSubmit);
                                    continue;
                                }
                            };
                            match pending.wait() {
                                Ok(p) => out.push(Outcome::Answered {
                                    example: x.into_vec(),
                                    probs: p.probs,
                                    degraded: p.degraded,
                                }),
                                Err(e) => out.push(Outcome::Shed(e)),
                            }
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });

        let report = server.shutdown();
        drop(scope);

        // Invariant 2: every submitted request produced exactly one typed
        // outcome, and the errors are from the expected fault vocabulary.
        prop_assert_eq!(outcomes.len(), (clients as usize) * per_client);
        for o in &outcomes {
            if let Outcome::Shed(e) = o {
                prop_assert!(
                    matches!(
                        e,
                        ServeError::WorkerGone
                            | ServeError::Closed
                            | ServeError::DeadlineExceeded
                            | ServeError::Overloaded { .. }
                    ),
                    "unexpected typed outcome: {:?}", e
                );
            }
        }

        // Invariant 3: non-degraded answers are bitwise identical to a
        // direct session evaluation of the same example.
        let mut direct = plan.session();
        for o in &outcomes {
            if let Outcome::Answered { example, probs, degraded } = o {
                if *degraded {
                    continue;
                }
                let x = Tensor::from_vec([1, 2, 6, 6], example.clone());
                let want = direct.predict_average(&x);
                let got_bits: Vec<u32> = probs.iter().map(|v| v.to_bits()).collect();
                let want_bits: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(got_bits, want_bits, "a fault changed an answer");
            }
        }

        // Invariant 4: the aggregate is exactly the per-shard sums, and
        // the shards' claimed service count matches delivered answers.
        let answered = outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Answered { .. }))
            .count() as u64;
        prop_assert_eq!(report.aggregate.requests, answered);
        prop_assert_eq!(
            report.aggregate.requests,
            report.per_shard.iter().map(|s| s.requests).sum::<u64>()
        );
        prop_assert_eq!(
            report.aggregate.batches,
            report.per_shard.iter().map(|s| s.batches).sum::<u64>()
        );
        prop_assert_eq!(
            report.aggregate.deadline_expired,
            report
                .per_shard
                .iter()
                .map(|s| s.deadline_expired)
                .sum::<u64>()
        );
        prop_assert_eq!(
            report.aggregate.degraded,
            report.per_shard.iter().map(|s| s.degraded).sum::<u64>()
        );

        // Supervision accounting: the server records every injected panic
        // that fired, and never more restarts than panics.
        prop_assert!(report.worker_panics <= injected_panics);
        prop_assert!(report.restarts <= report.worker_panics);
    }
}

/// Directed worst case outside proptest: a panic storm at the queue-pop
/// site with a single shard, where every pop for a while kills the only
/// worker. The supervisor must burn restarts, keep the queue unpoisoned,
/// and either serve or shed — never hang.
#[test]
fn panic_storm_on_single_shard_resolves_every_request() {
    let plan = EnginePlan::new(small_members(5), 2).unwrap().into_shared();
    let scope = faults::scope();
    scope.enable_times(faults::sites::QUEUE_POP, FaultAction::Panic, 3);

    let server = Server::builder(Arc::clone(&plan))
        .shards(1)
        .queue_capacity(64)
        .batching(BatchingConfig { max_batch: 2 })
        .restart_budget(8)
        .restart_backoff(Duration::from_millis(1))
        .start();

    let mut rng = StdRng::seed_from_u64(9);
    let mut answered = 0u64;
    for _ in 0..12 {
        let x = Tensor::randn([2, 6, 6], 1.0, &mut rng);
        let pending = server
            .submit_with_deadline(&x, Duration::from_secs(10))
            .unwrap();
        match pending.wait() {
            Ok(p) => {
                assert_eq!(p.probs.len(), 4);
                answered += 1;
            }
            Err(ServeError::WorkerGone) => {} // its pop was the panic
            Err(e) => panic!("unexpected outcome during panic storm: {e}"),
        }
    }
    let report = server.shutdown();
    drop(scope);
    assert_eq!(report.worker_panics, 3, "all three injected panics fired");
    assert_eq!(report.restarts, 3, "the supervisor replaced each casualty");
    assert_eq!(report.aggregate.requests, answered);
    assert!(
        answered >= 9,
        "only the three poisoned pops may be lost, got {answered}/12"
    );
}
