//! Spool-level tests of a lowered job's work: a session job and a 2-point
//! campaign job drained shard by shard through `JobWork::claim` and
//! `ShardWorker::execute`, with the job's progress checked against the
//! queues' and the campaign's own status after every step, and a session
//! job whose restart re-issues a lease its dead holder never gave back and
//! reports the progress it leaves.

mod common;

use common::{campaign, scenario, TempDir};
use protocol::engine::{
    CampaignRun, Parallelism, SessionEngine, ShardOutput, ShardQueue, ShardWorker, SubmitOutcome,
};
use protocol::wire::{JobManifest, JobSpec, MANIFEST_VERSION};
use serve::spool::{JobWork, WorkClaim, CAMPAIGN_DIR, QUEUE_DIR};
use serve::{JobOutcome, Spool};

fn manifest(job: u64, spec: JobSpec) -> JobManifest {
    JobManifest {
        version: MANIFEST_VERSION,
        job,
        client: "test".to_string(),
        spec,
        shard_trials: 2,
    }
}

#[test]
fn a_campaign_job_drains_its_points_in_sweep_order() {
    let dir = TempDir::new("spool-campaign");
    let spool = Spool::open(&dir.0).expect("spool opens");
    let campaign = campaign(3, 4);
    let work = spool
        .lower(&manifest(
            1,
            JobSpec::Campaign {
                campaign: campaign.clone(),
            },
        ))
        .expect("campaign job lowers");
    assert!(!work.is_session());
    let run = CampaignRun::open(spool.job_dir(1).join(CAMPAIGN_DIR)).expect("run opens");
    let agrees = |work: &JobWork| {
        let status = run.status().expect("campaign status");
        assert_eq!(
            work.progress().expect("progress"),
            (status.trials_done, status.trials_total)
        );
    };
    agrees(&work);

    let worker = ShardWorker::default();
    let mut claimed = Vec::new();
    loop {
        match work.claim(&worker.name, worker.lease_ms).expect("claim") {
            WorkClaim::Claimed { queue, plan } => {
                let point = (0..run.points().len())
                    .find(|&index| queue.dir() == run.point_dir(index))
                    .expect("the claimed queue is a point queue");
                claimed.push((point, plan.trial_start));
                let outcome = worker
                    .execute(&queue, &plan, ShardOutput::Summary)
                    .expect("shard executes");
                assert_eq!(outcome, SubmitOutcome::Recorded);
                agrees(&work);
            }
            WorkClaim::Wait => panic!("a lone worker never waits"),
            WorkClaim::Drained => break,
        }
    }
    assert_eq!(claimed, vec![(0, 0), (0, 2), (1, 0), (1, 2)]);
    assert_eq!(work.progress().expect("progress"), (8, 8));

    let JobOutcome::Campaign(report) = spool.finalize(1, &work).expect("finalizes") else {
        panic!("a campaign job finalizes to a report");
    };
    let direct = campaign
        .run_direct(Parallelism::Serial)
        .expect("direct run");
    assert_eq!(
        serde::json::to_string(&report),
        serde::json::to_string(&direct)
    );
}

#[test]
fn a_session_job_recovers_an_expired_lease() {
    let dir = TempDir::new("spool-session");
    let spool = Spool::open(&dir.0).expect("spool opens");
    let scenario = scenario(5);
    let work = spool
        .lower(&manifest(
            2,
            JobSpec::Session {
                scenario: scenario.clone(),
                trials: 4,
                seed: 17,
            },
        ))
        .expect("session job lowers");
    assert!(work.is_session());
    let queue = ShardQueue::open(spool.job_dir(2).join(QUEUE_DIR)).expect("queue opens");
    let agrees = |work: &JobWork| {
        let status = queue.status().expect("queue status");
        assert_eq!(
            work.progress().expect("progress"),
            (status.trials_done, status.trials_total as u64)
        );
    };
    agrees(&work);

    // A worker claims the first shard on a lease that has long to run, and
    // its process dies holding it. The restart re-issues the lease at once:
    // a spool has one server, so no live worker can hold it.
    let WorkClaim::Claimed { plan: lost, .. } = work.claim("dead", 60_000).expect("claim") else {
        panic!("the first shard is claimable");
    };
    assert_eq!(queue.status().expect("queue status").leased, 1);
    agrees(&work);
    // Recovery reports the progress it leaves, so a restart need not read
    // the checkpoint again.
    assert_eq!(work.recover().expect("recovers"), (0, 4));
    let status = queue.status().expect("queue status");
    assert_eq!((status.leased, status.pending), (0, 2));
    agrees(&work);

    let worker = ShardWorker::default();
    let mut starts = Vec::new();
    while let WorkClaim::Claimed { queue, plan } =
        work.claim(&worker.name, worker.lease_ms).expect("claim")
    {
        starts.push(plan.trial_start);
        worker
            .execute(&queue, &plan, ShardOutput::Summary)
            .expect("shard executes");
        agrees(&work);
    }
    assert_eq!(starts, vec![lost.trial_start, 2]);
    assert_eq!(work.progress().expect("progress"), (4, 4));

    let JobOutcome::Session(summary) = spool.finalize(2, &work).expect("finalizes") else {
        panic!("a session job finalizes to a summary");
    };
    assert_eq!(
        summary,
        SessionEngine::new(17)
            .run_trials(&scenario, 4)
            .expect("direct run")
    );
}
