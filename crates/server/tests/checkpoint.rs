//! Round commit + WAL checkpoint behavior under load.
//!
//! Four contracts on top of the crash suite in `recovery.rs`:
//!
//! 1. **Rounds are invisible**: a durable server applying a burst of
//!    uncoalesced batches in applier rounds lands bitwise on the state a
//!    non-durable server reaches applying the same batches one by one —
//!    and a restart reproduces it again. This holds even where a batch
//!    changes the session's method inventory (a logistic successor drops
//!    its PrIU-opt capture): each batch is resolved and decided against
//!    the actual state its predecessor left.
//! 2. **Rounds amortize fsyncs**: a burst of single-row deletes shares
//!    fsyncs across WAL frames instead of paying one per batch, and the
//!    batches of several sessions taken in one round share exactly one.
//! 3. **Checkpoints bound the log**: with aggressive compaction the WAL
//!    file plateaus while the cumulative appended byte count keeps
//!    growing — the log never outlives its snapshot coverage.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use priu_core::{DeletionEngine, Method, Session, SessionBuilder, TrainerConfig};
use priu_data::catalog::Hyperparameters;
use priu_data::synthetic::classification::{generate_binary_classification, ClassificationConfig};
use priu_data::synthetic::regression::{generate_regression, RegressionConfig};
use priu_server::{
    AddedRows, Calibration, DeleteTicket, DurabilityConfig, PlannerConfig, SchedulerConfig, Server,
    ServerConfig, WAL_FILE,
};

const NAME: &str = "ckpt/lin";
const N: usize = 200;
const WIDTH: usize = 5;

fn fixture() -> Session {
    let data = generate_regression(&RegressionConfig {
        num_samples: N,
        num_features: WIDTH,
        noise_std: 0.1,
        seed: 0xC1,
        ..Default::default()
    });
    let config = TrainerConfig::from_hyper(Hyperparameters {
        batch_size: 25,
        num_iterations: 60,
        learning_rate: 0.05,
        regularization: 0.05,
    });
    SessionBuilder::dense(data, config)
        .seed(4)
        .opt_capture(false)
        .fit()
        .expect("linear fixture")
}

/// Uncoalesced planner + pinned method: every request is its own batch
/// (so bursts form chains) and the scheduler cannot diverge on timing.
fn config(coalesce: bool, durability: Option<DurabilityConfig>) -> ServerConfig {
    ServerConfig {
        planner: PlannerConfig {
            window: Duration::from_secs(3600),
            max_batch: 1 << 20,
            coalesce,
        },
        scheduler: SchedulerConfig {
            force_method: Some(Method::Priu),
            retrain_drift: 2.0,
            ..SchedulerConfig::default()
        },
        apply_threads: None,
        simd_level: None,
        durability,
    }
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("priu-checkpoint-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn model_bits(server: &Server) -> (Vec<u64>, u64) {
    let (session, epoch) = server.model_snapshot(NAME).expect("session present");
    (
        session
            .model()
            .flatten()
            .iter()
            .map(|w| w.to_bits())
            .collect(),
        epoch,
    )
}

fn added(rows: usize, salt: usize) -> AddedRows {
    let mut features = Vec::with_capacity(rows * WIDTH);
    for r in 0..rows {
        for c in 0..WIDTH {
            features.push(((salt * 31 + r * 7 + c) as f64 * 0.37).sin());
        }
    }
    let labels = (0..rows)
        .map(|r| ((salt * 5 + r) as f64 * 0.23).cos())
        .collect();
    AddedRows {
        num_features: WIDTH,
        features,
        labels,
    }
}

/// The burst script both servers in the bitwise test replay: single-row
/// deletes, appended rows, a retention tick whose expiry resolves
/// mid-round, and deliberately stale deletes that become no-op batches.
/// Submitted without waiting, so on the durable server the backlog is
/// taken in rounds of several batches.
fn submit_burst(server: &Server) -> Vec<DeleteTicket> {
    let mut tickets = Vec::new();
    for id in 0..40u64 {
        tickets.push(server.delete(NAME, &[id]).expect("delete"));
    }
    tickets.push(server.add(NAME, added(3, 1)).expect("add"));
    for id in 40..80u64 {
        tickets.push(server.delete(NAME, &[id]).expect("delete"));
    }
    // 123 live rows + 2 appended, keep 100: expires the oldest ~25.
    tickets.push(server.tick(NAME, Some(added(2, 2)), 100).expect("tick"));
    // The tick's expiry retired the oldest surviving ids — these are
    // stale by the time their batch resolves.
    for id in 80..85u64 {
        tickets.push(server.delete(NAME, &[id]).expect("stale delete"));
    }
    for id in 110..130u64 {
        tickets.push(server.delete(NAME, &[id]).expect("delete"));
    }
    tickets
}

/// Rounds must be invisible: the round-committed durable run, the
/// batch-at-a-time reference run, and a post-restart recovery all land
/// on identical model bits and epochs.
#[test]
fn chained_group_commit_matches_sequential_application_bitwise() {
    let reference = Server::start(config(false, None)).expect("reference server");
    reference
        .register_session(NAME, fixture())
        .expect("register");
    for ticket in submit_burst(&reference) {
        ticket.wait().expect("reference ack");
    }
    let (want_bits, want_epoch) = model_bits(&reference);
    reference.shutdown();

    let dir = tempdir("bitwise");
    let durable =
        Server::start(config(false, Some(DurabilityConfig::new(&dir)))).expect("durable server");
    durable.register_session(NAME, fixture()).expect("register");
    for ticket in submit_burst(&durable) {
        ticket.wait().expect("durable ack");
    }
    let (bits, epoch) = model_bits(&durable);
    assert_eq!(epoch, want_epoch, "rounds changed the commit count");
    assert_eq!(bits, want_bits, "round-committed backlog diverged bitwise");
    let before = durable
        .model_snapshot(NAME)
        .expect("session")
        .0
        .to_snapshot_bytes();
    durable.shutdown();

    let recovered =
        Server::start(config(false, Some(DurabilityConfig::new(&dir)))).expect("recovery");
    let (bits, epoch) = model_bits(&recovered);
    assert_eq!(epoch, want_epoch);
    assert_eq!(
        bits, want_bits,
        "recovery of a round-committed log diverged"
    );
    assert_eq!(
        recovered
            .model_snapshot(NAME)
            .expect("session")
            .0
            .to_snapshot_bytes(),
        before,
        "restart changed the serialized session"
    );
    recovered.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// The round fsync's whole point: a burst of durable single-row deletes
/// shares fsyncs, so the fsync count stays strictly below the frame
/// count and at least one fsync covered a multi-frame group.
#[test]
fn group_commit_amortizes_fsyncs_across_a_burst() {
    let dir = tempdir("amortize");
    let server =
        Server::start(config(false, Some(DurabilityConfig::new(&dir)))).expect("durable server");
    server.register_session(NAME, fixture()).expect("register");
    let tickets: Vec<DeleteTicket> = (0..150u64)
        .map(|id| server.delete(NAME, &[id]).expect("delete"))
        .collect();
    for ticket in tickets {
        ticket.wait().expect("ack");
    }
    let stats = server.durability_stats().expect("durable server has stats");
    assert_eq!(stats.frames, 150, "one WAL frame per applied batch");
    assert!(
        stats.fsyncs < stats.frames,
        "no fsync was shared: {} fsyncs for {} frames",
        stats.fsyncs,
        stats.frames
    );
    assert!(
        stats.max_group >= 2,
        "no group ever held more than one frame"
    );
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

const LOGISTIC: &str = "ckpt/log";
const BACKLOG: u64 = 12;

/// A default-built binary logistic session: it carries the PrIU-opt
/// capture, which its first successor drops.
fn logistic_fixture() -> Session {
    let data = generate_binary_classification(&ClassificationConfig {
        num_samples: N,
        num_features: 6,
        separation: 3.0,
        label_noise: 0.5,
        seed: 0xC2,
        ..Default::default()
    });
    let config = TrainerConfig::from_hyper(Hyperparameters {
        batch_size: 25,
        num_iterations: 60,
        learning_rate: 0.3,
        regularization: 0.02,
    });
    SessionBuilder::dense(data, config)
        .seed(5)
        .fit()
        .expect("logistic fixture")
}

/// Uncoalesced, with PrIU priced above PrIU-opt, a retrain priced out of
/// reach and drift never forcing one, so the cost model's choice is
/// timing-independent: PrIU-opt while the session has its capture, PrIU
/// after.
fn logistic_config(durability: Option<DurabilityConfig>) -> ServerConfig {
    ServerConfig {
        scheduler: SchedulerConfig {
            calibration: Calibration {
                priu_row_seconds: 1.0,
                retrain_sample_seconds: 1.0,
                ..Calibration::default()
            },
            retrain_drift: 2.0,
            ..SchedulerConfig::default()
        },
        ..config(false, durability)
    }
}

fn logistic_bits(server: &Server) -> (Vec<u64>, u64) {
    let (session, epoch) = server.model_snapshot(LOGISTIC).expect("session present");
    let bits = session
        .model()
        .flatten()
        .iter()
        .map(|w| w.to_bits())
        .collect();
    (bits, epoch)
}

/// A backlog of single-row deletes on a logistic session that loses its
/// PrIU-opt capture after the first one: every delete succeeds, and the
/// result is bitwise the state reached by waiting on each delete before
/// sending the next — live and after a restart.
#[test]
fn uncoalesced_logistic_backlog_matches_waiting_on_each_delete_bitwise() {
    let reference = Server::start(logistic_config(None)).expect("reference server");
    reference
        .register_session(LOGISTIC, logistic_fixture())
        .expect("register");
    let mut want_methods = Vec::new();
    for id in 0..BACKLOG {
        let ticket = reference.delete(LOGISTIC, &[id]).expect("delete");
        want_methods.push(ticket.wait().expect("reference ack").method);
    }
    assert_eq!(want_methods[0], Some(Method::PriuOpt));
    assert!(want_methods[1..].iter().all(|&m| m == Some(Method::Priu)));
    let want = logistic_bits(&reference);
    reference.shutdown();

    let dir = tempdir("logistic-backlog");
    let durable =
        Server::start(logistic_config(Some(DurabilityConfig::new(&dir)))).expect("durable server");
    durable
        .register_session(LOGISTIC, logistic_fixture())
        .expect("register");
    let tickets: Vec<DeleteTicket> = (0..BACKLOG)
        .map(|id| durable.delete(LOGISTIC, &[id]).expect("delete"))
        .collect();
    let methods: Vec<Option<Method>> = tickets
        .into_iter()
        .enumerate()
        .map(|(i, ticket)| {
            let reply = ticket
                .wait()
                .unwrap_or_else(|e| panic!("backlogged delete {i} failed: {e}"));
            assert_eq!(reply.applied, 1, "delete {i} removed nothing");
            reply.method
        })
        .collect();
    assert_eq!(methods, want_methods);
    assert_eq!(logistic_bits(&durable), want, "backlog diverged bitwise");
    durable.shutdown();

    let recovered =
        Server::start(logistic_config(Some(DurabilityConfig::new(&dir)))).expect("recovery");
    assert_eq!(logistic_bits(&recovered), want, "recovery diverged bitwise");
    recovered.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Batches of several sessions taken in one applier round share exactly
/// one fsync. Nothing is ready before shutdown (an hour-long window, no
/// flush), so the shutdown drain takes all three in one round.
#[test]
fn one_round_across_sessions_shares_exactly_one_fsync() {
    let dir = tempdir("one-round");
    let server =
        Server::start(config(true, Some(DurabilityConfig::new(&dir)))).expect("durable server");
    let names = ["round/a", "round/b", "round/c"];
    let mut tickets = Vec::new();
    for name in names {
        server.register_session(name, fixture()).expect("register");
        tickets.push(server.delete(name, &[1]).expect("delete"));
        tickets.push(server.delete(name, &[2, 3]).expect("delete"));
    }
    server.shutdown();
    for ticket in tickets {
        ticket.wait().expect("ack");
    }
    let stats = server.durability_stats().expect("durable server has stats");
    assert_eq!(stats.frames, 3, "one coalesced batch per session");
    assert_eq!(stats.fsyncs, 1, "the round shared one fsync");
    assert_eq!(stats.max_group, 3);
    for name in names {
        assert_eq!(server.model_snapshot(name).expect("session").1, 1);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// With aggressive compaction the on-disk log plateaus: after every
/// phase the file holds at most a phase's worth of frames, while the
/// cumulative appended bytes keep growing and ≥3 checkpoints fire.
#[test]
fn checkpoints_bound_the_wal_across_a_long_stream() {
    let dir = tempdir("bounded");
    let mut durability = DurabilityConfig::new(&dir);
    durability.snapshot_every = 2;
    durability.checkpoint_bytes = 1; // compaction after every snapshot
    let server = Server::start(config(true, Some(durability.clone()))).expect("durable server");
    server.register_session(NAME, fixture()).expect("register");

    let wal_path = dir.join(WAL_FILE);
    let mut phase_end_sizes = Vec::new();
    let mut wave = 0usize;
    for _phase in 0..3 {
        for _ in 0..8 {
            let base = (wave * 3) as u64;
            let del = server
                .delete(NAME, &[base, base + 1, base + 2])
                .expect("delete");
            let add = server.add(NAME, added(2, 100 + wave)).expect("add");
            server.flush(NAME).expect("flush");
            del.wait().expect("delete ack");
            add.wait().expect("add ack");
            wave += 1;
        }
        // Barrier: every queued snapshot lands and its compaction runs.
        server.drain_durability();
        phase_end_sizes.push(fs::metadata(&wal_path).expect("wal exists").len());
    }
    let stats = server.durability_stats().expect("stats");
    assert!(
        stats.checkpoints >= 3,
        "expected ≥3 checkpoints, got {}",
        stats.checkpoints
    );
    // Plateau: the file never holds more than about one phase of frames,
    // even though three phases' worth of bytes were appended in total.
    let one_phase = stats.bytes / 3;
    for (phase, &size) in phase_end_sizes.iter().enumerate() {
        assert!(
            size <= one_phase,
            "phase {phase}: WAL is {size} bytes, more than one phase's {one_phase}"
        );
    }
    let (want_bits, want_epoch) = model_bits(&server);
    server.shutdown();

    // A checkpoint-headed log + snapshots recover bitwise like any other.
    let recovered = Server::start(config(true, Some(durability))).expect("recovery");
    let (bits, epoch) = model_bits(&recovered);
    assert_eq!(epoch, want_epoch);
    assert_eq!(bits, want_bits, "recovery from a compacted log diverged");
    recovered.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
