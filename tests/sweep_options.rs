//! Run options belong to one sweep: the `SimOptions` a `SweepBuilder`
//! holds reach the machines of its own experiments and of no other
//! sweep, whether the sweeps overlap or follow each other.

use std::sync::{Arc, Barrier, Mutex};
use std::thread;

use hyvec_cachesim::{MultiCoreSystem, SimOptions, System, SystemConfig};
use hyvec_core::experiments::{Experiment, ExperimentParams};
use hyvec_core::registry::Registry;
use hyvec_core::report::Table;
use hyvec_core::sweep::SweepBuilder;

type Log = Arc<Mutex<Vec<(String, usize)>>>;

/// Builds a 2-core machine under the options its sweep passed in and
/// logs the thread count the machine got. It meets `gate` before
/// building and again before logging, so a test can hold its sweep
/// open while another one runs, and the log follows the order in
/// which the test releases the sweeps.
struct ThreadsProbe {
    id: &'static str,
    gate: Arc<Barrier>,
    seen: Log,
}

impl Experiment for ThreadsProbe {
    fn id(&self) -> &str {
        self.id
    }

    fn run(&self, _: ExperimentParams, options: SimOptions) -> Vec<Table> {
        self.gate.wait();
        let threads = two_core_machine(options).sim_threads();
        self.gate.wait();
        self.seen
            .lock()
            .expect("probe log")
            .push((self.id.to_string(), threads));
        Vec::new()
    }
}

fn two_core_machine(options: SimOptions) -> MultiCoreSystem {
    System::builder()
        .config(SystemConfig::uniform_6t())
        .options(options)
        .build_multi(2)
        .expect("2 cores")
}

/// Runs `sweep` over a registry holding one probe.
fn probe_sweep(sweep: SweepBuilder, id: &'static str, gate: &Arc<Barrier>, seen: &Log) {
    let mut registry = Registry::new();
    registry.register(Box::new(ThreadsProbe {
        id,
        gate: Arc::clone(gate),
        seen: Arc::clone(seen),
    }));
    sweep.jobs(1).run_with(&registry);
}

#[test]
fn concurrent_sweeps_keep_their_own_options() {
    let gate = Arc::new(Barrier::new(2));
    let seen = Log::default();
    thread::scope(|scope| {
        scope.spawn(|| probe_sweep(SweepBuilder::new(), "default/A", &gate, &seen));
        scope.spawn(|| {
            let eight = SweepBuilder::new().sim_threads(8);
            probe_sweep(eight, "eight/A", &gate, &seen)
        });
    });
    let mut seen = seen.lock().expect("probe log").clone();
    seen.sort();
    assert_eq!(
        seen,
        vec![("default/A".to_string(), 1), ("eight/A".to_string(), 8)],
        "each sweep's machines must get that sweep's thread count"
    );
}

#[test]
fn overlapping_sweeps_leave_no_options_behind() {
    // Sweep 4 starts, sweep 8 starts, sweep 4 finishes, then sweep 8:
    // each probe shares its gate with this thread, which steps the two
    // sweeps through that order.
    let (gate4, gate8) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
    let seen = Log::default();
    thread::scope(|scope| {
        let four = scope.spawn(|| {
            let four = SweepBuilder::new().sim_threads(4);
            probe_sweep(four, "four/A", &gate4, &seen)
        });
        gate4.wait();
        let eight = scope.spawn(|| {
            let eight = SweepBuilder::new().sim_threads(8);
            probe_sweep(eight, "eight/A", &gate8, &seen)
        });
        gate8.wait();
        gate4.wait();
        four.join().expect("sweep 4");
        gate8.wait();
        eight.join().expect("sweep 8");
    });
    let seen = seen.lock().expect("probe log").clone();
    assert_eq!(
        seen,
        vec![("four/A".to_string(), 4), ("eight/A".to_string(), 8)]
    );
    assert_eq!(
        two_core_machine(SimOptions::default()).sim_threads(),
        1,
        "a machine built after both sweeps must get the default"
    );
}
