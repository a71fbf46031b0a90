//! The multi-core system model: cores + workload mix + memory controller.
//!
//! [`System::run`] executes the epoch-phased loop described in [`crate::sharded`]
//! on one thread: cores route requests to per-channel queues (issue phase), the
//! channel shards execute independently and inline (execute phase), and core
//! timing feedback is reconciled at the epoch barrier (merge phase). The output is
//! bit-for-bit identical to the pre-shard serial loop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use impress_dram::energy::{EnergyBreakdown, EnergyModel};
use impress_dram::stats::ChannelStats;
use impress_dram::timing::Cycle;
use impress_memctrl::{ChannelShard, MemoryController};
use impress_workloads::{AccessSource, WorkloadMix};

use crate::config::SystemConfig;
use crate::core_model::{CoreModel, IssueBound};
use crate::metrics::PerformanceResult;
use crate::sharded::{EpochStats, QueuedAccess, ShardTask};

/// Everything a simulation run produces: performance, memory statistics and energy.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Workload name.
    pub workload: String,
    /// Per-core IPC and aggregate performance.
    pub performance: PerformanceResult,
    /// Memory-system statistics (activations, hits, mitigations, ...).
    pub memory: ChannelStats,
    /// DRAM energy breakdown for the run.
    pub energy: EnergyBreakdown,
    /// Issue-batching statistics of the epoch-phased loop: scheduling metadata,
    /// not part of the simulated outcome.
    pub epoch_stats: EpochStats,
}

impl RunOutput {
    /// Row-buffer hit rate of the run.
    pub fn row_hit_rate(&self) -> f64 {
        self.memory.banks.row_hit_rate()
    }

    /// Demand activations relative to demand accesses.
    pub fn activations_per_access(&self) -> f64 {
        if self.memory.banks.accesses() == 0 {
            0.0
        } else {
            self.memory.banks.activations as f64 / self.memory.banks.accesses() as f64
        }
    }
}

/// The simulated system: cores driving the memory controller with an access source.
///
/// The source defaults to the synthetic [`WorkloadMix`]; any [`AccessSource`] —
/// e.g. the trace-replay source built by [`crate::trace_runner::TraceRunner`] —
/// drives the identical epoch-phased loop with the same determinism guarantees.
#[derive(Debug)]
pub struct System<S: AccessSource = WorkloadMix> {
    config: SystemConfig,
    cores: Vec<CoreModel>,
    mix: S,
    controller: MemoryController,
}

impl<S: AccessSource> System<S> {
    /// Builds a system running `mix` under `config`.
    pub fn new(config: SystemConfig, mix: S) -> Self {
        assert_eq!(
            config.cores,
            mix.cores(),
            "access source must provide one stream per core"
        );
        let cores = (0..config.cores)
            .map(|i| {
                let instructions_per_miss = mix.instructions_per_miss(i);
                let mpki = 1000.0 / instructions_per_miss;
                let think_gap = instructions_per_miss / config.retire_per_dram_cycle;
                CoreModel::new(i, think_gap, config.mlp_for_mpki(mpki))
            })
            .collect();
        let controller = MemoryController::new(config.controller.clone());
        Self {
            config,
            cores,
            mix,
            controller,
        }
    }

    /// Runs the workload until every core has issued its request quota, returning the
    /// run's performance, memory statistics and energy.
    ///
    /// Executes the epoch-phased loop of [`crate::sharded`] on the calling thread:
    /// the issue phase replays the serial scheduler exactly, shards share no state
    /// and run inline in channel order, and the merge phase resolves completions in
    /// global issue order, so the output is bit-for-bit that of the pre-shard serial
    /// loop.
    pub fn run(self) -> RunOutput {
        let System {
            config,
            mut cores,
            mut mix,
            controller,
        } = self;
        let quota = config.requests_per_core;
        let mut remaining: u64 = quota * cores.len() as u64;

        let (controller_config, shards) = controller.into_parts();
        let min_latency = ChannelShard::min_access_latency(&controller_config.timings);
        let bus_spacing = ChannelShard::min_completion_spacing(&controller_config.timings);
        let mut tasks: Vec<ShardTask> = shards
            .into_iter()
            .map(|shard| ShardTask::new(shard, min_latency))
            .collect();
        let channels = tasks.len();
        let mapping = controller_config.mapping;
        let organization = &controller_config.organization;
        let mut epoch_stats = EpochStats::default();

        // Reused every epoch: the steady-state loop performs no allocation.
        let mut order: Vec<(usize, usize)> = Vec::new();
        let mut cursors: Vec<usize> = vec![0; channels];
        // Ready queue: cores whose next issue time is provably exact, ordered by
        // (cycle, core id) — exactly the serial scheduler's
        // pick-the-minimum-then-lowest-core rule, O(log cores) per issue.
        let mut ready: BinaryHeap<Reverse<(Cycle, usize)>> = BinaryHeap::new();
        // Last known completion per channel, feeding the bus-conveyor completion
        // lower bound: the k-th access queued on a channel this epoch cannot
        // complete before `last + k * bus_spacing`
        // (ChannelShard::min_completion_spacing). Under load this reaches far
        // beyond the per-access `min_latency` bound — the channel has a backlog of
        // bus slots — which is what keeps deep-MLP cores provably exact while they
        // drain their whole resolved window.
        let mut last_completion: Vec<Cycle> = vec![0; channels];

        while remaining > 0 {
            // ---- Barrier state: every prior completion is resolved, so every
            // eligible core's next issue time is exact.
            ready.clear();
            let mut horizon = Cycle::MAX;
            for core in cores.iter() {
                if core.issued() >= quota {
                    continue;
                }
                match core.next_issue_bound() {
                    IssueBound::Exact(t) => ready.push(Reverse((t, core.id()))),
                    IssueBound::NotBefore(_) => {
                        unreachable!("a core cannot have pending issues at a barrier")
                    }
                }
            }
            let epoch_start = ready
                .peek()
                .map(|Reverse((t, _))| *t)
                .expect("remaining > 0 implies an eligible core");

            // ---- Issue phase: replay the serial scheduler inside the
            // dependency-bounded window. A core leaves the ready queue when it
            // issues and re-enters with its new exact time, or lowers the horizon
            // to its pending-completion bound when its next issue is no longer
            // provable — the epoch ends when the earliest ready issue reaches the
            // horizon.
            let mut last_issue = epoch_start;
            order.clear();
            while let Some(&Reverse((now, core_id))) = ready.peek() {
                if now >= horizon {
                    break;
                }
                ready.pop();
                let access = mix.next_access(core_id);
                let location = mapping
                    .decode(access.address, organization)
                    .expect("workload addresses are within the configured capacity");
                let channel = location.channel as usize;
                let queue = &mut tasks[channel].queue;
                queue.push(QueuedAccess {
                    location,
                    is_write: access.is_write,
                    at: now,
                });
                order.push((core_id, channel));
                last_issue = now;
                // Completion lower bound: the access's own minimum latency joined
                // with its position on the channel's bus conveyor.
                let conveyor = last_completion[channel] + queue.len() as Cycle * bus_spacing;
                let core = &mut cores[core_id];
                core.on_issue_pending(now, (now + min_latency).max(conveyor));
                remaining -= 1;
                if core.issued() < quota {
                    match core.next_issue_bound() {
                        IssueBound::Exact(t) => ready.push(Reverse((t, core_id))),
                        IssueBound::NotBefore(bound) => horizon = horizon.min(bound),
                    }
                }
            }
            debug_assert!(!order.is_empty(), "every epoch issues at least once");
            epoch_stats.epochs += 1;
            epoch_stats.issues += order.len() as u64;
            epoch_stats.window_cycles += last_issue - epoch_start + 1;

            // ---- Execute phase: each shard sees its serial per-channel request
            // sequence.
            for task in &mut tasks {
                task.execute();
                task.queue.clear();
            }

            // ---- Merge phase: feed completions back in global issue order and
            // advance each channel's conveyor reference point.
            cursors.fill(0);
            for &(core_id, channel) in &order {
                let completed_at = tasks[channel].completions[cursors[channel]];
                cursors[channel] += 1;
                cores[core_id].resolve_pending(completed_at);
            }
            for (task, last) in tasks.iter().zip(&mut last_completion) {
                if let Some(&completed) = task.completions.last() {
                    debug_assert!(completed >= *last);
                    *last = completed;
                }
            }
        }

        let memory = ChannelStats::merged(tasks.iter().map(|task| task.shard.stats()));

        let elapsed = cores.iter().map(CoreModel::finish_time).max().unwrap_or(0);
        let per_core_ipc = cores
            .iter()
            .enumerate()
            .map(|(i, core)| {
                let instructions = core.issued() as f64 * mix.instructions_per_miss(i);
                let cycles = core.finish_time().max(1) as f64;
                instructions / cycles
            })
            .collect();

        let energy = EnergyModel::ddr5().energy(
            &memory.banks,
            elapsed,
            controller_config.organization.total_banks(),
            &controller_config.timings,
        );

        RunOutput {
            workload: mix.name().to_string(),
            performance: PerformanceResult {
                per_core_ipc,
                elapsed_cycles: elapsed,
                requests: memory.requests,
            },
            memory,
            energy,
            epoch_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impress_memctrl::{ControllerConfig, PagePolicy};

    fn quick_config(requests: u64) -> SystemConfig {
        SystemConfig {
            requests_per_core: requests,
            controller: ControllerConfig::baseline(),
            ..SystemConfig::baseline()
        }
    }

    #[test]
    fn run_completes_and_reports_sane_statistics() {
        let mix = WorkloadMix::by_name("gcc", 1).unwrap();
        let out = System::new(quick_config(2_000), mix).run();
        assert_eq!(out.performance.per_core_ipc.len(), 8);
        assert_eq!(out.memory.requests, 8 * 2_000);
        assert!(out.performance.elapsed_cycles > 0);
        assert!(out.row_hit_rate() >= 0.0 && out.row_hit_rate() <= 1.0);
        assert!(out.energy.total_nj() > 0.0);
    }

    #[test]
    fn stream_has_higher_row_hit_rate_than_mcf() {
        let stream = System::new(
            quick_config(4_000),
            WorkloadMix::by_name("copy", 2).unwrap(),
        )
        .run();
        let mcf = System::new(quick_config(4_000), WorkloadMix::by_name("mcf", 2).unwrap()).run();
        assert!(
            stream.row_hit_rate() > mcf.row_hit_rate() + 0.2,
            "stream {} vs mcf {}",
            stream.row_hit_rate(),
            mcf.row_hit_rate()
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = System::new(quick_config(1_000), WorkloadMix::by_name("wrf", 7).unwrap()).run();
        let b = System::new(quick_config(1_000), WorkloadMix::by_name("wrf", 7).unwrap()).run();
        assert_eq!(a.performance.elapsed_cycles, b.performance.elapsed_cycles);
        assert_eq!(a.memory.banks.activations, b.memory.banks.activations);
    }

    /// What a run observably produces, compared bit for bit.
    #[derive(Debug, PartialEq)]
    struct Observed {
        elapsed_cycles: Cycle,
        per_core_ipc_bits: Vec<u64>,
        memory: ChannelStats,
    }

    impl Observed {
        fn of(out: &RunOutput) -> Self {
            Self {
                elapsed_cycles: out.performance.elapsed_cycles,
                per_core_ipc_bits: out
                    .performance
                    .per_core_ipc
                    .iter()
                    .map(|v| v.to_bits())
                    .collect(),
                memory: out.memory,
            }
        }
    }

    /// The pre-shard serial loop — one global minimum-issue-time pick and one
    /// whole-controller access per request — returning what it observes plus
    /// every issue cycle in issue order.
    fn serial_reference(config: SystemConfig, mut mix: WorkloadMix) -> (Observed, Vec<Cycle>) {
        let mut cores: Vec<CoreModel> = System::new(config.clone(), mix.clone()).cores;
        let mut controller = MemoryController::new(config.controller.clone());
        let quota = config.requests_per_core;
        let mut issues = Vec::new();
        for _ in 0..quota * cores.len() as u64 {
            let (core_id, now) = cores
                .iter()
                .filter(|core| core.issued() < quota)
                .map(|core| (core.id(), core.next_issue_time()))
                .min_by_key(|&(id, t)| (t, id))
                .expect("an eligible core");
            let access = mix.next_access(core_id);
            let outcome = controller
                .access_physical(access.address, access.is_write, now)
                .expect("workload addresses are within the configured capacity");
            cores[core_id].on_issue(now, outcome.completed_at);
            issues.push(now);
        }
        let observed = Observed {
            elapsed_cycles: cores.iter().map(CoreModel::finish_time).max().unwrap_or(0),
            per_core_ipc_bits: cores
                .iter()
                .enumerate()
                .map(|(i, core)| {
                    let instructions = core.issued() as f64 * mix.instructions_per_miss(i);
                    (instructions / core.finish_time().max(1) as f64).to_bits()
                })
                .collect(),
            memory: controller.stats(),
        };
        (observed, issues)
    }

    #[test]
    fn sharded_run_is_bit_identical_at_any_thread_count() {
        // One thread runs every shard; the run must still be the serial loop's.
        let mix = || WorkloadMix::by_name("mcf", 3).unwrap();
        let out = System::new(quick_config(1_500), mix()).run();
        let (reference, _) = serial_reference(quick_config(1_500), mix());
        assert_eq!(Observed::of(&out), reference);
    }

    #[test]
    fn sharded_run_matches_serial_under_protection() {
        use impress_core::config::{DefenseKind, ProtectionConfig, TrackerChoice};
        let protected = || {
            let protection = ProtectionConfig::paper_default(
                TrackerChoice::Para,
                DefenseKind::impress_p_default(),
            );
            quick_config(1_200)
                .with_controller(ControllerConfig::baseline().with_protection(protection))
        };
        let mix = || WorkloadMix::by_name("copy", 5).unwrap();
        let out = System::new(protected(), mix()).run();
        let (reference, _) = serial_reference(protected(), mix());
        assert_eq!(Observed::of(&out), reference);
        assert!(out.memory.banks.mitigative_activations > 0);
    }

    #[test]
    fn adaptive_horizon_matches_fixed_horizon_bit_for_bit() {
        let mix = || WorkloadMix::by_name("copy", 9).unwrap();
        let adaptive = System::new(quick_config(1_500), mix()).run();
        let (reference, issues) = serial_reference(quick_config(1_500), mix());
        assert_eq!(Observed::of(&adaptive), reference);
        // A fixed window of `tCAS + tBURST` past each epoch's first issue is the
        // narrowest exact horizon: no access issued inside it can complete inside
        // it. Greedily covering the serial issue cycles with such windows gives
        // the epochs that loop would need; on a stream workload the adaptive loop
        // amortizes far more issues over each epoch.
        let min_latency = ChannelShard::min_access_latency(&quick_config(1).controller.timings);
        let mut fixed_epochs = 0u64;
        let mut window_end = 0;
        for &at in &issues {
            if fixed_epochs == 0 || at >= window_end {
                fixed_epochs += 1;
                window_end = at + min_latency;
            }
        }
        assert_eq!(adaptive.epoch_stats.issues, issues.len() as u64);
        assert!(
            adaptive.epoch_stats.epochs * 4 <= fixed_epochs,
            "adaptive used {} epochs vs fixed {fixed_epochs}",
            adaptive.epoch_stats.epochs
        );
    }

    #[test]
    fn epoch_stats_account_for_every_issue() {
        let out = System::new(quick_config(800), WorkloadMix::by_name("mcf", 1).unwrap()).run();
        assert_eq!(out.epoch_stats.issues, 8 * 800);
        assert!(out.epoch_stats.epochs > 0);
        assert!(out.epoch_stats.window_cycles >= out.epoch_stats.epochs);
        assert!(out.epoch_stats.mean_issues_per_epoch() >= 1.0);
    }

    #[test]
    fn closed_page_slows_down_stream() {
        let open = System::new(
            quick_config(4_000),
            WorkloadMix::by_name("triad", 3).unwrap(),
        )
        .run();
        let closed_cfg = quick_config(4_000)
            .with_controller(ControllerConfig::baseline().with_page_policy(PagePolicy::Closed));
        let closed = System::new(closed_cfg, WorkloadMix::by_name("triad", 3).unwrap()).run();
        let speedup = closed.performance.weighted_speedup(&open.performance);
        assert!(speedup < 0.98, "closed-page speedup = {speedup}");
    }
}
