//! Golden `SimResult` table: every field of every interval of two seeded
//! design points per benchmark and study, under the quick budget. The
//! table in `tests/golden/sim_results.csv` was recorded from the engine
//! that scanned the whole reorder buffer each cycle; the wakeup-driven
//! issue stage must reproduce it bit for bit.

use archpredict::simulate::SimBudget;
use archpredict::studies::Study;
use archpredict_sim::{simulate_with_warmup, SimResult};
use archpredict_stats::rng::SplitMix64;
use archpredict_workloads::{Benchmark, TraceGenerator};

const GOLDEN: &str = include_str!("golden/sim_results.csv");

const HEADER: &str = "benchmark,study,point,interval,instructions,cycles,l1i_misses,\
l1d_misses,l2_misses,branches,mispredicts,btb_misses,l2_bus_busy,fsb_busy,\
fetch_stall_cycles,icache_stall_cycles,branch_stall_cycles,btb_stall_cycles";

/// Seeded design points per (benchmark, study).
const POINTS: usize = 2;

fn row(benchmark: Benchmark, study: Study, point: usize, interval: usize, r: &SimResult) -> String {
    let fields = [
        r.instructions,
        r.cycles,
        r.l1i_misses,
        r.l1d_misses,
        r.l2_misses,
        r.branches,
        r.mispredicts,
        r.btb_misses,
        r.l2_bus_busy,
        r.fsb_busy,
        r.fetch_stall_cycles,
        r.icache_stall_cycles,
        r.branch_stall_cycles,
        r.btb_stall_cycles,
    ];
    let fields: Vec<String> = fields.iter().map(u64::to_string).collect();
    format!(
        "{},{},{point},{interval},{}",
        benchmark.name(),
        study.name(),
        fields.join(",")
    )
}

fn table() -> Vec<String> {
    let mut rows = vec![HEADER.to_string()];
    for (b, benchmark) in Benchmark::ALL.into_iter().enumerate() {
        let generator = TraceGenerator::new(benchmark);
        let budget = SimBudget::quick(&generator);
        for (s, study) in Study::ALL.into_iter().enumerate() {
            let space = study.space();
            let mut rng = SplitMix64::new(0x601D_E000 ^ ((b as u64) << 8) ^ s as u64);
            for _ in 0..POINTS {
                let point = (rng.next_u64() % space.size() as u64) as usize;
                let config = study.config_at(&space, &space.point(point));
                for &interval in &budget.intervals {
                    let r = simulate_with_warmup(
                        &config,
                        generator.interval(interval),
                        budget.warmup,
                        budget.measured,
                    );
                    rows.push(row(benchmark, study, point, interval, &r));
                }
            }
        }
    }
    rows
}

#[test]
fn every_sim_result_field_matches_the_golden_table() {
    let actual = table();
    let expected: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(actual.len(), expected.len(), "row count");
    for (got, want) in actual.iter().zip(&expected) {
        assert_eq!(got, want, "simulation result changed");
    }
}
