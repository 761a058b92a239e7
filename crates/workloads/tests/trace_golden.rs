//! Trace-stream golden: a digest of every `Instruction` field over the
//! first 24K instructions of each standard-budget interval, for all eight
//! benchmarks. The digests were recorded from the generator before its hot
//! path was made allocation-free; any change to the RNG draw sequence,
//! region choice, loop-branch bookkeeping or address stream shows up here.

use archpredict_stats::hash::{fnv1a_64_extend, FNV_OFFSET};
use archpredict_workloads::{Benchmark, Instruction, TraceGenerator};

/// Instructions digested per interval (the standard budget's 8K warmup
/// plus 16K measured).
const PREFIX: usize = 24_000;

/// `(benchmark, interval, digest)` for the four intervals the standard
/// simulation budget spreads across each benchmark's phase schedule.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("gzip", 0, 0x73f1e7f4e3b4fb73),
    ("gzip", 12, 0x5e942558cb0e0536),
    ("gzip", 24, 0xde30bcb6153508c5),
    ("gzip", 36, 0x490a36c27c6f7eaa),
    ("mcf", 0, 0x57222815eec50b5b),
    ("mcf", 12, 0xc4165cf6a93f6e5f),
    ("mcf", 24, 0xfeae20ed542e25de),
    ("mcf", 36, 0x8bfda3aa965aba1e),
    ("crafty", 0, 0x57844fc1f4484197),
    ("crafty", 12, 0x4621d73acb97c744),
    ("crafty", 24, 0x4d8d672b66c8c4dc),
    ("crafty", 36, 0x17ad79b6c665700c),
    ("twolf", 0, 0xee4695e53a7ac944),
    ("twolf", 12, 0x80b49734386c9741),
    ("twolf", 24, 0x2ea9ac50e005a6c0),
    ("twolf", 36, 0xc1bc0c1f3394f249),
    ("mgrid", 0, 0x205744f8f846480f),
    ("mgrid", 12, 0x894c2440cc5d060b),
    ("mgrid", 24, 0x119c9f652bc998df),
    ("mgrid", 36, 0x0aa118bb943e9381),
    ("applu", 0, 0xaae26762d6ab8ce3),
    ("applu", 12, 0x814e25b6e05b87a2),
    ("applu", 25, 0xefd7012b30171234),
    ("applu", 37, 0xa56a569d19e8dc42),
    ("mesa", 0, 0x0772ac6d3a3a30ce),
    ("mesa", 12, 0x56623844514718f4),
    ("mesa", 24, 0x8c7fbfefdc5311c2),
    ("mesa", 36, 0x9acedd65be6bfeba),
    ("equake", 0, 0xff40ac995020ae72),
    ("equake", 12, 0xa246e3809689cf34),
    ("equake", 24, 0xbbb22cf6863d066f),
    ("equake", 36, 0xe52bc3eeb9dbbcb8),
];

/// The intervals `SimBudget::standard` simulates: four spread evenly
/// across the phase schedule.
fn standard_intervals(generator: &TraceGenerator) -> Vec<usize> {
    let n = generator.num_intervals();
    let count = 4.min(n);
    (0..count).map(|i| i * n / count).collect()
}

fn digest(instrs: impl Iterator<Item = Instruction>) -> u64 {
    instrs.fold(FNV_OFFSET, |h, i| {
        let h = fnv1a_64_extend(h, &[i.op.index() as u8, i.taken as u8]);
        let h = fnv1a_64_extend(h, &i.pc.to_le_bytes());
        let h = fnv1a_64_extend(h, &i.addr.to_le_bytes());
        let h = fnv1a_64_extend(h, &i.target.to_le_bytes());
        let h = fnv1a_64_extend(h, &i.dep1.to_le_bytes());
        let h = fnv1a_64_extend(h, &i.dep2.to_le_bytes());
        fnv1a_64_extend(h, &i.bb.to_le_bytes())
    })
}

#[test]
fn standard_interval_streams_match_the_golden_digests() {
    let mut actual = Vec::new();
    for benchmark in Benchmark::ALL {
        let generator = TraceGenerator::new(benchmark);
        for interval in standard_intervals(&generator) {
            let d = digest(generator.interval(interval).take(PREFIX));
            actual.push((benchmark.name(), interval, d));
        }
    }
    assert_eq!(
        actual.len(),
        GOLDEN.len(),
        "one digest per benchmark interval"
    );
    for (got, want) in actual.iter().zip(GOLDEN) {
        assert_eq!(got, want, "trace stream changed");
    }
}
