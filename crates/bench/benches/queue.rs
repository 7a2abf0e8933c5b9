//! Microbenchmarks for the calendar event queue the engines schedule
//! through. Two access patterns matter:
//!
//! * **push/pop mixed** — the DES kernel's steady state: one or two
//!   pending events, every push immediately followed by a pop.
//! * **hold** — the classic calendar-queue workload (pop the minimum,
//!   push a successor a random gap later) at a fixed pending count,
//!   which is what the swarm engine's device action queue looks like
//!   mid-mission. Measured at 1k and 100k pending entries, the second
//!   deep enough that bucket-width adaptation decides the outcome.
//! * **front-loaded ties** — the drone-mission capture pattern: every
//!   lane captures at each whole second, the whole schedule is pushed
//!   before the first pop, then it drains. Each iteration fills and
//!   drains a fresh queue, so the width adaptation (and any rebuild
//!   thrash it causes on same-instant bursts) is part of the measurement.
//!
//! Runs in CI's quick mode via `HIVEMIND_BENCH_QUICK=1` (the criterion
//! stand-in shortens warm-up/measurement; the workload is unchanged).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hivemind_sim::calendar::CalendarQueue;
use hivemind_sim::time::SimTime;

/// Deterministic gap generator (an LCG, not `rand`, so the bench has no
/// dependency on RNG internals it isn't measuring).
struct Lcg(u64);

impl Lcg {
    fn next_gap(&mut self, mean_ns: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Uniform in [1, 2*mean): same mean as exponential, cheap to draw.
        1 + (self.0 >> 33) % (2 * mean_ns)
    }
}

fn bench_push_pop_mixed(c: &mut Criterion) {
    c.bench_function("calendar_push_pop_mixed", |b| {
        let mut q: CalendarQueue<(SimTime, u64), u64> = CalendarQueue::new();
        let mut t = 0u64;
        let mut seq = 0u64;
        b.iter(|| {
            t += 1_000;
            seq += 1;
            q.push((SimTime::from_nanos(black_box(t)), seq), seq);
            q.pop().expect("just pushed")
        })
    });
}

fn bench_hold(c: &mut Criterion) {
    let mut group = c.benchmark_group("calendar_hold");
    for &pending in &[1_000usize, 100_000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(pending),
            &pending,
            |b, &pending| {
                let mut q: CalendarQueue<(SimTime, u64), u64> =
                    CalendarQueue::with_capacity(pending);
                let mut lcg = Lcg(0x9E3779B97F4A7C15);
                let mut seq = 0u64;
                for _ in 0..pending {
                    seq += 1;
                    q.push((SimTime::from_nanos(lcg.next_gap(1_000_000)), seq), seq);
                }
                b.iter(|| {
                    let ((t, _), v) = q.pop().expect("hold keeps the queue full");
                    seq += 1;
                    let next = t.as_nanos() + lcg.next_gap(1_000_000);
                    q.push((SimTime::from_nanos(next), seq), v);
                    v
                })
            },
        );
    }
    group.finish();
}

fn bench_front_loaded_ties(c: &mut Criterion) {
    const LANES: u64 = 2_048;
    const SECONDS: u64 = 16;
    c.bench_function("calendar_front_loaded_ties", |b| {
        b.iter(|| {
            let mut q: CalendarQueue<(SimTime, u64), u64> = CalendarQueue::new();
            for sec in 0..SECONDS {
                for lane in 0..LANES {
                    q.push((SimTime::from_secs(black_box(sec)), lane), lane);
                }
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            sum
        })
    });
}

criterion_group!(
    queue,
    bench_push_pop_mixed,
    bench_hold,
    bench_front_loaded_ties
);
criterion_main!(queue);
