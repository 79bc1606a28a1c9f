//! Deterministic parallel sweep runner.
//!
//! Every figure of the evaluation is a *sweep*: the same simulation run
//! repeated over a grid of independent (configuration × seed) points. Each
//! point builds its own [`overlay_sim::SimCluster`] from its own seed, so
//! points share no mutable state and can execute on any OS thread — the
//! only requirement for reproducibility is that results are merged back in
//! a stable order, which this runner guarantees by indexing results by job
//! position rather than completion order.
//!
//! The runner is built on `std::thread::scope` (the workspace vendors its
//! dependencies and has no rayon); work is handed out through a single
//! atomic cursor, so threads self-balance across jobs of uneven cost.
//!
//! Determinism contract: `run_parallel(jobs, t)` returns the exact same
//! `Vec` for every `t ≥ 1`, including `t = 1` (the serial order). The
//! `sweepbench` binary enforces this by digest comparison on every run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use for sweeps: `AUTOSEL_THREADS` when set
/// (minimum 1), otherwise the machine's available parallelism capped at 8
/// (figure sweeps rarely have more than 8 independent points in flight).
pub fn threads() -> usize {
    if let Some(t) = std::env::var("AUTOSEL_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        return t.max(1);
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Runs every job, fanning them across `threads` scoped OS threads, and
/// returns the results **in job order** (index `i` of the output is the
/// result of `jobs[i]`, regardless of which thread ran it or when it
/// finished). With `threads <= 1` the jobs run serially on the caller's
/// thread — same results, same order.
///
/// # Panics
///
/// Propagates a panic from any job (the panic unwinds out of the scope).
pub fn run_parallel<T, F>(jobs: Vec<F>, threads: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    if threads <= 1 || n <= 1 {
        return jobs.into_iter().map(|j| j()).collect();
    }
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = jobs[i]
                    .lock()
                    .expect("job mutex")
                    .take()
                    .expect("job taken once");
                let result = job();
                *slots[i].lock().expect("slot mutex") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("slot mutex").expect("every job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        let jobs: Vec<_> = (0..37)
            .map(|i| {
                move || {
                    // Uneven cost so completion order scrambles.
                    let mut acc = 0u64;
                    for k in 0..((37 - i) * 1000) {
                        acc = acc.wrapping_add(k);
                    }
                    (i, acc)
                }
            })
            .collect();
        let out = run_parallel(jobs, 4);
        let ids: Vec<u64> = out.iter().map(|&(i, _)| i).collect();
        assert_eq!(ids, (0..37u64).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let mk = || (0..16).map(|i| move || i * i).collect::<Vec<_>>();
        assert_eq!(run_parallel(mk(), 1), run_parallel(mk(), 4));
    }

    #[test]
    fn zero_threads_degrades_to_serial() {
        let out = run_parallel(vec![|| 1, || 2], 0);
        assert_eq!(out, vec![1, 2]);
    }
}
