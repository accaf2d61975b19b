//! Scoped worker pool with deterministic result ordering.
//!
//! [`run_jobs`] executes a batch of independent jobs on up to `threads`
//! OS threads. Workers claim jobs from a shared atomic cursor (so a slow
//! job never stalls the queue behind it) and deposit each result at the
//! job's original index; the returned `Vec` is therefore identical for
//! any thread count, including 1. Panics in a job are propagated to the
//! caller after the scope joins, as with plain `std::thread::scope`.
//!
//! Parallelism has one level. A batch submitted from inside a running
//! job executes inline on that job's thread, in submission order, so a
//! sweep of `T` workers whose jobs fan out again still holds at most `T`
//! jobs' state at once rather than `T²`. A thread-local mark set while a
//! job runs decides this; callers outside any pool keep their threads.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Set while this thread runs a job of some batch.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as running a job until dropped, then
/// restores the previous mark (also when the job unwinds).
struct JobMark(bool);

impl JobMark {
    fn set() -> Self {
        JobMark(IN_JOB.with(|m| m.replace(true)))
    }
}

impl Drop for JobMark {
    fn drop(&mut self) {
        IN_JOB.with(|m| m.set(self.0));
    }
}

/// Runs `jobs` on up to `threads` worker threads and returns their
/// results in job order.
///
/// `threads` is clamped to `[1, jobs.len()]`. With one worker, or when
/// called from inside a job of another batch, the jobs run inline on the
/// calling thread in submission order and no thread is spawned. The
/// closure type is boxed-free: any `FnOnce` returning `T` works.
///
/// # Panics
///
/// If any job panics, the panic is re-raised on the calling thread after
/// all workers have stopped claiming new jobs. Inline, the first panic
/// unwinds straight to the caller and later jobs never start.
pub fn run_jobs<T, F>(threads: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = threads.clamp(1, n);
    if workers == 1 || IN_JOB.with(Cell::get) {
        let _mark = JobMark::set();
        return jobs.into_iter().map(|job| job()).collect();
    }

    // Job slots: workers `take()` the closure they claimed. Result slots
    // are per-index so completion order cannot permute output order.
    let job_slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let result_slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let mut panic: Option<Box<dyn std::any::Any + Send>> = None;

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| -> Result<(), Box<dyn std::any::Any + Send>> {
                let _mark = JobMark::set();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return Ok(());
                    }
                    let job = job_slots[i]
                        .lock()
                        .expect("job slot poisoned")
                        .take()
                        .expect("job claimed twice");
                    match catch_unwind(AssertUnwindSafe(job)) {
                        Ok(v) => *result_slots[i].lock().expect("result slot poisoned") = Some(v),
                        Err(e) => {
                            // Stop claiming further work and surface the
                            // panic to the caller.
                            cursor.store(n, Ordering::Relaxed);
                            return Err(e);
                        }
                    }
                }
            }));
        }
        for h in handles {
            if let Err(e) = h.join().expect("worker thread itself panicked") {
                panic.get_or_insert(e);
            }
        }
    });

    if let Some(e) = panic {
        resume_unwind(e);
    }
    result_slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("job finished without a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<u32> = run_jobs(4, Vec::<fn() -> u32>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn results_keep_job_order_for_any_thread_count() {
        for threads in [1, 2, 3, 8, 64] {
            let jobs: Vec<_> = (0u64..40)
                .map(|i| {
                    move || {
                        // Skew run times so completion order differs from
                        // submission order under real parallelism.
                        if i % 7 == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                        i * 3
                    }
                })
                .collect();
            let out = run_jobs(threads, jobs);
            assert_eq!(out, (0u64..40).map(|i| i * 3).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn flattened_chunk_results_stitch_in_job_order() {
        // The interval-parallel sampling stitch depends on exactly this:
        // each job returns a chunk of consecutive indices, and
        // flattening the job-ordered results reproduces the full
        // sequence for any thread count, even when completion order is
        // scrambled by uneven chunk run times.
        let bounds: [(u64, u64); 5] = [(0, 3), (3, 4), (4, 9), (9, 16), (16, 17)];
        for threads in [1usize, 2, 8] {
            let jobs: Vec<_> = bounds
                .iter()
                .map(|&(lo, hi)| {
                    move || {
                        if lo % 2 == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                        (lo..hi).collect::<Vec<u64>>()
                    }
                })
                .collect();
            let out: Vec<u64> = run_jobs(threads, jobs).into_iter().flatten().collect();
            assert_eq!(out, (0u64..17).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let count = AtomicU64::new(0);
        let jobs: Vec<_> = (0..100).map(|_| || count.fetch_add(1, Ordering::SeqCst)).collect();
        let _ = run_jobs(8, jobs);
        assert_eq!(count.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn more_threads_than_jobs_is_clamped() {
        let out = run_jobs(1000, vec![|| 1u8, || 2u8]);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn zero_threads_still_executes() {
        let out = run_jobs(0, vec![|| 41, || 42]);
        assert_eq!(out, vec![41, 42]);
    }

    #[test]
    fn job_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            run_jobs(
                2,
                vec![
                    Box::new(|| 1u32) as Box<dyn FnOnce() -> u32 + Send>,
                    Box::new(|| panic!("boom")),
                ],
            );
        });
        assert!(r.is_err());
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let me = std::thread::current().id();
        let ids = run_jobs(1, (0..3).map(|_| || std::thread::current().id()).collect());
        assert_eq!(ids, vec![me; 3]);
        // The batch is over: the caller is not left marked as a job.
        assert!(!IN_JOB.with(Cell::get));
    }

    #[test]
    fn nested_batches_run_inline_on_the_outer_worker_in_job_order() {
        let outer: Vec<_> = (0u64..4)
            .map(|o| {
                move || {
                    let worker = std::thread::current().id();
                    let inner: Vec<_> = (0u64..6)
                        .map(|i| {
                            move || {
                                if i % 2 == 0 {
                                    std::thread::sleep(std::time::Duration::from_millis(1));
                                }
                                (std::thread::current().id(), o * 10 + i)
                            }
                        })
                        .collect();
                    (worker, run_jobs(8, inner))
                }
            })
            .collect();
        for (worker, inner) in run_jobs(4, outer) {
            assert!(inner.iter().all(|&(id, _)| id == worker), "a nested job left its worker");
            let values: Vec<u64> = inner.iter().map(|&(_, v)| v).collect();
            let o = values[0] / 10;
            assert_eq!(values, (0..6).map(|i| o * 10 + i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_nested_panic_reaches_the_caller() {
        let r = std::panic::catch_unwind(|| {
            let outer = (0..2)
                .map(|o| {
                    move || {
                        let inner: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
                            Box::new(|| 1),
                            Box::new(move || if o == 1 { panic!("inner") } else { 2 }),
                        ];
                        run_jobs(2, inner)
                    }
                })
                .collect();
            run_jobs(2, outer)
        });
        assert!(r.is_err());
        assert!(!IN_JOB.with(Cell::get), "an unwinding batch must clear its mark");
    }
}
