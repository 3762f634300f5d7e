//! Ordered parallel map for the flow's independent per-sample work.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Items a worker claims at a time: large enough that the shared index is
/// rarely touched, small enough that uneven samples still balance.
const CHUNK: usize = 32;

/// The number of workers the flow runs on: one per available core.
pub(crate) fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` on `workers` scoped threads and yields the
/// results in `items` order, so the output is the same for any worker
/// count. Workers claim chunks from a shared index; the results are
/// handed out chunk by chunk, never copied into one buffer. A worker's
/// panic is re-raised on the caller with its original payload.
pub(crate) fn par_map<T, R, F>(items: &[T], workers: usize, f: F) -> impl Iterator<Item = R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.clamp(1, items.len().div_ceil(CHUNK).max(1));
    let next = AtomicUsize::new(0);
    let mut chunks: Vec<(usize, Vec<R>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let start = next.fetch_add(CHUNK, Ordering::Relaxed);
                        if start >= items.len() {
                            break done;
                        }
                        let chunk = &items[start..(start + CHUNK).min(items.len())];
                        done.push((start, chunk.iter().map(&f).collect()));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    chunks.sort_unstable_by_key(|&(start, _)| start);
    chunks.into_iter().flat_map(|(_, results)| results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order_for_any_worker_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 3, 8] {
            assert_eq!(
                par_map(&items, workers, |x| x * x).collect::<Vec<_>>(),
                expected
            );
        }
        assert_eq!(par_map(&[] as &[u64], 4, |x| *x).count(), 0);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        let items: Vec<usize> = (0..500).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map(&items, 4, |&x| {
                assert!(x != 321, "sample {x} failed");
                x
            })
            .count()
        })
        .expect_err("the panic must propagate");
        let message = caught.downcast_ref::<String>().expect("formatted payload");
        assert!(message.contains("sample 321 failed"), "{message}");
    }
}
