//! A reusable std-thread worker pool for per-stripe and per-node fan-out.
//!
//! Stripes of a file are independent under every code in this workspace,
//! and the fetches of one read plan target distinct nodes, so both
//! parallelize trivially. This module gives the transports (the cluster
//! client's wire fan-out and stripe pipelining), `carousel-tool --threads`
//! and the bench binaries a dependency-free way to use all cores: a
//! [`ParallelCtx`] handle, built once per process via
//! [`ParallelCtx::builder`], that runs work-stealing index loops over
//! scoped threads — no channels, no unsafe, no allocation beyond the
//! result vector — plus the two-stage [`pipeline`] helper.
//!
//! It lives in `access` because the transports depend on it; the
//! whole-file helpers built on top (`encode_file`/`decode_file`) stay in
//! `workloads::parallel`, which re-exports everything here.
//!
//! The handle resolves its thread count once (including the
//! `available_parallelism` probe for `threads(0)`) and is then passed by
//! reference through every parallel entry point.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads to use by default: the machine's available
/// parallelism, or 1 when that cannot be determined.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A reusable parallel-execution context.
///
/// Build one per process with [`ParallelCtx::builder`] and pass it by
/// reference to every parallel entry point ([`ParallelCtx::run`] here,
/// `encode_file`/`decode_file` in `workloads::parallel`).
/// Construction is where the thread-count policy lives (explicit count, or
/// the `available_parallelism` probe for `0`/unset); execution reuses that
/// decision for every call.
///
/// # Examples
///
/// ```
/// use access::parallel::ParallelCtx;
///
/// let ctx = ParallelCtx::builder().threads(4).build();
/// assert_eq!(ctx.threads(), 4);
/// let squares = ctx.run(5, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
#[derive(Debug, Clone)]
pub struct ParallelCtx {
    threads: usize,
}

/// Builder for [`ParallelCtx`]. Obtained from [`ParallelCtx::builder`].
#[derive(Debug, Default, Clone)]
pub struct ParallelCtxBuilder {
    threads: Option<usize>,
}

impl ParallelCtxBuilder {
    /// Sets the worker-thread count. `0` (and not calling this at all)
    /// means "use all available cores", resolved once at [`build`] time.
    ///
    /// [`build`]: ParallelCtxBuilder::build
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Resolves the configuration into a ready-to-share context.
    pub fn build(self) -> ParallelCtx {
        let threads = match self.threads {
            Some(0) | None => available_threads(),
            Some(t) => t,
        };
        ParallelCtx { threads }
    }
}

impl Default for ParallelCtx {
    /// A context using all available cores.
    fn default() -> Self {
        ParallelCtx::builder().build()
    }
}

impl ParallelCtx {
    /// Starts building a context.
    pub fn builder() -> ParallelCtxBuilder {
        ParallelCtxBuilder::default()
    }

    /// A single-threaded context (everything runs inline on the caller).
    pub fn sequential() -> Self {
        ParallelCtx { threads: 1 }
    }

    /// The resolved worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every index in `0..items` on the context's workers,
    /// returning the results in index order. Workers pull the next index
    /// from a shared atomic, so uneven item costs balance automatically.
    /// With one thread (or fewer than two items) this runs inline with no
    /// thread spawns.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f` (the scope joins all workers first).
    pub fn run<R, F>(&self, items: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let threads = self.threads.clamp(1, items.max(1));
        if threads <= 1 || items <= 1 {
            return (0..items).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        // This is the pool every other fan-out is made to use.
        #[allow(clippy::disallowed_methods)]
        let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= items {
                                break;
                            }
                            out.push((i, f(i)));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        });
        let mut slots: Vec<Option<R>> = (0..items).map(|_| None).collect();
        for (i, r) in per_worker.into_iter().flatten() {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|r| r.expect("every index produced a result"))
            .collect()
    }
}

/// Runs a two-stage producer/consumer pipeline over a bounded channel of
/// depth `depth` — the primitive behind the cluster client's stripe
/// pipelining, where the fetch (or encode) of stripe `i+1` overlaps the
/// decode (or send) of stripe `i`.
///
/// The producer runs on one scoped worker thread and receives the sending
/// half; the consumer runs inline on the caller with the receiving half.
/// At most `depth` items sit in the channel, bounding memory to
/// `depth + 2` stripes regardless of file size. If the consumer drops its
/// receiver early (e.g. on a decode error), the producer's next `send`
/// fails and it can stop — no deadlock, no leak: the scope still joins the
/// producer before returning. Both closures' results come back to the
/// caller.
///
/// # Panics
///
/// Propagates a panic from the producer (the scope joins it first).
#[allow(clippy::disallowed_methods)] // the pool's own pipeline stage
pub fn pipeline<T, P, C, PR, CR>(depth: usize, producer: P, consumer: C) -> (PR, CR)
where
    T: Send,
    PR: Send,
    P: FnOnce(std::sync::mpsc::SyncSender<T>) -> PR + Send,
    C: FnOnce(std::sync::mpsc::Receiver<T>) -> CR,
{
    let (tx, rx) = std::sync::mpsc::sync_channel(depth.max(1));
    std::thread::scope(|scope| {
        let handle = scope.spawn(move || producer(tx));
        let consumed = consumer(rx);
        (handle.join().expect("pipeline producer panicked"), consumed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(threads: usize) -> ParallelCtx {
        ParallelCtx::builder().threads(threads).build()
    }

    #[test]
    fn builder_resolves_thread_count_once() {
        assert_eq!(ctx(3).threads(), 3);
        assert_eq!(ParallelCtx::sequential().threads(), 1);
        // 0 and "unset" both mean "all cores", probed at build time.
        assert_eq!(ctx(0).threads(), available_threads());
        assert_eq!(
            ParallelCtx::builder().build().threads(),
            available_threads()
        );
        assert_eq!(ParallelCtx::default().threads(), available_threads());
    }

    #[test]
    fn run_preserves_order_and_covers_all() {
        for threads in [1, 2, 3, 8, 64] {
            let got = ctx(threads).run(100, |i| i * i);
            let want: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={threads}");
        }
        assert!(ctx(4).run(0, |i| i).is_empty());
    }

    #[test]
    fn context_is_reusable_across_calls() {
        let ctx = ctx(4);
        for _ in 0..3 {
            assert_eq!(ctx.run(10, |i| i + 1), (1..=10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pipeline_preserves_order_and_returns_both_results() {
        for depth in [1, 2, 7] {
            let (sent, got) = pipeline(
                depth,
                |tx| {
                    for i in 0..50 {
                        if tx.send(i).is_err() {
                            return i;
                        }
                    }
                    50
                },
                |rx| rx.iter().collect::<Vec<i32>>(),
            );
            assert_eq!(sent, 50, "depth={depth}");
            assert_eq!(got, (0..50).collect::<Vec<_>>(), "depth={depth}");
        }
    }

    #[test]
    fn pipeline_survives_early_consumer_exit() {
        // Consumer bails after 3 items; the producer sees the send error
        // and stops instead of deadlocking on the bounded channel.
        let (sent, got) = pipeline(
            1,
            |tx| {
                let mut sent = 0;
                while tx.send(sent).is_ok() {
                    sent += 1;
                }
                sent
            },
            |rx| {
                let got: Vec<i32> = rx.iter().take(3).collect();
                drop(rx);
                got
            },
        );
        assert_eq!(got, vec![0, 1, 2]);
        assert!(sent >= 3);
    }
}
