//! A scoped worker pool with deterministic, index-ordered results.

use aegis_obs as obs;
use crossbeam::channel;
use serde_json::Value;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Process-wide worker count: 0 means "not configured yet".
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Hardware parallelism of this machine (≥ 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Sets the process-wide worker count used by [`Executor::from_config`].
/// `0` resets to "unconfigured" (env / hardware default).
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::SeqCst);
}

/// Resolves the process-wide worker count: an explicit [`set_threads`]
/// wins, then the `AEGIS_THREADS` environment variable, then the
/// machine's available parallelism.
pub fn get_threads() -> usize {
    let configured = THREADS.load(Ordering::SeqCst);
    if configured > 0 {
        return configured;
    }
    if let Ok(v) = std::env::var("AEGIS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    available_threads()
}

/// A fixed-width worker pool. Threads are scoped per call (no detached
/// pool to shut down) and results always come back in input order, so a
/// computation's output is a pure function of its inputs and seeds — not
/// of the worker count or the OS scheduler.
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// A pool of exactly `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
        }
    }

    /// A pool sized by the process-wide configuration ([`get_threads`]).
    pub fn from_config() -> Self {
        Executor::new(get_threads())
    }

    /// This pool's worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `items` through `work`, returning results in input order.
    ///
    /// `work` receives the unit's input index and the item; any RNG it
    /// needs must be derived from that index (see
    /// [`derive_seed`](crate::derive_seed)), never taken from shared
    /// mutable state.
    pub fn map<T, R, F>(&self, items: Vec<T>, work: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.map_with(items, |_worker| (), move |(), index, item| work(index, item))
    }

    /// Like [`Executor::map`] but with a worker-local context built once
    /// per worker thread — the home for expensive replicas (a forked
    /// `Host`, a cloned `Core`) that units reset rather than rebuild.
    ///
    /// Determinism contract: `make_ctx` must produce equivalent contexts
    /// for every worker, and `work` must not let one unit's leftover
    /// context state influence the next unit's result (reset it, or
    /// derive all randomness from `index`).
    pub fn map_with<C, T, R, FC, F>(&self, items: Vec<T>, make_ctx: FC, work: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        FC: Fn(usize) -> C + Sync,
        F: Fn(&mut C, usize, T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n.max(1));
        let observe = obs::enabled();
        if observe {
            obs::gauge_set("par.workers", workers as f64);
        }

        if workers <= 1 {
            // Sequential fast path: same code shape, no thread overhead.
            let mut ctx = make_ctx(0);
            let out: Vec<R> = items
                .into_iter()
                .enumerate()
                .map(|(i, item)| work(&mut ctx, i, item))
                .collect();
            if observe && n > 0 {
                record_worker_stats(0, n as u64, 0);
            }
            return out;
        }

        let (work_tx, work_rx) = channel::unbounded::<(usize, T)>();
        let (done_tx, done_rx) = channel::unbounded::<(usize, R)>();
        for pair in items.into_iter().enumerate() {
            work_tx
                .send(pair)
                .ok()
                .expect("receiver alive until scope ends");
        }
        drop(work_tx);

        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let drain = |worker: usize,
                     work_rx: &channel::Receiver<(usize, T)>,
                     done_tx: &channel::Sender<(usize, R)>| {
            let mut ctx = make_ctx(worker);
            let mut units = 0u64;
            let mut idle_ns = 0u128;
            loop {
                let wait = Instant::now();
                let Ok((index, item)) = work_rx.recv() else {
                    break;
                };
                idle_ns += wait.elapsed().as_nanos();
                let result = work(&mut ctx, index, item);
                units += 1;
                done_tx
                    .send((index, result))
                    .ok()
                    .expect("collector alive until scope ends");
            }
            if observe {
                record_worker_stats(worker, units, idle_ns as u64);
            }
        };
        std::thread::scope(|scope| {
            for worker in 1..workers {
                let (work_rx, done_tx, drain) = (work_rx.clone(), done_tx.clone(), &drain);
                scope.spawn(move || drain(worker, &work_rx, &done_tx));
            }
            // Worker 0 is the calling thread, which would otherwise only
            // wait: one spawn fewer per call, and short parallel sections
            // repeated many times do not churn per-thread allocator
            // arenas (peak RSS stays flat).
            drain(0, &work_rx, &done_tx);
            drop(done_tx);
            drop(work_rx);
            // The spawning thread then doubles as the collector.
            for (index, result) in done_rx.iter() {
                slots[index] = Some(result);
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every unit produced a result"))
            .collect()
    }
}

/// Records one worker's per-`map` utilization: how many units it
/// processed and how long it sat blocked on the work queue. Write-only —
/// scheduling never reads these back, so the determinism contract holds
/// with observability at any level.
fn record_worker_stats(worker: usize, units: u64, idle_ns: u64) {
    let registry = obs::global();
    registry.counter_add("par.units", units as f64);
    registry.histogram_record("par.worker.units", units as f64);
    registry.histogram_record("par.worker.idle_ns", idle_ns as f64);
    obs::event_with(
        "worker",
        "par.worker",
        &[
            ("worker", Value::from(worker)),
            ("units", Value::from(units)),
            ("idle_ns", Value::from(idle_ns)),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive_seed;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn results_come_back_in_input_order() {
        let ex = Executor::new(4);
        let out = ex.map((0..100u64).collect(), |i, x| {
            // Stagger finish times so completion order scrambles.
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            x * 2
        });
        assert_eq!(out, (0..100u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_does_not_change_seeded_results() {
        let run = |threads: usize| -> Vec<u64> {
            Executor::new(threads).map((0..64u64).collect(), |i, unit| {
                let mut rng = StdRng::seed_from_u64(derive_seed(99, 5, i as u64));
                (0..16).map(|_| rng.gen_range(0..1000u64)).sum::<u64>() ^ unit
            })
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(8));
    }

    #[test]
    fn map_with_builds_one_context_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let built = AtomicUsize::new(0);
        let ex = Executor::new(3);
        let out = ex.map_with(
            (0..32u64).collect(),
            |worker| {
                built.fetch_add(1, Ordering::SeqCst);
                worker
            },
            |_ctx, i, x| x + i as u64,
        );
        assert_eq!(out.len(), 32);
        assert!(built.load(Ordering::SeqCst) <= 3);
        assert_eq!(out[4], 8);
    }

    #[test]
    fn empty_and_single_item_inputs_work() {
        let ex = Executor::new(8);
        let empty: Vec<u32> = ex.map(Vec::<u32>::new(), |_, x| x);
        assert!(empty.is_empty());
        assert_eq!(ex.map(vec![5u32], |_, x| x * 3), vec![15]);
    }

    #[test]
    fn thread_config_precedence() {
        set_threads(3);
        assert_eq!(get_threads(), 3);
        set_threads(0);
        // Unset: falls back to env or hardware; either way ≥ 1.
        assert!(get_threads() >= 1);
    }
}
