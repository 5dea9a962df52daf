//! The sharded, multi-threaded serving runtime.
//!
//! [`ShardedEngine`] is the coordinator of [`crate::Engine`] over N worker
//! *shards*: plain `std::thread` workers, each owning its own [`Backend`]
//! replica and workspace arena. The coordinator assigns every request a
//! shard and a precision at submit time, so the entire schedule is a pure
//! function of the config seed and the submission order — thread
//! interleaving can change *when* a shard runs, never *what* it computes.
//!
//! # Determinism contract
//!
//! Serving is reproducible across **worker counts**: the same seed and the
//! same submission sequence yield bitwise-identical logits, the identical
//! precision schedule, and the identical merged cost ledger for 1, 2 or 8
//! workers — and for a single-threaded [`crate::Engine`]. Three properties
//! make this hold:
//!
//! 1. precisions are drawn from the coordinator's RNG at submit time, in
//!    submission order — the same coordinator a single-threaded
//!    [`crate::Engine`] uses;
//! 2. the layer stack (and the tiled GEMM underneath it) is batch-size
//!    invariant, so how a shard groups its requests into micro-batches
//!    cannot change any logit bit;
//! 3. the ledger accumulates per-request unit costs in request-id order at
//!    flush time, not in shard completion order.

use crate::coordinator::Coordinator;
use crate::shard::{Request, Shard, ShardReply};
use crate::{
    Backend, EngineConfig, EngineStats, PrecisionPolicy, RequestId, Response, SubmitError,
};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use tia_quant::Precision;
use tia_tensor::Tensor;

type Job = Vec<Request>;

/// A sharded, multi-threaded inference server over any [`Backend`].
///
/// The coordinator partitions submitted requests across worker shards by
/// `request_id % workers` (deterministic round-robin); each shard groups its
/// requests by precision, coalesces them into micro-batches of at most
/// `max_batch`, executes them on its own backend replica, and reports
/// responses plus per-frame costs back. [`ShardedEngine::flush`] merges
/// everything in submission order.
///
/// Replicas must be *identical* (same weights, same cost model) for the
/// determinism contract to hold — build them from the same constructor with
/// the same seed, as [`ShardedEngine::with_factory`] encourages.
///
/// # Example
///
/// ```
/// use tia_engine::{EngineConfig, PrecisionPolicy, ShardedEngine};
/// use tia_nn::zoo;
/// use tia_quant::PrecisionSet;
/// use tia_tensor::{SeededRng, Tensor};
///
/// let set = PrecisionSet::range(4, 8);
/// // Four identical replicas: same constructor, same seed.
/// let mut engine = ShardedEngine::with_factory(
///     4,
///     |_| zoo::preact_resnet18_rps(3, 4, 10, PrecisionSet::range(4, 8), &mut SeededRng::new(1)),
///     PrecisionPolicy::Random(set),
///     EngineConfig::default().with_max_batch(8).with_seed(7),
/// );
/// let mut rng = SeededRng::new(2);
/// let x = Tensor::rand_uniform(&[12, 3, 8, 8], 0.0, 1.0, &mut rng);
/// let responses = engine.serve(&x);
/// assert_eq!(responses.len(), 12);
/// assert_eq!(engine.stats().requests, 12);
/// let _replicas = engine.shutdown();
/// ```
pub struct ShardedEngine<B: Backend + Send + 'static> {
    core: Coordinator,
    senders: Vec<Sender<Job>>,
    results_rx: Receiver<ShardReply>,
    handles: Vec<JoinHandle<B>>,
}

impl<B: Backend + Send + 'static> ShardedEngine<B> {
    /// Spawns one worker thread per replica and returns the coordinator.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty.
    pub fn new(replicas: Vec<B>, policy: PrecisionPolicy, cfg: EngineConfig) -> Self {
        assert!(
            !replicas.is_empty(),
            "ShardedEngine needs at least one replica"
        );
        let (results_tx, results_rx) = channel();
        let mut senders = Vec::with_capacity(replicas.len());
        let mut handles = Vec::with_capacity(replicas.len());
        for backend in replicas {
            let (tx, jobs) = channel::<Job>();
            let results = results_tx.clone();
            let mut shard = Shard::new(backend, &cfg);
            // Receive request lists until the coordinator hangs up, then
            // hand the replica back for `shutdown`.
            handles.push(std::thread::spawn(move || {
                while let Ok(mut job) = jobs.recv() {
                    if results.send(shard.run(&mut job)).is_err() {
                        break; // Coordinator dropped mid-flush; shut down.
                    }
                }
                shard.backend
            }));
            senders.push(tx);
        }
        Self {
            core: Coordinator::new(policy, cfg.seed),
            senders,
            results_rx,
            handles,
        }
    }

    /// Builds `workers` replicas from a factory (called with the shard
    /// index) and spawns the runtime. The factory must produce *identical*
    /// backends — reconstruct from the same seed rather than splitting one
    /// RNG across calls.
    pub fn with_factory(
        workers: usize,
        mut factory: impl FnMut(usize) -> B,
        policy: PrecisionPolicy,
        cfg: EngineConfig,
    ) -> Self {
        Self::new((0..workers).map(&mut factory).collect(), policy, cfg)
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// See [`crate::Engine::degrade_level`].
    pub fn degrade_level(&self) -> u8 {
        self.core.degrade_level()
    }

    /// See [`crate::Engine::set_degrade_level`]: the same seed, submission
    /// order and level sequence give the same schedule at any worker count.
    pub fn set_degrade_level(&mut self, level: u8) {
        self.core.set_degrade_level(level);
    }

    /// Merged serving statistics across all shards (cost accumulated in
    /// request-id order, so totals are identical for any worker count).
    pub fn stats(&self) -> EngineStats {
        self.core.stats
    }

    /// Number of submitted-but-unserved requests.
    pub fn pending(&self) -> usize {
        self.core.pending()
    }

    /// Number of completed non-empty [`ShardedEngine::flush`] cycles
    /// (monotonic). The serving layer's flight recorder uses it to label
    /// per-cycle engine spans.
    pub fn cycles(&self) -> u64 {
        self.core.cycles
    }

    /// See [`crate::Engine::submit`].
    ///
    /// # Panics
    ///
    /// Panics if `image` is not 3-D, or if its shape differs from the first
    /// submitted image. Fallible callers (network front-ends) use
    /// [`ShardedEngine::try_submit`].
    pub fn submit(&mut self, image: Tensor) -> RequestId {
        self.core.submit(image)
    }

    /// See [`crate::Engine::try_submit`].
    pub fn try_submit(&mut self, image: Tensor) -> Result<RequestId, SubmitError> {
        self.core.submit_floored(image, None)
    }

    /// See [`crate::Engine::try_submit_floored`].
    pub fn try_submit_floored(
        &mut self,
        image: Tensor,
        floor: Option<Precision>,
    ) -> Result<RequestId, SubmitError> {
        self.core.submit_floored(image, floor)
    }

    /// See [`crate::Engine::try_submit_pinned`].
    pub fn try_submit_pinned(
        &mut self,
        image: Tensor,
        precision: Option<Precision>,
    ) -> Result<RequestId, SubmitError> {
        self.core.submit_pinned(image, precision)
    }

    /// Serves every pending request across the shards and returns responses
    /// sorted by request id (= submission order).
    ///
    /// # Panics
    ///
    /// Panics if a worker thread has died (a backend panicked mid-batch).
    pub fn flush(&mut self) -> Vec<Response> {
        let (senders, results) = (&self.senders, &self.results_rx);
        self.core.flush(|pending| {
            let workers = senders.len();
            let mut per_shard: Vec<Job> = (0..workers).map(|_| Vec::new()).collect();
            let mut merged = ShardReply {
                responses: Vec::with_capacity(pending.len()),
                batches: 0,
            };
            for req in pending.drain(..) {
                per_shard[(req.id % workers as u64) as usize].push(req);
            }
            let mut outstanding = 0;
            for (tx, job) in senders.iter().zip(per_shard) {
                if !job.is_empty() {
                    // tia-lint: allow(panic-freedom, a dead worker means its backend panicked; propagate it)
                    tx.send(job).expect("sharded engine worker thread died");
                    outstanding += 1;
                }
            }
            for _ in 0..outstanding {
                // tia-lint: allow(panic-freedom, a dead worker means its backend panicked; propagate it)
                let reply = results.recv().expect("sharded engine worker thread died");
                merged.batches += reply.batches;
                merged.responses.extend(reply.responses);
            }
            merged
        })
    }

    /// Convenience: submits every row of an `[N, C, H, W]` batch and
    /// flushes.
    pub fn serve(&mut self, x: &Tensor) -> Vec<Response> {
        assert_eq!(
            x.shape().len(),
            4,
            "ShardedEngine::serve expects [N, C, H, W]"
        );
        for i in 0..x.shape()[0] {
            self.submit(x.index_axis0(i));
        }
        self.flush()
    }

    /// Shuts the runtime down and returns the backend replicas (shard
    /// order), e.g. to inspect per-shard `SimBacked` ledgers.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked.
    pub fn shutdown(mut self) -> Vec<B> {
        self.senders.clear(); // Closing the channels ends the worker loops.
        std::mem::take(&mut self.handles)
            .into_iter()
            // tia-lint: allow(panic-freedom, re-raises a worker's backend panic in the caller)
            .map(|h| h.join().expect("sharded engine worker panicked"))
            .collect()
    }
}

impl<B: Backend + Send + 'static> Drop for ShardedEngine<B> {
    fn drop(&mut self) {
        self.senders.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tia_nn::zoo;
    use tia_quant::PrecisionSet;
    use tia_tensor::SeededRng;

    fn replica() -> tia_nn::Network {
        let mut rng = SeededRng::new(1);
        zoo::preact_resnet18_rps(3, 4, 3, PrecisionSet::range(4, 8), &mut rng)
    }

    fn images(n: usize, seed: u64) -> Tensor {
        let mut rng = SeededRng::new(seed);
        Tensor::rand_uniform(&[n, 3, 8, 8], 0.0, 1.0, &mut rng)
    }

    fn sharded(workers: usize, seed: u64) -> ShardedEngine<tia_nn::Network> {
        ShardedEngine::with_factory(
            workers,
            |_| replica(),
            PrecisionPolicy::Random(PrecisionSet::range(4, 8)),
            EngineConfig::default().with_max_batch(4).with_seed(seed),
        )
    }

    #[test]
    fn responses_come_back_in_submission_order() {
        let mut eng = sharded(3, 7);
        let x = images(10, 2);
        let ids: Vec<RequestId> = (0..10).map(|i| eng.submit(x.index_axis0(i))).collect();
        let resp = eng.flush();
        assert_eq!(resp.iter().map(|r| r.id).collect::<Vec<_>>(), ids);
    }

    #[test]
    fn precision_schedule_matches_single_threaded_engine() {
        // The coordinator draws from the same stream a single-threaded
        // Engine with the same seed would, so the schedules coincide.
        let x = images(12, 3);
        let cfg = EngineConfig::default().with_max_batch(4).with_seed(11);
        let mut single = crate::Engine::new(
            replica(),
            PrecisionPolicy::Random(PrecisionSet::range(4, 8)),
            cfg.clone(),
        );
        let want: Vec<_> = single.serve(&x).iter().map(|r| r.precision).collect();
        for workers in [1usize, 2, 5] {
            let mut eng = ShardedEngine::with_factory(
                workers,
                |_| replica(),
                PrecisionPolicy::Random(PrecisionSet::range(4, 8)),
                cfg.clone(),
            );
            let got: Vec<_> = eng.serve(&x).iter().map(|r| r.precision).collect();
            assert_eq!(got, want, "schedule diverged at {} workers", workers);
        }
    }

    #[test]
    fn degraded_schedule_matches_single_threaded_engine() {
        // The same level/floor sequence applied to the coordinator and a
        // single-threaded engine yields the same schedule — degradation is
        // part of the determinism contract, not an exception to it.
        let x = images(9, 8);
        let cfg = EngineConfig::default().with_max_batch(4).with_seed(21);
        let policy = || PrecisionPolicy::Adaptive(PrecisionSet::range(4, 8));
        let floor = Some(Precision::new(6));
        let mut single = crate::Engine::new(replica(), policy(), cfg.clone());
        let mut want = Vec::new();
        for i in 0..9 {
            single.set_degrade_level((i / 3) as u8);
            single
                .try_submit_floored(x.index_axis0(i), if i % 2 == 0 { floor } else { None })
                .unwrap();
        }
        want.extend(single.flush().iter().map(|r| r.precision));
        for workers in [1usize, 3] {
            let mut eng =
                ShardedEngine::with_factory(workers, |_| replica(), policy(), cfg.clone());
            for i in 0..9 {
                eng.set_degrade_level((i / 3) as u8);
                eng.try_submit_floored(x.index_axis0(i), if i % 2 == 0 { floor } else { None })
                    .unwrap();
            }
            let got: Vec<_> = eng.flush().iter().map(|r| r.precision).collect();
            assert_eq!(got, want, "degraded schedule diverged at {workers} workers");
        }
        for p in &want {
            assert!(p.unwrap().bits() >= 4);
        }
        // Floored draws honored the floor.
        for (i, p) in want.iter().enumerate() {
            if i % 2 == 0 {
                assert!(p.unwrap().bits() >= 6, "floored draw {i} below floor");
            }
        }
    }

    #[test]
    fn worker_counts_agree_bitwise() {
        let x = images(9, 4);
        let logits = |workers: usize| {
            let mut eng = sharded(workers, 5);
            eng.serve(&x)
                .iter()
                .flat_map(|r| {
                    r.logits
                        .data()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<u32>>()
        };
        let one = logits(1);
        assert_eq!(one, logits(2));
        assert_eq!(one, logits(4));
    }

    #[test]
    fn stats_merge_across_shards() {
        let mut eng = sharded(4, 6);
        assert_eq!(eng.cycles(), 0);
        let _ = eng.flush(); // empty flush: no cycle
        assert_eq!(eng.cycles(), 0);
        let _ = eng.serve(&images(10, 7));
        let s = eng.stats();
        assert_eq!(s.requests, 10);
        assert!(s.batches >= 1);
        assert_eq!(s.cost.frames, 10);
        assert_eq!(eng.cycles(), 1);
    }

    #[test]
    fn shutdown_returns_all_replicas() {
        let eng = sharded(3, 8);
        let replicas = eng.shutdown();
        assert_eq!(replicas.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        let _ = ShardedEngine::<tia_nn::Network>::new(
            Vec::new(),
            PrecisionPolicy::Fixed(None),
            EngineConfig::default(),
        );
    }
}
