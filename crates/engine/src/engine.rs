//! The micro-batching, policy-driven serving loop.

use crate::coordinator::Coordinator;
use crate::shard::Shard;
use crate::{Backend, BatchCost, PrecisionPolicy};
use tia_quant::Precision;
use tia_tensor::{KernelMode, Tensor, Workspace};

/// Identifier handed back by [`Engine::submit`]; responses carry it so
/// callers can re-associate out-of-order completions.
pub type RequestId = u64;

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Largest coalesced batch the engine will form.
    pub max_batch: usize,
    /// Seed of the engine's private policy RNG; a fixed seed yields a
    /// reproducible precision-switch schedule.
    pub seed: u64,
    /// Cap on buffers parked in each engine-owned [`Workspace`] arena (the
    /// single-threaded engine's batch-assembly arena, and every sharded
    /// worker's). Recycles beyond the cap drop their buffer — bounded
    /// memory, graceful degradation. Defaults to
    /// [`Workspace::DEFAULT_MAX_POOLED`].
    pub workspace_cap: usize,
    /// Kernel dispatch mode pushed into the backend at engine construction:
    /// `Scalar` pins the bitwise reference kernels (reproducing historical
    /// logits exactly), `Native` enables runtime SIMD dispatch and the
    /// true-integer serving path. Defaults to the process-wide mode from
    /// the `TIA_KERNEL` environment variable (`native` when unset).
    pub kernel: KernelMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            seed: 0,
            workspace_cap: Workspace::DEFAULT_MAX_POOLED,
            kernel: KernelMode::global_default(),
        }
    }
}

impl EngineConfig {
    /// Sets the maximum coalesced batch size (clamped to at least 1).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Sets the policy RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-arena workspace pool cap (clamped to at least 1).
    pub fn with_workspace_cap(mut self, cap: usize) -> Self {
        self.workspace_cap = cap.max(1);
        self
    }

    /// Sets the kernel dispatch mode.
    pub fn with_kernel(mut self, kernel: KernelMode) -> Self {
        self.kernel = kernel;
        self
    }
}

/// Why a submission was refused by [`Engine::try_submit`] /
/// [`crate::ShardedEngine::try_submit`].
///
/// The panicking `submit` entry points wrap these; network front-ends use
/// the `try_` forms so a malformed request costs the caller a rejection
/// frame, never the server its process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The image tensor was not 3-D `[C, H, W]`.
    NotAnImage {
        /// The submitted tensor's rank.
        rank: usize,
    },
    /// The image shape differs from the first submitted image (one engine
    /// serves one input geometry).
    ShapeMismatch {
        /// The geometry pinned by the first submission.
        expected: Vec<usize>,
        /// The offending submission's shape.
        got: Vec<usize>,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::NotAnImage { rank } => {
                write!(
                    f,
                    "expected a single [C, H, W] image, got a rank-{rank} tensor"
                )
            }
            SubmitError::ShapeMismatch { expected, got } => {
                write!(
                    f,
                    "image shape changed mid-stream: expected {expected:?}, got {got:?}"
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// One completed request.
#[derive(Debug, Clone)]
pub struct Response {
    /// The id returned by the matching [`Engine::submit`].
    pub id: RequestId,
    /// Class logits, `[classes]`.
    pub logits: Tensor,
    /// Top-1 predicted class.
    pub top1: usize,
    /// The precision the request was executed at.
    pub precision: Option<Precision>,
}

/// Aggregate serving statistics since construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Requests completed.
    pub requests: usize,
    /// Coalesced batches executed.
    pub batches: usize,
    /// Accumulated hardware cost as reported by the backend's cost hook.
    pub cost: BatchCost,
}

impl EngineStats {
    /// Mean frames per executed batch.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

/// A micro-batching inference server over any [`Backend`].
///
/// Requests are single images (`[C, H, W]`); the engine draws each one's
/// precision from the [`PrecisionPolicy`] at submit time, coalesces
/// equal-precision requests into batches of at most `max_batch`, executes
/// each batch through the backend, and returns per-request [`Response`]s
/// in submission order.
///
/// Determinism: the layer stack is batch-size-invariant in eval mode (all
/// quantization calibrates per sample), so engine logits are bitwise
/// identical to per-sample `Network::forward` at every precision, and the
/// precision schedule is a pure function of the config seed and the
/// submission order. [`crate::ShardedEngine`] is the same coordinator over
/// worker threads, so the two agree on schedule, logits and ledger.
pub struct Engine<B: Backend> {
    core: Coordinator,
    shard: Shard<B>,
}

impl<B: Backend> Engine<B> {
    /// Creates an engine serving `backend` under `policy`.
    pub fn new(backend: B, policy: PrecisionPolicy, cfg: EngineConfig) -> Self {
        Self {
            core: Coordinator::new(policy, cfg.seed),
            shard: Shard::new(backend, &cfg),
        }
    }

    /// The live degradation level applied to [`PrecisionPolicy::Adaptive`]
    /// draws (0 = the full set).
    pub fn degrade_level(&self) -> u8 {
        self.core.degrade_level()
    }

    /// Sets the degradation level for subsequent policy draws, clamped to
    /// the policy's [`PrecisionPolicy::max_degrade_level`]. Level changes
    /// never shift the seeded stream position (every draw costs one step at
    /// any level), so the schedule stays a pure function of the seed, the
    /// submission order and the level sequence. Non-adaptive policies
    /// ignore the level.
    pub fn set_degrade_level(&mut self, level: u8) {
        self.core.set_degrade_level(level);
    }

    /// Aggregate serving statistics since construction.
    pub fn stats(&self) -> EngineStats {
        self.core.stats
    }

    /// Number of submitted-but-unserved requests.
    pub fn pending(&self) -> usize {
        self.core.pending()
    }

    /// Borrows the backend (e.g. so an attack can craft inputs against the
    /// exact model being served).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.shard.backend
    }

    /// Enqueues one `[C, H, W]` image; returns its request id.
    ///
    /// # Panics
    ///
    /// Panics if `image` is not 3-D, or if its shape differs from the first
    /// submitted image (one engine serves one input geometry). Fallible
    /// callers (network front-ends) use [`Engine::try_submit`] instead.
    pub fn submit(&mut self, image: Tensor) -> RequestId {
        self.core.submit(image)
    }

    /// Fallible [`Engine::submit`]: rejects non-image and geometry-changing
    /// tensors with a [`SubmitError`] instead of panicking. The precision
    /// draw happens only on acceptance, so rejected submissions never
    /// perturb the seeded schedule.
    pub fn try_submit(&mut self, image: Tensor) -> Result<RequestId, SubmitError> {
        self.core.submit_floored(image, None)
    }

    /// Like [`Engine::try_submit`], but bounds the policy draw below by a
    /// per-request precision `floor` (an SLO guarantee: the request never
    /// serves below it, however degraded the engine is). Only
    /// [`PrecisionPolicy::Adaptive`] honors floors; other policies draw as
    /// usual. The floored draw costs exactly one stream step, the same as
    /// an unfloored one.
    pub fn try_submit_floored(
        &mut self,
        image: Tensor,
        floor: Option<Precision>,
    ) -> Result<RequestId, SubmitError> {
        self.core.submit_floored(image, floor)
    }

    /// Like [`Engine::try_submit`], but pins the request to an explicit
    /// precision (`None` = full precision) instead of drawing from the
    /// policy. Pinned requests consume no draw from the seeded schedule, so
    /// a stream mixing policy and pinned submissions is still a pure
    /// function of the seed and the submission sequence.
    pub fn try_submit_pinned(
        &mut self,
        image: Tensor,
        precision: Option<Precision>,
    ) -> Result<RequestId, SubmitError> {
        self.core.submit_pinned(image, precision)
    }

    /// Serves every pending request and returns responses sorted by request
    /// id (= submission order). The backend's caller-visible precision is
    /// restored afterwards, and the request images' storage returns to the
    /// engine's arena for the next burst.
    pub fn flush(&mut self) -> Vec<Response> {
        let shard = &mut self.shard;
        self.core.flush(|pending| shard.run(pending))
    }

    /// Convenience: submits every row of an `[N, C, H, W]` batch and
    /// flushes. Image staging copies draw from the engine's arena.
    pub fn serve(&mut self, x: &Tensor) -> Vec<Response> {
        assert_eq!(x.shape().len(), 4, "Engine::serve expects [N, C, H, W]");
        let (n, s) = (x.shape()[0], x.shape());
        let (img_shape, chw) = ([s[1], s[2], s[3]], s[1] * s[2] * s[3]);
        for i in 0..n {
            let mut img = self.shard.ws.tensor_spare(&img_shape);
            img.data_mut()
                .copy_from_slice(&x.data()[i * chw..(i + 1) * chw]);
            self.submit(img);
        }
        self.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tia_nn::zoo;
    use tia_quant::PrecisionSet;
    use tia_tensor::SeededRng;

    fn engine_with(policy: PrecisionPolicy, cfg: EngineConfig) -> Engine<tia_nn::Network> {
        let mut rng = SeededRng::new(1);
        let net = zoo::preact_resnet18_rps(3, 4, 3, PrecisionSet::range(4, 8), &mut rng);
        Engine::new(net, policy, cfg)
    }

    fn images(n: usize, seed: u64) -> Tensor {
        let mut rng = SeededRng::new(seed);
        Tensor::rand_uniform(&[n, 3, 8, 8], 0.0, 1.0, &mut rng)
    }

    #[test]
    fn fixed_policy_reports_its_precision() {
        let p = Some(Precision::new(6));
        let mut eng = engine_with(PrecisionPolicy::Fixed(p), EngineConfig::default());
        for r in eng.serve(&images(5, 3)) {
            assert_eq!(r.precision, p);
        }
        assert_eq!(eng.stats().requests, 5);
    }

    #[test]
    fn same_seed_same_precision_schedule() {
        let cfg = EngineConfig::default().with_seed(42);
        let set = PrecisionSet::range(4, 8);
        let x = images(16, 4);
        let sched = |cfg: EngineConfig| {
            let mut eng = engine_with(PrecisionPolicy::Random(set.clone()), cfg);
            eng.serve(&x)
                .iter()
                .map(|r| r.precision)
                .collect::<Vec<_>>()
        };
        assert_eq!(sched(cfg.clone()), sched(cfg));
        let other = sched(EngineConfig::default().with_seed(43));
        let base = sched(EngineConfig::default().with_seed(42));
        assert_ne!(
            base, other,
            "different seeds should give different schedules"
        );
    }

    #[test]
    fn flush_restores_caller_visible_precision() {
        let mut eng = engine_with(
            PrecisionPolicy::Random(PrecisionSet::range(4, 8)),
            EngineConfig::default(),
        );
        eng.backend_mut().set_precision(Some(Precision::new(8)));
        let _ = eng.serve(&images(6, 6));
        assert_eq!(eng.backend_mut().precision(), Some(Precision::new(8)));
    }

    #[test]
    fn stats_track_batches_and_requests() {
        let mut eng = engine_with(
            PrecisionPolicy::Fixed(Some(Precision::new(8))),
            EngineConfig::default().with_max_batch(3),
        );
        let _ = eng.serve(&images(7, 7));
        let s = eng.stats();
        assert_eq!(s.requests, 7);
        assert_eq!(s.batches, 3); // 3 + 3 + 1
        assert!((s.mean_batch() - 7.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.cost.frames, 7);
    }

    #[test]
    fn try_submit_reports_errors_without_panicking() {
        let mut eng = engine_with(
            PrecisionPolicy::Random(PrecisionSet::range(4, 8)),
            EngineConfig::default(),
        );
        assert_eq!(
            eng.try_submit(Tensor::zeros(&[1, 3, 8, 8])),
            Err(SubmitError::NotAnImage { rank: 4 })
        );
        let id = eng.try_submit(Tensor::zeros(&[3, 8, 8])).unwrap();
        assert_eq!(id, 0);
        assert_eq!(
            eng.try_submit(Tensor::zeros(&[8, 3, 8])),
            Err(SubmitError::ShapeMismatch {
                expected: vec![3, 8, 8],
                got: vec![8, 3, 8],
            })
        );
        // Rejections consume no policy draw: a clean engine fed only the
        // accepted submissions reproduces the same schedule.
        let id2 = eng.try_submit(Tensor::zeros(&[3, 8, 8])).unwrap();
        assert_eq!(id2, 1);
        let got: Vec<_> = eng.flush().iter().map(|r| r.precision).collect();
        let mut clean = engine_with(
            PrecisionPolicy::Random(PrecisionSet::range(4, 8)),
            EngineConfig::default(),
        );
        clean.submit(Tensor::zeros(&[3, 8, 8]));
        clean.submit(Tensor::zeros(&[3, 8, 8]));
        let want: Vec<_> = clean.flush().iter().map(|r| r.precision).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pinned_submissions_skip_the_policy_stream() {
        let mut eng = engine_with(
            PrecisionPolicy::Random(PrecisionSet::range(4, 8)),
            EngineConfig::default().with_seed(3),
        );
        let pin = Some(Precision::new(5));
        eng.try_submit_pinned(Tensor::zeros(&[3, 8, 8]), pin)
            .unwrap();
        eng.submit(Tensor::zeros(&[3, 8, 8]));
        let resp = eng.flush();
        assert_eq!(resp[0].precision, pin);
        // The policy-driven request drew the *first* value of the stream —
        // the pin consumed none.
        let mut clean = engine_with(
            PrecisionPolicy::Random(PrecisionSet::range(4, 8)),
            EngineConfig::default().with_seed(3),
        );
        clean.submit(Tensor::zeros(&[3, 8, 8]));
        assert_eq!(resp[1].precision, clean.flush()[0].precision);
    }

    #[test]
    fn degrade_level_shifts_values_not_stream_position() {
        let set = PrecisionSet::range(4, 8);
        let cfg = EngineConfig::default().with_seed(9);
        let mut deg = engine_with(PrecisionPolicy::Adaptive(set.clone()), cfg.clone());
        // Fully degraded the window is {4} alone, so the value is pinned
        // even though the draw still happens.
        deg.set_degrade_level(9); // clamps to the set's max useful level
        assert_eq!(deg.degrade_level(), 4);
        deg.submit(Tensor::zeros(&[3, 8, 8]));
        deg.submit(Tensor::zeros(&[3, 8, 8]));
        deg.set_degrade_level(0);
        deg.submit(Tensor::zeros(&[3, 8, 8]));
        let got: Vec<_> = deg.flush().iter().map(|r| r.precision).collect();
        assert_eq!(got[0], Some(Precision::new(4)));
        assert_eq!(got[1], Some(Precision::new(4)));
        // The recovered third draw sits at the same stream position as a
        // never-degraded engine's third draw.
        let mut clean = engine_with(PrecisionPolicy::Adaptive(set), cfg);
        for _ in 0..3 {
            clean.submit(Tensor::zeros(&[3, 8, 8]));
        }
        assert_eq!(got[2], clean.flush()[2].precision);
    }

    #[test]
    fn floored_submissions_never_serve_below_the_floor() {
        let mut eng = engine_with(
            PrecisionPolicy::Adaptive(PrecisionSet::range(4, 8)),
            EngineConfig::default().with_seed(12),
        );
        eng.set_degrade_level(4); // window {4} — but the floor wins
        for _ in 0..8 {
            eng.try_submit_floored(Tensor::zeros(&[3, 8, 8]), Some(Precision::new(6)))
                .unwrap();
        }
        for r in eng.flush() {
            assert!(r.precision.unwrap().bits() >= 6, "served below the floor");
        }
    }

    #[test]
    fn workspace_cap_reaches_the_engine_arena() {
        let cfg = EngineConfig::default().with_workspace_cap(2);
        assert_eq!(cfg.workspace_cap, 2);
        let mut eng = engine_with(PrecisionPolicy::Fixed(None), cfg);
        // Serve a burst larger than the cap: the engine recycles every
        // request image, but the arena must stay bounded at the cap.
        let _ = eng.serve(&images(6, 11));
        assert!(eng.shard.ws.pooled() <= 2);
    }

    #[test]
    #[should_panic(expected = "single [C, H, W] image")]
    fn submit_rejects_batched_input() {
        let mut eng = engine_with(PrecisionPolicy::Fixed(None), EngineConfig::default());
        eng.submit(Tensor::zeros(&[1, 3, 8, 8]));
    }

    #[test]
    #[should_panic(expected = "image shape changed mid-stream")]
    fn submit_rejects_mixed_shapes() {
        // Same element count, different layout — would silently corrupt the
        // coalesced batch if accepted.
        let mut eng = engine_with(PrecisionPolicy::Fixed(None), EngineConfig::default());
        eng.submit(Tensor::zeros(&[3, 8, 8]));
        eng.submit(Tensor::zeros(&[8, 3, 8]));
    }
}
