//! The submit half of both engines: the precision schedule, the request
//! queue and the ledger.
//!
//! [`crate::Engine`] and [`crate::ShardedEngine`] each own one coordinator
//! and differ only in where its queue is executed (one inline shard, or N
//! worker threads). Precisions are drawn here, at submit time, in
//! submission order, and the ledger is merged here in request-id order —
//! so the schedule and the accounting are the same whichever engine runs
//! them, at any worker count.

use crate::shard::{Request, ShardReply};
use crate::{EngineStats, PrecisionPolicy, RequestId, Response, SubmitError};
use tia_quant::Precision;
use tia_tensor::{SeededRng, Tensor};

pub(crate) struct Coordinator {
    policy: PrecisionPolicy,
    rng: SeededRng,
    // Live degradation level applied to Adaptive policy draws; 0 = the
    // full set. Set by the serving layer's feedback controller.
    degrade: u8,
    // Fixed by the first submit; mixed shapes would otherwise be coalesced
    // into one batch tensor and silently misinterpreted.
    image_shape: Option<Vec<usize>>,
    next_id: RequestId,
    pending: Vec<Request>,
    pub(crate) stats: EngineStats,
    // Completed non-empty flush cycles.
    pub(crate) cycles: u64,
}

impl Coordinator {
    pub(crate) fn new(policy: PrecisionPolicy, seed: u64) -> Self {
        Self {
            policy,
            rng: SeededRng::new(seed),
            degrade: 0,
            image_shape: None,
            next_id: 0,
            pending: Vec::new(),
            stats: EngineStats::default(),
            cycles: 0,
        }
    }

    pub(crate) fn degrade_level(&self) -> u8 {
        self.degrade
    }

    pub(crate) fn set_degrade_level(&mut self, level: u8) {
        self.degrade = level.min(self.policy.max_degrade_level());
    }

    pub(crate) fn pending(&self) -> usize {
        self.pending.len()
    }

    pub(crate) fn submit(&mut self, image: Tensor) -> RequestId {
        match self.submit_floored(image, None) {
            Ok(id) => id,
            // tia-lint: allow(panic-freedom, documented `# Panics` API; fallible callers use try_submit)
            Err(e) => panic!("submit rejected: {e}"),
        }
    }

    /// Draws the request's precision from the seeded stream. `level` and
    /// `floor` reach the draw only through
    /// [`PrecisionPolicy::sample_degraded`], which consumes exactly one
    /// draw for every sampling policy at every level — controller shifts
    /// can change the value a draw maps to, never the stream position. The
    /// draw happens only on acceptance, so rejected submissions never
    /// perturb the schedule.
    pub(crate) fn submit_floored(
        &mut self,
        image: Tensor,
        floor: Option<Precision>,
    ) -> Result<RequestId, SubmitError> {
        self.check_image(&image)?;
        let precision = self
            .policy
            .sample_degraded(&mut self.rng, self.degrade, floor);
        Ok(self.enqueue(image, precision))
    }

    /// Pins the request's precision; a pin consumes no draw.
    pub(crate) fn submit_pinned(
        &mut self,
        image: Tensor,
        precision: Option<Precision>,
    ) -> Result<RequestId, SubmitError> {
        self.check_image(&image)?;
        Ok(self.enqueue(image, precision))
    }

    /// Pins the input geometry on first use, rejects rank/shape mismatches
    /// after.
    fn check_image(&mut self, image: &Tensor) -> Result<(), SubmitError> {
        if image.shape().len() != 3 {
            return Err(SubmitError::NotAnImage {
                rank: image.shape().len(),
            });
        }
        match &self.image_shape {
            Some(shape) if shape.as_slice() != image.shape() => Err(SubmitError::ShapeMismatch {
                expected: shape.clone(),
                got: image.shape().to_vec(),
            }),
            Some(_) => Ok(()),
            None => {
                self.image_shape = Some(image.shape().to_vec());
                Ok(())
            }
        }
    }

    fn enqueue(&mut self, image: Tensor, precision: Option<Precision>) -> RequestId {
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push(Request {
            id,
            precision,
            image,
        });
        id
    }

    /// One flush cycle: `serve` executes (and drains) the pending queue,
    /// then the reply is merged in submission order — response order and
    /// the ledger's floating-point accumulation order are both independent
    /// of how, and by how many shards, the queue was executed.
    pub(crate) fn flush(
        &mut self,
        serve: impl FnOnce(&mut Vec<Request>) -> ShardReply,
    ) -> Vec<Response> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let ShardReply {
            mut responses,
            batches,
        } = serve(&mut self.pending);
        responses.sort_by_key(|s| s.response.id);
        self.cycles += 1;
        self.stats.requests += responses.len();
        self.stats.batches += batches;
        for s in &responses {
            self.stats.cost.accumulate(&s.unit_cost);
        }
        responses.into_iter().map(|s| s.response).collect()
    }
}
