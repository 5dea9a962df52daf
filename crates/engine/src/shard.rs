//! The execution half of both engines: one backend, its scratch arena and
//! the micro-batching rule.
//!
//! [`crate::Engine`] owns one shard inline; [`crate::ShardedEngine`] moves
//! one into each worker thread. Both therefore group, chunk, execute and
//! price requests by the same code — the same groups ⇒ the same chunks ⇒
//! the same per-batch execution, which is what keeps sharded serving
//! identical to single-threaded serving.

use crate::{Backend, BatchCost, EngineConfig, RequestId, Response};
use tia_quant::Precision;
use tia_tensor::{argmax_rows, Tensor, Workspace};

/// A submitted request: id, the precision fixed on submission, and the
/// image.
pub(crate) struct Request {
    pub(crate) id: RequestId,
    pub(crate) precision: Option<Precision>,
    pub(crate) image: Tensor,
}

/// One completed request plus its per-frame cost.
pub(crate) struct Served {
    pub(crate) response: Response,
    pub(crate) unit_cost: BatchCost,
}

/// A shard's answer to one flush: its responses (in execution order) and
/// how many micro-batches it executed.
pub(crate) struct ShardReply {
    pub(crate) responses: Vec<Served>,
    pub(crate) batches: usize,
}

/// A backend plus the workspace arena its batch tensors are assembled in.
pub(crate) struct Shard<B> {
    pub(crate) backend: B,
    pub(crate) ws: Workspace,
    max_batch: usize,
}

impl<B: Backend> Shard<B> {
    pub(crate) fn new(mut backend: B, cfg: &EngineConfig) -> Self {
        backend.set_kernel(cfg.kernel);
        Self {
            backend,
            ws: Workspace::with_max_pooled(cfg.workspace_cap),
            max_batch: cfg.max_batch,
        }
    }

    /// Serves and drains `job`. Requests are grouped by assigned precision
    /// (stable, first-seen order) so per-request precision switching still
    /// serves full micro-batches; each group is chunked into batches of at
    /// most `max_batch`. The backend's caller-visible precision is restored
    /// afterwards, and the request images return to the arena.
    pub(crate) fn run(&mut self, job: &mut Vec<Request>) -> ShardReply {
        let saved = self.backend.precision();
        let mut groups: Vec<(Option<Precision>, Vec<&Request>)> = Vec::new();
        for req in job.iter() {
            match groups.iter_mut().find(|(p, _)| *p == req.precision) {
                Some((_, members)) => members.push(req),
                None => groups.push((req.precision, vec![req])),
            }
        }
        let mut responses = Vec::with_capacity(job.len());
        let mut batches = 0;
        for (p, members) in groups {
            for chunk in members.chunks(self.max_batch) {
                self.run_chunk(chunk, p, &mut responses);
                batches += 1;
            }
        }
        self.backend.set_precision(saved);
        for req in job.drain(..) {
            self.ws.recycle_tensor(req.image);
        }
        ShardReply { responses, batches }
    }

    // tia-lint: hot-path(begin)
    /// Executes one micro-batch, pricing each request at its per-frame cost
    /// so the coordinator can accumulate the ledger in request-id order.
    fn run_chunk(&mut self, chunk: &[&Request], p: Option<Precision>, out: &mut Vec<Served>) {
        // One copy per image — straight into an arena-backed batch tensor
        // (submit pins images to rank 3, so the batch is always rank 4).
        let s = chunk[0].image.shape();
        let shape = [chunk.len(), s[0], s[1], s[2]];
        let mut x = self.ws.tensor_spare(&shape);
        for (i, r) in chunk.iter().enumerate() {
            x.set_axis0(i, &r.image);
        }
        let logits = self.backend.infer_batch(&x, p);
        self.ws.recycle_tensor(x);
        let top1 = argmax_rows(&logits);
        let unit_cost = self.backend.cost(1, p);
        for (i, req) in chunk.iter().enumerate() {
            out.push(Served {
                response: Response {
                    id: req.id,
                    logits: logits.index_axis0(i),
                    top1: top1[i],
                    precision: p,
                },
                unit_cost,
            });
        }
        // The batch logits have been split into per-request responses; the
        // backing storage goes back to the backend's arena.
        self.backend.recycle_output(logits);
    }
    // tia-lint: hot-path(end)
}
