//! The per-layer split of the traced run, timed from outside the program
//! around calls into each layer's public functions:
//!
//! * `engine` — in-process `ShardedEngine::serve` on the run's burst;
//! * `nn` — `Network` forwards per precision and batch, and the same model
//!   rebuilt group by group from the public layer constructors;
//! * `quant` / `tensor` — the ops of each stage's repeated 3×3 conv;
//! * `sim` — `tia-sim`'s modeled cycles for the served model.

use crate::load::{
    engine_config, model, rps_set, Inputs, Workload, CLASSES, INPUT, MODEL_SEED, WIDTH, WORKERS,
};
use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;
use tia_accel::PrecisionPair;
use tia_engine::{Backend, ShardedEngine};
use tia_nn::workload::LayerSpec;
use tia_nn::{
    Conv2d, Flatten, GlobalAvgPool, Layer, Linear, Mode, Network, PreActBlock, ReLU,
    SwitchableBatchNorm,
};
use tia_quant::{gemm_quant, quantize_affine_levels, Precision, QuantizedWeights};
use tia_sim::Accelerator;
use tia_tensor::{
    im2col_into, im2col_levels_rows, simd, Conv2dGeometry, KernelMode, PackedMatrix, SeededRng,
    Tensor, Workspace,
};

/// One reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Layer groups of the served model, in execution order.
const GROUPS: [&str; 6] = ["stem", "stage1", "stage2", "stage3", "stage4", "head"];

/// Precisions every whole-model forward is timed at (`None` = fp32).
const FORWARD_PRECISIONS: [Option<u8>; 6] = [None, Some(4), Some(5), Some(6), Some(7), Some(8)];
/// Precisions the layer groups are timed at.
const GROUP_PRECISIONS: [Option<u8>; 3] = [None, Some(4), Some(8)];
/// Batch sizes timed: a lone request and a full batch.
const BATCHES: [usize; 2] = [1, 8];

fn label(p: Option<u8>) -> String {
    p.map_or("fp32".to_string(), |b| format!("w{b}"))
}

fn prec(p: Option<u8>) -> Option<Precision> {
    p.map(Precision::new)
}

/// The served model rebuilt from the public layer constructors, one
/// `Network` per group, drawing from the model seed in the same order as
/// `zoo::preact_resnet18_rps`.
fn group_replica() -> Vec<Network> {
    let mut rng = SeededRng::new(MODEL_SEED);
    let set = rps_set();
    let bn = |c: usize| -> Box<dyn Layer> { Box::new(SwitchableBatchNorm::new(c, set.clone())) };
    let mut stem = Network::new();
    stem.push(Box::new(Conv2d::new(
        Conv2dGeometry::new(INPUT[0], WIDTH, 3, 1, 1),
        false,
        &mut rng,
    )));
    let mut groups = vec![stem];
    let mut ch = WIDTH;
    for stage in 0..4 {
        let out = WIDTH << stage;
        let mut g = Network::new();
        for block in 0..2 {
            let stride = if block == 0 && stage > 0 { 2 } else { 1 };
            g.push(Box::new(PreActBlock::new(ch, out, stride, &bn, &mut rng)));
            ch = out;
        }
        groups.push(g);
    }
    let mut head = Network::new();
    head.push(bn(ch))
        .push(Box::new(ReLU::new()))
        .push(Box::new(GlobalAvgPool::new()))
        .push(Box::new(Flatten::new()))
        .push(Box::new(Linear::new(ch, CLASSES, true, &mut rng)));
    groups.push(head);
    for g in &mut groups {
        g.set_kernel(KernelMode::Native);
    }
    groups
}

/// Runs `x` through the groups in turn, recording each group's seconds in
/// `times` when given; returns the logits.
fn run_groups(groups: &mut [Network], x: &Tensor, mut times: Option<&mut [f64]>) -> Tensor {
    let mut cur: Option<Tensor> = None;
    for gi in 0..groups.len() {
        let t0 = Instant::now();
        let y = groups[gi].forward(cur.as_ref().unwrap_or(x), Mode::Infer);
        if let Some(t) = times.as_deref_mut() {
            t[gi] = t0.elapsed().as_secs_f64();
        }
        if let Some(prev) = cur.replace(y) {
            groups[gi - 1].recycle(prev);
        }
    }
    cur.expect("the replica has groups")
}

fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Result of the `nn` timing.
pub struct NnSplit {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Whether the group replica matched `Network::forward` bit for bit at
    /// every precision and batch size timed.
    pub replica_matches: bool,
    /// Median µs per image: `(group or "forward", precision, batch)`.
    pub us: Vec<(String, Option<u8>, usize, f64)>,
}

/// Times whole-model forwards and the group replica, interleaved over
/// `reps` rounds so host drift spreads over every configuration alike.
pub fn nn_split(inputs: &Inputs, reps: usize) -> NnSplit {
    let mut full = model();
    let mut groups = group_replica();
    let xs: Vec<Tensor> = BATCHES.iter().map(|&b| inputs.burst(b)).collect();

    // Bitwise identity first; it also packs every precision's weights.
    let mut replica_matches = true;
    for &p in &FORWARD_PRECISIONS {
        for g in &mut groups {
            g.set_precision(prec(p));
        }
        for x in &xs {
            let want = Backend::infer_batch(&mut full, x, prec(p));
            let got = run_groups(&mut groups, x, None);
            replica_matches &= same_bits(&want, &got);
            full.recycle(want);
            groups[GROUPS.len() - 1].recycle(got);
        }
    }

    let mut fwd: Vec<Vec<f64>> = vec![Vec::new(); FORWARD_PRECISIONS.len() * BATCHES.len()];
    let mut grp: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::new(); GROUPS.len()]; GROUP_PRECISIONS.len() * BATCHES.len()];
    let mut gt = [0.0f64; GROUPS.len()];
    for _ in 0..reps {
        for (pi, &p) in FORWARD_PRECISIONS.iter().enumerate() {
            for (bi, x) in xs.iter().enumerate() {
                let t0 = Instant::now();
                let y = Backend::infer_batch(&mut full, black_box(x), prec(p));
                fwd[pi * BATCHES.len() + bi].push(t0.elapsed().as_secs_f64() / BATCHES[bi] as f64);
                full.recycle(black_box(y));
            }
        }
        for (pi, &p) in GROUP_PRECISIONS.iter().enumerate() {
            for g in &mut groups {
                g.set_precision(prec(p));
            }
            for (bi, x) in xs.iter().enumerate() {
                let y = run_groups(&mut groups, black_box(x), Some(&mut gt));
                groups[GROUPS.len() - 1].recycle(black_box(y));
                for (gi, &t) in gt.iter().enumerate() {
                    grp[pi * BATCHES.len() + bi][gi].push(t / BATCHES[bi] as f64);
                }
            }
        }
    }

    let mut metrics = Vec::new();
    let mut us = Vec::new();
    let mut fwd_med = vec![0.0; fwd.len()];
    for (pi, &p) in FORWARD_PRECISIONS.iter().enumerate() {
        for (bi, &b) in BATCHES.iter().enumerate() {
            let i = pi * BATCHES.len() + bi;
            fwd_med[i] = median(&mut fwd[i]) * 1e6;
            metrics.push((format!("nn.forward_us.{}.b{b}", label(p)), fwd_med[i], "us"));
            us.push(("forward".to_string(), p, b, fwd_med[i]));
        }
    }
    let (mut sum_groups, mut sum_fwd) = (0.0, 0.0);
    for (gi, name) in GROUPS.iter().enumerate() {
        for (pi, &p) in GROUP_PRECISIONS.iter().enumerate() {
            for (bi, &b) in BATCHES.iter().enumerate() {
                let v = median(&mut grp[pi * BATCHES.len() + bi][gi]) * 1e6;
                sum_groups += v;
                metrics.push((format!("nn.{name}_us.{}.b{b}", label(p)), v, "us"));
                us.push((name.to_string(), p, b, v));
            }
        }
    }
    for &p in &GROUP_PRECISIONS {
        let pi = FORWARD_PRECISIONS
            .iter()
            .position(|&q| q == p)
            .expect("group precisions are timed whole");
        for bi in 0..BATCHES.len() {
            sum_fwd += fwd_med[pi * BATCHES.len() + bi];
        }
    }
    metrics.push(("nn.layer_sum_ratio".to_string(), sum_groups / sum_fwd, "1"));
    NnSplit {
        metrics,
        replica_matches,
        us,
    }
}

/// Each stage's repeated 3×3 conv: `(name, in channels, out channels,
/// input height = width)`.
const OP_SHAPES: [(&str, usize, usize, usize); 5] = [
    ("stem", 3, 4, 16),
    ("s1", 4, 4, 16),
    ("s2", 8, 8, 8),
    ("s3", 16, 16, 4),
    ("s4", 32, 32, 2),
];
/// Batch size of the op timings.
const OP_BATCH: usize = 8;

/// Median seconds per call of `f`, over `samples` samples each long enough
/// (at least ~0.2 ms) for the clock's resolution not to matter.
fn time_op(samples: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-7);
    let inner = ((2e-4 / once).ceil() as usize).clamp(1, 10_000);
    let mut v: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..inner {
                f();
            }
            t.elapsed().as_secs_f64() / inner as f64
        })
        .collect();
    median(&mut v)
}

/// Times the `quant` and `tensor` ops one conv performs on a batch of 8,
/// at each stage's shape, as the served layer calls them: per-image
/// activation quantization, im2col, the f32 GEMM on prepacked weights, and
/// the i8 and i4 integer GEMMs. Times are µs per batch-8 layer call.
pub fn op_split(seed: u64, samples: usize) -> Vec<Metric> {
    let mut rng = SeededRng::new(seed ^ 0x0095_11A7_0000_0001);
    let ops = simd::backend(KernelMode::Native);
    let mut ws = Workspace::new();
    ws.set_kernel(KernelMode::Native);
    let (mut quant, mut tensor) = (Vec::new(), Vec::new());
    for &(name, c, k, hw) in &OP_SHAPES {
        let geo = Conv2dGeometry::new(c, k, 3, 1, 1);
        let (f, ohw, chw) = (c * 9, hw * hw, c * hw * hw);
        let cols_n = OP_BATCH * ohw;
        let x = Tensor::rand_uniform(&[OP_BATCH, c, hw, hw], 0.0, 1.0, &mut rng);
        let w = Tensor::randn(&[k, f], 0.1, &mut rng);
        let img = |ni: usize| &x.data()[ni * chw..(ni + 1) * chw];

        let mut levels = vec![0u8; chw];
        let act_quant = time_op(samples, || {
            for ni in 0..OP_BATCH {
                black_box(quantize_affine_levels(
                    img(ni),
                    &mut levels,
                    Precision::new(8),
                ));
            }
        });

        let mut cols = vec![0.0f32; f * cols_n];
        let im2col = time_op(samples, || {
            cols.fill(0.0);
            for ni in 0..OP_BATCH {
                im2col_into(img(ni), &geo, hw, hw, &mut cols, cols_n, ni * ohw);
            }
            black_box(&cols);
        });

        let packed = PackedMatrix::pack_lhs(k, f, w.data());
        let mut out = vec![0.0f32; k * cols_n];
        let gemm_f32 = time_op(samples, || {
            out.fill(0.0);
            packed.gemm_lhs(cols_n, black_box(&cols), &mut out, &mut ws);
            black_box(&out);
        });

        let mut gemm_int = |bits: u8| {
            let wq = QuantizedWeights::quantize_rows(w.data(), k, f, bits);
            let (mut rows, mut scales, mut zps) = (
                vec![0u8; cols_n * f],
                vec![0.0f32; OP_BATCH],
                vec![0i32; OP_BATCH],
            );
            for ni in 0..OP_BATCH {
                let lp = quantize_affine_levels(img(ni), &mut levels, Precision::new(bits));
                scales[ni] = lp.scale;
                zps[ni] = lp.zero_point;
                im2col_levels_rows(
                    &levels,
                    &geo,
                    hw,
                    hw,
                    lp.zero_point as u8,
                    &mut rows[ni * ohw * f..(ni + 1) * ohw * f],
                );
            }
            let mut o = vec![0.0f32; cols_n * k];
            time_op(samples, || {
                gemm_quant(
                    ops,
                    cols_n,
                    f,
                    black_box(&rows),
                    &scales,
                    &zps,
                    &wq,
                    None,
                    &mut o,
                );
                black_box(&o);
            })
        };
        let (gemm_i8, gemm_i4) = (gemm_int(8), gemm_int(4));

        quant.push((format!("quant.act_quant_us.{name}"), act_quant * 1e6, "us"));
        quant.push((format!("quant.gemm_i8_us.{name}"), gemm_i8 * 1e6, "us"));
        quant.push((format!("quant.gemm_i4_us.{name}"), gemm_i4 * 1e6, "us"));
        // Bytes are computed from the operand sizes, not measured.
        let (macs, kf, fn_, kn) = (
            (k * f * cols_n) as f64,
            (k * f) as f64,
            (f * cols_n) as f64,
            (k * cols_n) as f64,
        );
        tensor.push((format!("tensor.im2col_us.{name}"), im2col * 1e6, "us"));
        tensor.push((
            format!("tensor.im2col_bytes.{name}"),
            4.0 * ((OP_BATCH * chw) as f64 + fn_),
            "B",
        ));
        tensor.push((format!("tensor.gemm_f32_us.{name}"), gemm_f32 * 1e6, "us"));
        tensor.push((format!("tensor.gemm_f32_macs.{name}"), macs, "MAC"));
        tensor.push((
            format!("tensor.gemm_f32_bytes.{name}"),
            4.0 * (kf + fn_ + kn),
            "B",
        ));
    }
    quant.extend(tensor);
    quant
}

/// `ShardedEngine::serve` on the run's seeded burst, in process (no TCP):
/// median µs per request over `reps` bursts of `n`.
pub fn engine_serve_us(inputs: &Inputs, workload: Workload, n: usize, reps: usize) -> f64 {
    let mut engine = ShardedEngine::with_factory(
        WORKERS,
        |_| model(),
        workload.engine_policy(),
        engine_config(),
    );
    let x = inputs.burst(n);
    black_box(engine.serve(&x));
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(engine.serve(black_box(&x)));
            t0.elapsed().as_secs_f64() / n as f64
        })
        .collect();
    engine.shutdown();
    median(&mut v) * 1e6
}

/// The served model as a `tia-sim` workload, grouped like [`GROUPS`]:
/// every conv and the classifier (BN, ReLU and pooling are not modeled).
fn served_spec() -> Vec<Vec<LayerSpec>> {
    let mut groups = vec![vec![LayerSpec::conv(
        "conv1", INPUT[0], WIDTH, 3, 1, 1, INPUT[1], INPUT[2],
    )]];
    let (mut ch, mut hw) = (WIDTH, INPUT[1]);
    for stage in 0..4 {
        let out = WIDTH << stage;
        let mut layers = Vec::new();
        for block in 0..2 {
            let stride = if block == 0 && stage > 0 { 2 } else { 1 };
            let ohw = hw / stride;
            let n = format!("conv{}_{}", stage + 2, block + 1);
            layers.push(LayerSpec::conv(
                format!("{n}a"),
                ch,
                out,
                3,
                stride,
                1,
                hw,
                hw,
            ));
            layers.push(LayerSpec::conv(
                format!("{n}b"),
                out,
                out,
                3,
                1,
                1,
                ohw,
                ohw,
            ));
            if stride != 1 || ch != out {
                layers.push(LayerSpec::conv(
                    format!("{n}sc"),
                    ch,
                    out,
                    1,
                    stride,
                    0,
                    hw,
                    hw,
                ));
            }
            (ch, hw) = (out, ohw);
        }
        groups.push(layers);
    }
    groups.push(vec![LayerSpec::fc("fc", ch, CLASSES)]);
    groups
}

/// Modeled cycles per frame of the 2-in-1 accelerator, per group, at
/// symmetric `bits`.
fn sim_group_cycles(acc: &mut Accelerator, bits: u8) -> Vec<f64> {
    served_spec()
        .iter()
        .map(|layers| {
            layers
                .iter()
                .map(|l| {
                    acc.simulate_layer(l, PrecisionPair::symmetric(bits))
                        .total_cycles
                })
                .sum()
        })
        .collect()
}

/// The `sim` metrics, plus per-group cycles at 4, 8 and 16 bits for the
/// modeled-vs-host table.
pub fn sim_split() -> (Vec<Metric>, [Vec<f64>; 3]) {
    let mut acc = Accelerator::ours();
    let mut metrics = Vec::new();
    for bits in 4..=8u8 {
        let total: f64 = sim_group_cycles(&mut acc, bits).iter().sum();
        metrics.push((format!("sim.cycles_per_frame.w{bits}"), total, "cycles"));
    }
    let by_bits = [4u8, 8, 16].map(|b| sim_group_cycles(&mut acc, b));
    for (gi, name) in GROUPS.iter().enumerate() {
        metrics.push((format!("sim.{name}_cycles.w4"), by_bits[0][gi], "cycles"));
        metrics.push((format!("sim.{name}_cycles.w8"), by_bits[1][gi], "cycles"));
    }
    (metrics, by_bits)
}

/// The host analogue of the paper's Fig. 7: per group, the modeled cycle
/// ratio beside the measured host-time ratio, for w4/w8 and w8/fp32. The
/// accelerator has no fp32 mode; its widest precision (16 bits) stands in.
pub fn modeled_vs_host(nn: &NnSplit, sim: &[Vec<f64>; 3]) -> String {
    let host = |g: &str, p: Option<u8>, b: usize| -> f64 {
        if g == "total" {
            return GROUPS.iter().map(|g| host_us(nn, g, p, b)).sum();
        }
        host_us(nn, g, p, b)
    };
    let simc =
        |gi: Option<usize>, i: usize| -> f64 { gi.map_or(sim[i].iter().sum(), |g| sim[i][g]) };
    let mut s = String::from(
        "modeled vs host (ratio < 1: the lower precision is cheaper)\n\
         group     sim w4/w8  host w4/w8 b1  b8   sim w8/w16  host w8/fp32 b1  b8\n",
    );
    let rows = GROUPS
        .iter()
        .enumerate()
        .map(|(i, g)| (*g, Some(i)))
        .chain([("total", None)]);
    for (g, gi) in rows {
        s.push_str(&format!(
            "{g:<9} {:>9.3}  {:>13.3} {:>5.3}  {:>10.3}  {:>15.3} {:>5.3}\n",
            simc(gi, 0) / simc(gi, 1),
            host(g, Some(4), 1) / host(g, Some(8), 1),
            host(g, Some(4), 8) / host(g, Some(8), 8),
            simc(gi, 1) / simc(gi, 2),
            host(g, Some(8), 1) / host(g, None, 1),
            host(g, Some(8), 8) / host(g, None, 8),
        ));
    }
    s
}

fn host_us(nn: &NnSplit, group: &str, p: Option<u8>, b: usize) -> f64 {
    nn.us
        .iter()
        .find(|(g, q, bb, _)| g == group && *q == p && *bb == b)
        .map_or(f64::NAN, |r| r.3)
}
