//! The three cell workloads: one matrix cell per process, run through the
//! real driver for the end-to-end numbers and rebuilt from the public
//! constructors (with every seam wrapped) for the per-layer numbers.

use crate::stats::{median, percentile};
use crate::trace::{measure, overlap, union, Interval, Seam, Tracer};
use crate::trace::{TracedAdversary, TracedAggregator, TracedDetector, TracedModel, TracedSource};
use crate::{Outcome, Unit};
use fedrec_baselines::registry::{build_adversary, AttackEnv, AttackMethod};
use fedrec_data::split::TestSet;
use fedrec_data::{HoldoutView, InteractionSource, ScaleFreeDataset};
use fedrec_defense::{Krum, NormDetector};
use fedrec_experiments::matrix::{
    items_digest, parse_record, run_cell_traced, validate_record, volatile_invariant, CellSpec,
    DefenseKind, MatrixConfig, ModelKind, Population, ScalePreset,
};
use fedrec_experiments::runner::malicious_count;
use fedrec_federated::defense::{DefensePipeline, Detector};
use fedrec_federated::history::TrainingHistory;
use fedrec_federated::server::{Aggregator, SumAggregator};
use fedrec_federated::simulation::Snapshot;
use fedrec_federated::{ClientModel, MfClientModel, Simulation};
use fedrec_linalg::Matrix;
use fedrec_ncf::{NcfClientModel, NcfModel, Theta};
use fedrec_recsys::eval::{EvalReport, Evaluator};
use fedrec_recsys::metrics::MetricsAccumulator;
use fedrec_recsys::scorer::DenseScores;
use fedrec_recsys::{EvalCounters, EvalMode, UserRowSource};
use std::sync::Arc;

/// Users per streamed evaluation shard; the driver's fixed value, which
/// fixes the metric summation order.
const EVAL_SHARD_ROWS: usize = 1_024;
/// FedRecAttack's per-round user cap on scale-free populations (the
/// driver's value).
const SCALE_ATTACK_USER_CAP: usize = 1_024;
/// Hidden width of the interaction MLP in NCF cells (the driver's value).
const NCF_HIDDEN: usize = 16;

/// One cell workload: the grid configuration, the cell, and the
/// client-round thread count.
pub struct Plan {
    pub cfg: MatrixConfig,
    pub cell: CellSpec,
    pub threads: usize,
}

impl Plan {
    pub fn new(workload: &str, seed: u64) -> Option<Self> {
        let plan = match workload {
            "mf-attack-50k" => Plan {
                cfg: MatrixConfig {
                    serve: false,
                    workers: 1,
                    eval_every: 8,
                    epochs: Some(24),
                    eval_threads: 1,
                    eval_mode: EvalMode::Full,
                    ..MatrixConfig::smoke(seed)
                },
                cell: CellSpec {
                    model: ModelKind::Mf,
                    attack: AttackMethod::FedRecAttack,
                    defense: DefenseKind::Krum,
                    rho: 0.01,
                },
                threads: 1,
            },
            "ncf-50k" => Plan {
                cfg: MatrixConfig {
                    serve: false,
                    workers: 1,
                    eval_every: 4,
                    epochs: Some(16),
                    eval_threads: 1,
                    eval_mode: EvalMode::Full,
                    ..MatrixConfig::smoke(seed)
                },
                cell: CellSpec {
                    model: ModelKind::Ncf,
                    attack: AttackMethod::Random,
                    defense: DefenseKind::None,
                    rho: 0.01,
                },
                threads: 1,
            },
            "mf-million" => Plan {
                cfg: MatrixConfig {
                    workers: 1,
                    eval_every: 0,
                    epochs: Some(8),
                    eval_threads: 2,
                    eval_mode: EvalMode::Full,
                    ..MatrixConfig::at_scale(ScalePreset::Million, seed)
                },
                cell: CellSpec {
                    model: ModelKind::Mf,
                    attack: AttackMethod::None,
                    defense: DefenseKind::None,
                    rho: 0.0,
                },
                threads: 2,
            },
            _ => return None,
        };
        Some(plan)
    }

    fn preset(&self) -> ScalePreset {
        match self.cfg.population {
            Population::ScaleFree(p) => p,
            Population::Dense(_) => unreachable!("every cell workload is scale-free"),
        }
    }
}

/// The crate that implements a cell's adversary.
fn attack_layer(attack: AttackMethod) -> &'static str {
    match attack {
        AttackMethod::FedRecAttack => "core",
        AttackMethod::None => "federated",
        _ => "baselines",
    }
}

/// One cell rebuilt from the public constructors `matrix::prepare_cell`
/// uses, in the same order and with the same seeds. With a tracer, every
/// seam is wrapped.
struct Composed {
    holdout: Arc<HoldoutView<ScaleFreeDataset>>,
    sim: Simulation,
    eval: CellEval,
    epochs: usize,
}

/// What an evaluation pass reads besides the model snapshot.
struct CellEval {
    source: Arc<dyn InteractionSource + Send + Sync>,
    test: TestSet,
    evaluator: Evaluator,
    eval_users: usize,
}

fn compose(plan: &Plan, tracer: Option<&Arc<Tracer>>) -> Composed {
    let cfg = &plan.cfg;
    let cell = &plan.cell;
    let preset = plan.preset();
    let holdout = Arc::new(HoldoutView::new(
        preset.config().generate(cfg.seed ^ 0xDA7A),
        cfg.seed ^ 0x401D,
    ));
    let span = cfg.eval_users.clamp(1, holdout.num_users());
    let test = holdout.test_set(span);
    let targets = vec![holdout.num_items() as u32 - 1];
    let source: Arc<dyn InteractionSource + Send + Sync> = match tracer {
        Some(t) => Arc::new(TracedSource {
            inner: holdout.clone(),
            tracer: t.clone(),
        }),
        None => holdout.clone(),
    };
    let cseed = cell.cell_seed(cfg.seed);
    let mut fed = cfg.scale.fed_config(cseed);
    if let Some(epochs) = cfg.epochs {
        fed.epochs = epochs;
    }
    fed.threads = plan.threads;
    fed.client_fraction = preset.client_fraction();
    let num_malicious = malicious_count(source.num_users(), cell.rho);
    let env = AttackEnv::over(&*source, &targets)
        .malicious(num_malicious)
        .kappa(cfg.kappa)
        .k(fed.k)
        .seed(cseed ^ 0xA7)
        .public(cfg.xi, cseed ^ 0xD1)
        .max_attack_users(Some(SCALE_ATTACK_USER_CAP));
    let mut adversary = build_adversary(cell.attack, &env);
    let mut model: Box<dyn ClientModel> = match cell.model {
        ModelKind::Mf => Box::new(MfClientModel),
        ModelKind::Ncf => Box::new(NcfClientModel::new(NCF_HIDDEN, fed.k)),
    };
    let (mut detector, mut aggregator) = defense_parts(cell.defense, num_malicious);
    if let Some(t) = tracer {
        adversary = Box::new(TracedAdversary {
            inner: adversary,
            tracer: t.clone(),
        });
        model = Box::new(TracedModel {
            inner: model,
            tracer: t.clone(),
        });
        detector = Box::new(TracedDetector {
            inner: detector,
            tracer: t.clone(),
        });
        aggregator = Box::new(TracedAggregator {
            inner: aggregator,
            tracer: t.clone(),
        });
    }
    let pipeline = DefensePipeline::monitored(detector, aggregator);
    let mut sim = Simulation::with_model(
        source.clone(),
        fed,
        model,
        adversary,
        num_malicious,
        pipeline,
        cfg.backend,
    );
    if let Some(plan) = cfg.faults {
        sim.enable_faults(plan, cseed ^ 0xFA17);
    }
    let evaluator = Evaluator::new(&*source, &test, &targets, cseed ^ 0xE7);
    Composed {
        holdout,
        sim,
        eval: CellEval {
            eval_users: cfg.eval_users.clamp(1, source.num_users()),
            source,
            test,
            evaluator,
        },
        epochs: fed.epochs,
    }
}

/// The detector and aggregator `DefenseKind::build` monitors with, kept
/// apart so each can be wrapped. Only the workloads' defenses are mirrored.
fn defense_parts(
    kind: DefenseKind,
    num_malicious: usize,
) -> (Box<dyn Detector>, Box<dyn Aggregator>) {
    let aggregator: Box<dyn Aggregator> = match kind {
        DefenseKind::None => Box::new(SumAggregator),
        DefenseKind::Krum => Box::new(Krum {
            assumed_byzantine: num_malicious.max(1),
        }),
        other => unimplemented!("no workload runs the {other:?} defense"),
    };
    (Box::new(NormDetector::new(3.0)), aggregator)
}

impl CellEval {
    /// One evaluation pass, exactly as the driver's harness computes it.
    fn eval(
        &self,
        plan: &Plan,
        items: &Matrix,
        shared: &[f32],
        users: &dyn UserRowSource,
    ) -> (EvalReport, EvalCounters) {
        match plan.cell.model {
            ModelKind::Mf => self.evaluator.evaluate_user_range_mode(
                items,
                users,
                &*self.source,
                &self.test,
                0..self.eval_users,
                plan.cfg.eval_threads.max(1),
                EVAL_SHARD_ROWS,
                plan.cfg.eval_mode,
                None,
            ),
            ModelKind::Ncf => self.eval_ncf(items, shared, users),
        }
    }

    fn eval_ncf(
        &self,
        items: &Matrix,
        shared: &[f32],
        users: &dyn UserRowSource,
    ) -> (EvalReport, EvalCounters) {
        let theta = Theta::from_flat(NCF_HIDDEN, items.cols(), shared);
        let m = items.rows();
        let mut total = MetricsAccumulator::new();
        let mut row = vec![0.0f32; items.cols()];
        let mut scores = vec![0.0f32; m];
        let mut lo = 0usize;
        while lo < self.eval_users {
            let hi = (lo + EVAL_SHARD_ROWS).min(self.eval_users);
            let mut acc = MetricsAccumulator::new();
            for u in lo..hi {
                users.write_user_row(u, &mut row);
                NcfModel::scores_for_vector(&theta, items, &row, &mut scores);
                let mut src = DenseScores::new(&scores);
                acc.push_user_attack(
                    &mut src,
                    self.source.user_items(u),
                    self.evaluator.targets(),
                );
                if let Some(test_item) = self.test.get(u).copied().flatten() {
                    acc.push_user_hr(&mut src, test_item, self.evaluator.hr_negatives(u));
                }
            }
            total.merge(&acc);
            lo = hi;
        }
        let rep = EvalReport {
            attack: total.attack_metrics(),
            hr_at_10: total.hr_at_10(),
        };
        let counters = EvalCounters {
            items_scored: (self.eval_users as u64) * (m as u64),
            items_skipped: 0,
        };
        (rep, counters)
    }
}

/// `f64` rendered as the driver renders record numbers.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// The deterministic record fields the traced run must reproduce.
const CHECKED_KEYS: [&str; 22] = [
    "epoch",
    "loss",
    "er5",
    "er10",
    "ndcg10",
    "hr10",
    "det_inspected",
    "det_flagged",
    "det_excluded",
    "det_precision",
    "det_recall",
    "excluded_total",
    "malicious",
    "rows_materialized",
    "participants_touched",
    "f_dropped",
    "f_late",
    "f_rejected",
    "f_retried",
    "f_skipped",
    "items_scored",
    "items_skipped",
];

/// The checked fields of one evaluated epoch of the traced run.
#[allow(clippy::too_many_arguments)]
fn fields(
    epoch: usize,
    loss: f32,
    rep: &EvalReport,
    counters: &EvalCounters,
    hist: &TrainingHistory,
    rows_materialized: usize,
    participants_touched: usize,
) -> Vec<(String, String)> {
    let (inspected, flagged, excluded, precision, recall, malicious) = match hist.defense.last() {
        Some(d) => (
            d.inspected,
            d.flagged,
            d.excluded,
            d.precision,
            d.recall,
            d.malicious,
        ),
        None => (0, 0, 0, 1.0, 1.0, 0),
    };
    let (f_dropped, f_late, f_rejected, f_retried, f_skipped) = hist.fault_totals();
    let vals = [
        epoch.to_string(),
        num(loss as f64),
        num(rep.attack.er_at_5),
        num(rep.attack.er_at_10),
        num(rep.attack.ndcg_at_10),
        num(rep.hr_at_10),
        inspected.to_string(),
        flagged.to_string(),
        excluded.to_string(),
        num(precision),
        num(recall),
        hist.total_excluded().to_string(),
        malicious.to_string(),
        rows_materialized.to_string(),
        participants_touched.to_string(),
        f_dropped.to_string(),
        f_late.to_string(),
        f_rejected.to_string(),
        f_retried.to_string(),
        f_skipped.to_string(),
        counters.items_scored.to_string(),
        counters.items_skipped.to_string(),
    ];
    CHECKED_KEYS
        .iter()
        .map(|k| k.to_string())
        .zip(vals)
        .collect()
}

/// Check one driver record: it validates, and the store never holds more
/// client rows than were ever selected.
fn check_record(line: &str) -> Result<(), String> {
    validate_record(line)?;
    let pairs = parse_record(line).ok_or("unparseable record")?;
    let get = |k: &str| -> u64 {
        pairs
            .iter()
            .find(|(key, _)| key == k)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(u64::MAX)
    };
    let (rows, touched) = (get("rows_materialized"), get("participants_touched"));
    if rows > touched {
        return Err(format!(
            "rows_materialized {rows} > participants_touched {touched}"
        ));
    }
    Ok(())
}

/// One untraced cell through the real driver: wall seconds, records and
/// the final item digest.
struct DriverRun {
    secs: f64,
    lines: Vec<String>,
    digest: u64,
}

fn driver_run(plan: &Plan) -> DriverRun {
    let t = crate::now();
    let (lines, digest) = run_cell_traced(&plan.cfg, &plan.cell, plan.threads);
    DriverRun {
        secs: t.elapsed().as_secs_f64(),
        lines,
        digest,
    }
}

fn check_driver_run(run: &DriverRun, reference: Option<&DriverRun>) -> Vec<String> {
    let mut errors: Vec<String> = run
        .lines
        .iter()
        .filter_map(|l| check_record(l).err())
        .collect();
    if let Some(r) = reference {
        let same = run.digest == r.digest
            && run.lines.len() == r.lines.len()
            && run
                .lines
                .iter()
                .zip(&r.lines)
                .all(|(a, b)| volatile_invariant(a) == volatile_invariant(b));
        if !same {
            errors
                .push("a repeated run of the same cell produced different records or items".into());
        }
    }
    errors
}

/// End-to-end run: whole cells through the driver until `seconds` have
/// passed, with a few timed set-ups before the first and after each one.
/// Spreading the set-ups over the run keeps their median from hanging on
/// the machine's state in its first second.
pub fn run_e2e(plan: &Plan, seconds: f64, out: &mut Outcome) {
    let mut setups = Vec::new();
    let started = crate::now();
    let mut runs: Vec<DriverRun> = Vec::new();
    while runs.is_empty() || started.elapsed().as_secs_f64() < seconds {
        drop(crate::time_setups(&mut setups, 1, 0.15, || {
            compose(plan, None)
        }));
        runs.push(driver_run(plan));
    }
    drop(crate::time_setups(&mut setups, 1, 0.15, || {
        compose(plan, None)
    }));
    let mut secs = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        let errors = check_driver_run(run, (i > 0).then(|| &runs[0]));
        out.op(errors);
        secs.push(run.secs);
    }
    eprintln!(
        "cell {}: {} runs in {:.1} s: {:.3?}; {} set-ups",
        plan.cell.id(),
        runs.len(),
        started.elapsed().as_secs_f64(),
        secs,
        setups.len()
    );
    let ms: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
    out.metric("setup_s", median(&setups), Unit::S);
    out.metric("run_s", median(&secs), Unit::S);
    out.metric("op_p50_ms", median(&ms), Unit::Ms);
    out.metric("op_p99_ms", percentile(&ms, 0.99), Unit::Ms);
}

/// The record spans and checked fields of one traced cell.
struct TracedRun {
    run_secs: f64,
    digest: u64,
    records: Vec<Vec<(String, String)>>,
    rounds: Vec<(u64, u64)>,
    evals: Vec<(u64, u64)>,
    run_span: Interval,
    items_scored: u64,
    items_skipped: u64,
    shards_generated: usize,
    interactions_generated: usize,
    rows_materialized: usize,
    participants_touched: usize,
    faults: (usize, usize, usize, usize, usize),
}

fn traced_run(plan: &Plan, tracer: &Arc<Tracer>) -> TracedRun {
    let wall = crate::now();
    let root_start = tracer.now();
    let mut c = compose(plan, Some(tracer));
    let setup_end = tracer.now();
    let root = tracer.span(None, "workload".into(), root_start, root_start);
    tracer.close(Some(root), "setup".into(), root_start, setup_end);

    let mut history = TrainingHistory::new();
    let mut records = Vec::new();
    let mut rounds = Vec::new();
    let mut evals = Vec::new();
    let (mut scored, mut skipped) = (0u64, 0u64);
    let eval_every = plan.cfg.eval_every;
    let epochs = c.epochs;
    let run_start = tracer.now();
    {
        let comp = &c.eval;
        let mut round_start = run_start;
        let records = &mut records;
        let rounds = &mut rounds;
        let evals = &mut evals;
        let (scored, skipped) = (&mut scored, &mut skipped);
        let mut hook = move |snap: &Snapshot<'_>, hist: &mut TrainingHistory| {
            let end = tracer.now();
            tracer.close(Some(root), format!("round{}", snap.epoch), round_start, end);
            rounds.push((round_start, end));
            let done = snap.epoch + 1;
            if eval_every != 0 && done.is_multiple_of(eval_every) && done != epochs {
                let t = tracer.now();
                let (rep, counters) = comp.eval(plan, snap.items, snap.shared, snap.users);
                let e = tracer.now();
                tracer.close(Some(root), format!("eval{done}"), t, e);
                evals.push((t, e));
                *scored += counters.items_scored;
                *skipped += counters.items_skipped;
                records.push(fields(
                    done,
                    snap.loss,
                    &rep,
                    &counters,
                    hist,
                    snap.rows_materialized,
                    snap.participants_touched,
                ));
            }
            round_start = tracer.now();
        };
        c.sim.run_segment(Some(&mut hook), &mut history, epochs);
    }
    let t = tracer.now();
    let (rep, counters) = c
        .eval
        .eval(plan, c.sim.items(), c.sim.shared(), c.sim.user_rows());
    let e = tracer.now();
    tracer.close(Some(root), format!("eval{epochs}"), t, e);
    evals.push((t, e));
    // Construction included, like the driver's own timing.
    let run_secs = wall.elapsed().as_secs_f64();
    scored += counters.items_scored;
    skipped += counters.items_skipped;
    tracer.set_end(root, e);
    records.push(fields(
        epochs,
        history.losses.last().copied().unwrap_or(0.0),
        &rep,
        &counters,
        &history,
        c.sim.rows_materialized(),
        c.sim.participants_touched(),
    ));
    let inner = c.holdout.inner();
    TracedRun {
        run_secs,
        digest: items_digest(c.sim.items()),
        records,
        rounds,
        evals,
        run_span: (run_start, e),
        items_scored: scored,
        items_skipped: skipped,
        shards_generated: inner.shards_generated(),
        interactions_generated: inner.interactions_generated(),
        rows_materialized: c.sim.rows_materialized(),
        participants_touched: c.sim.participants_touched(),
        faults: history.fault_totals(),
    }
}

/// Compare the traced run with the driver's records field by field.
fn check_traced(traced: &TracedRun, driver: &DriverRun) -> Vec<String> {
    let mut errors = Vec::new();
    if traced.digest != driver.digest {
        errors.push(format!(
            "traced items digest {:#x} != driver digest {:#x}",
            traced.digest, driver.digest
        ));
    }
    if traced.records.len() != driver.lines.len() {
        errors.push(format!(
            "traced run evaluated {} times, driver wrote {} records",
            traced.records.len(),
            driver.lines.len()
        ));
    }
    for (fields, line) in traced.records.iter().zip(&driver.lines) {
        let pairs = parse_record(line).unwrap_or_default();
        for (k, v) in fields {
            let want = pairs
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.as_str());
            if want != Some(v.as_str()) {
                errors.push(format!("field {k}: traced {v}, driver {want:?}"));
            }
        }
    }
    if traced.rows_materialized > traced.participants_touched {
        errors.push("traced rows_materialized > participants_touched".into());
    }
    errors
}

/// Traced run: the driver once for the reference, then the traced
/// composition, then the per-layer metrics.
pub fn run_traced(plan: &Plan, trace_path: &std::path::Path, out: &mut Outcome) {
    let driver = driver_run(plan);
    let mut errors = check_driver_run(&driver, None);
    let tracer = Tracer::new();
    let traced = traced_run(plan, &tracer);
    errors.extend(check_traced(&traced, &driver));
    out.op(errors);
    crate::write_trace(trace_path, |w| tracer.write_jsonl(w));

    let ms = |ns: u64| ns as f64 / 1e6;
    let u = |s: Seam| union(tracer.intervals(s));
    let (local, poison, detect, aggregate, data) = (
        u(Seam::LocalRound),
        u(Seam::Poison),
        u(Seam::Detect),
        u(Seam::Aggregate),
        u(Seam::UserItems),
    );
    let busy = |s: Seam| tracer.intervals(s).iter().map(|i| i.1 - i.0).sum::<u64>();
    let rounds = union(traced.rounds.clone());
    let evals = union(traced.evals.clone());
    let run_ns = traced.run_span.1 - traced.run_span.0;
    let eval_ns = measure(&evals);

    // Exclusive time per layer over the run phase: time inside a data call
    // that generated shards is `data`, wherever it was called from
    // (lookups into generated data stay with their caller); a seam's
    // remaining time belongs to the crate implementing it; round time
    // covered by no seam is the round loop itself (`federated`); what is
    // left of the run is the driver between rounds.
    let ex = |set: &[Interval]| measure(set) - overlap(set, &data);
    let model_ns = ex(&local);
    let poison_ns = ex(&poison);
    let defense_ns = ex(&union([detect.clone(), aggregate.clone()].concat()));
    let eval_ex_ns = ex(&evals);
    let data_run_ns = overlap(&data, &[traced.run_span]);
    let children = union(
        [
            local.clone(),
            poison.clone(),
            detect.clone(),
            aggregate.clone(),
            data.clone(),
        ]
        .concat(),
    );
    let round_self_ns = measure(&rounds) - overlap(&rounds, &children);
    let mut share = std::collections::BTreeMap::<&str, u64>::new();
    let model_layer = match plan.cell.model {
        ModelKind::Mf => "federated",
        ModelKind::Ncf => "ncf",
    };
    let eval_layer = match plan.cell.model {
        ModelKind::Mf => "recsys",
        ModelKind::Ncf => "ncf",
    };
    *share.entry(model_layer).or_default() += model_ns;
    *share.entry(attack_layer(plan.cell.attack)).or_default() += poison_ns;
    *share.entry("defense").or_default() += defense_ns;
    *share.entry(eval_layer).or_default() += eval_ex_ns;
    *share.entry("data").or_default() += data_run_ns;
    *share.entry("federated").or_default() += round_self_ns;
    let accounted: u64 = share.values().sum();
    *share.entry("experiments").or_default() += run_ns.saturating_sub(accounted);
    for layer in [
        "core",
        "baselines",
        "defense",
        "recsys",
        "ncf",
        "data",
        "federated",
        "experiments",
    ] {
        let v = share.get(layer).copied().unwrap_or(0);
        out.metric(
            &format!("{layer}.share"),
            v as f64 / run_ns as f64,
            Unit::Ratio,
        );
    }

    let poison_counts = tracer.counts(Seam::Poison);
    let (core, baselines) = match attack_layer(plan.cell.attack) {
        "core" => (true, false),
        "baselines" => (false, true),
        _ => (false, false),
    };
    let pick = |on: bool, v: f64| if on { v } else { 0.0 };
    out.metric(
        "core.poison_ms",
        pick(core, ms(busy(Seam::Poison))),
        Unit::Ms,
    );
    out.metric(
        "core.poison_calls",
        pick(core, poison_counts.calls as f64),
        Unit::Count,
    );
    out.metric(
        "core.poison_uploads",
        pick(core, poison_counts.items as f64),
        Unit::Count,
    );
    out.metric(
        "baselines.poison_ms",
        pick(baselines, ms(busy(Seam::Poison))),
        Unit::Ms,
    );

    let agg = tracer.counts(Seam::Aggregate);
    let det = tracer.counts(Seam::Detect);
    out.metric("defense.aggregate_ms", ms(busy(Seam::Aggregate)), Unit::Ms);
    out.metric("defense.aggregate_inputs", agg.items as f64, Unit::Count);
    out.metric("defense.detect_ms", ms(busy(Seam::Detect)), Unit::Ms);
    out.metric("defense.detect_inspected", det.items as f64, Unit::Count);
    out.metric("defense.detect_flagged", det.flagged as f64, Unit::Count);

    let evals_n = traced.evals.len() as f64;
    let per_us = |n: u64| {
        if eval_ns == 0 {
            0.0
        } else {
            n as f64 / (eval_ns as f64 / 1e3)
        }
    };
    let (mf, ncf) = (
        plan.cell.model == ModelKind::Mf,
        plan.cell.model == ModelKind::Ncf,
    );
    out.metric("recsys.eval_ms", pick(mf, ms(eval_ns)), Unit::Ms);
    out.metric("recsys.eval_calls", pick(mf, evals_n), Unit::Count);
    out.metric(
        "recsys.items_scored",
        pick(mf, traced.items_scored as f64),
        Unit::Count,
    );
    out.metric(
        "recsys.items_skipped",
        pick(mf, traced.items_skipped as f64),
        Unit::Count,
    );
    out.metric(
        "recsys.dots_per_us",
        pick(mf, per_us(traced.items_scored)),
        Unit::PerUs,
    );
    out.metric("ncf.eval_ms", pick(ncf, ms(eval_ns)), Unit::Ms);
    out.metric(
        "ncf.items_scored",
        pick(ncf, traced.items_scored as f64),
        Unit::Count,
    );
    out.metric(
        "ncf.dots_per_us",
        pick(ncf, per_us(traced.items_scored)),
        Unit::PerUs,
    );

    let generating = tracer.counts(Seam::UserItems);
    let (lookups, lookup_ns) = tracer.lookups();
    out.metric(
        "data.user_items_calls",
        (generating.calls + lookups) as f64,
        Unit::Count,
    );
    out.metric(
        "data.user_items_ms",
        ms(busy(Seam::UserItems) + lookup_ns),
        Unit::Ms,
    );
    out.metric(
        "data.shards_generated",
        traced.shards_generated as f64,
        Unit::Count,
    );
    out.metric(
        "data.interactions_generated",
        traced.interactions_generated as f64,
        Unit::Count,
    );

    let round_ms: Vec<f64> = traced.rounds.iter().map(|r| ms(r.1 - r.0)).collect();
    out.metric("federated.round_ms_p50", median(&round_ms), Unit::Ms);
    out.metric(
        "federated.first_round_ms",
        round_ms.first().copied().unwrap_or(0.0),
        Unit::Ms,
    );
    out.metric("federated.self_ms", ms(round_self_ns), Unit::Ms);
    let local_counts = tracer.counts(Seam::LocalRound);
    let local_busy = busy(Seam::LocalRound);
    // Per round, the local-round phase spans the first call's start to
    // the last call's end on `threads` workers; idle is the part of that
    // capacity no call used.
    let window: u64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name.ends_with(".local_round") && s.name.starts_with("round"))
        .map(|s| s.dur())
        .sum();
    let capacity = window as f64 * plan.threads as f64;
    let idle = if capacity > 0.0 {
        1.0 - local_busy as f64 / capacity
    } else {
        0.0
    };
    out.metric("federated.local_round_ms", ms(local_busy), Unit::Ms);
    out.metric(
        "federated.local_round_calls",
        local_counts.calls as f64,
        Unit::Count,
    );
    out.metric(
        "federated.local_round_idle_ratio",
        idle.max(0.0),
        Unit::Ratio,
    );
    out.metric(
        "federated.rows_materialized",
        traced.rows_materialized as f64,
        Unit::Count,
    );
    out.metric(
        "federated.participants_touched",
        traced.participants_touched as f64,
        Unit::Count,
    );
    let (f_dropped, f_late, f_rejected, _, f_skipped) = traced.faults;
    out.metric("federated.fault_dropped", f_dropped as f64, Unit::Count);
    out.metric("federated.fault_late", f_late as f64, Unit::Count);
    out.metric("federated.fault_rejected", f_rejected as f64, Unit::Count);
    out.metric("federated.quorum_skipped", f_skipped as f64, Unit::Count);

    out.metric(
        "experiments.trace_overhead",
        traced.run_secs / driver.secs,
        Unit::Ratio,
    );
    eprintln!(
        "traced cell {}: driver {:.3} s, traced run {:.3} s",
        plan.cell.id(),
        driver.secs,
        traced.run_secs
    );
}
