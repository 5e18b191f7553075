//! The serving workloads: closed loops of waiting callers, driven from
//! one generator thread, into a one-instance [`Fleet`] or straight into a
//! [`Server`].
//!
//! The untraced run serves with one worker thread and measures the
//! end-to-end metrics. The traced run replays the same callers and inputs
//! with the server in pump mode: the runner itself calls admission,
//! `form_batch`, `solve_batch` and `deliver_batch`, recording a span around
//! each, and then re-times the solver and kernels from outside.

use crate::gate::{same_bits, Gate};
use crate::host;
use crate::referent::{Kernel, Normalizer, Part, Referent, Sample, SliceStat};
use crate::report::{self, metric, Metric};
use crate::spans::{Recorder, Span};
use crate::stats::{self, OpSamples};
use crate::streams;
use crate::timing::{checkpoint_states, kernel_times, pool_scaling, KernelTimes};
use enode_hw::config::HwConfig;
use enode_node::inference::{forward_model, ForwardTrace, NodeSolveOptions};
use enode_node::model::NodeModel;
use enode_serve::fleet::VNODES;
use enode_serve::{
    Clock, CostModel, Fleet, FleetConfig, MetricsSnapshot, Priority, Registry, Rejected, Request,
    Response, ServeConfig, Server, TenantBinding, Ticket, ToleranceClass,
};
use enode_tensor::{arena, Tensor};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Relative deadline of every request: far above any host stall, so
/// every request is served at tier 0 and none is shed.
pub const SLA_US: u64 = 60_000_000;
/// Spin-loop hints between two polls of a ticket (about a microsecond).
const POLL_BACKOFF: usize = 64;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// Latency samples kept per run (see [`OpSamples`]): a `serve_dynsys`
/// run keeps one request in 8 to 32, a `serve_image` run every request.
const LATENCY_SAMPLES: usize = 1 << 14;
/// Share of requests whose stage spans must sum to their traced latency
/// within [`stage_tolerance_ns`].
const STAGE_SUM_QUORUM: f64 = 0.99;

/// Allowed gap between a request's traced latency and the sum of its
/// stage spans: the runner's own bookkeeping between calls.
pub fn stage_tolerance_ns(latency_ns: u64) -> u64 {
    20_000 + latency_ns / 50
}

/// One tenant of a serving workload.
#[derive(Clone, Copy, Debug)]
pub struct Tenant {
    /// Tenant name (fleet binding).
    pub name: &'static str,
    /// Tolerance class of every request.
    pub class: ToleranceClass,
    /// Waiting callers.
    pub callers: usize,
}

/// A serving workload.
#[derive(Clone, Copy, Debug)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Route through a one-instance fleet (else straight into a server).
    pub fleet: bool,
    /// Serve the image classifier (else the dynamic-system model).
    pub image: bool,
    /// The tenants and their callers.
    pub tenants: &'static [Tenant],
    /// Distinct seeded inputs per tenant; callers cycle through them.
    pub pool: usize,
    /// Length of one work slice.
    pub slice_ms: u64,
    /// Host-speed referent.
    pub referent: Referent,
}

/// `serve_dynsys`: solver step overhead and the serve layers dominate.
pub const DYNSYS: ServeSpec = ServeSpec {
    name: "serve_dynsys",
    fleet: true,
    image: false,
    tenants: &[
        Tenant {
            name: "standard",
            class: ToleranceClass::Standard,
            callers: 8,
        },
        Tenant {
            name: "strict",
            class: ToleranceClass::Strict,
            callers: 8,
        },
    ],
    pool: 1024,
    slice_ms: 200,
    referent: Referent {
        name: "mlp",
        threads: 2,
        parts: &[Part {
            kernel: Kernel::Mlp { evals: 2000 },
            nominal_us: 500.0,
        }],
    },
};

/// `serve_image`: the fused conv kernels and stepsize search dominate.
pub const IMAGE: ServeSpec = ServeSpec {
    name: "serve_image",
    fleet: false,
    image: true,
    tenants: &[Tenant {
        name: "vision",
        class: ToleranceClass::Standard,
        callers: 16,
    }],
    pool: 256,
    slice_ms: 400,
    referent: Referent {
        name: "conv16",
        threads: 2,
        parts: &[Part {
            kernel: Kernel::Conv { size: 16, reps: 8 },
            nominal_us: 690.0,
        }],
    },
};

impl ServeSpec {
    /// The input caller `caller` sends as its `j`-th request:
    /// `(tenant, pool index)`. Each caller walks its tenant's pool with a
    /// stride of the tenant's caller count, so the stream does not depend
    /// on completion order.
    ///
    /// # Panics
    ///
    /// Panics if `caller` is not below [`ServeSpec::callers`].
    pub fn request_of(&self, caller: usize, j: u64) -> (usize, usize) {
        let mut c = caller;
        for (t, tenant) in self.tenants.iter().enumerate() {
            if c < tenant.callers {
                let idx = (c as u64 + j * tenant.callers as u64) % self.pool as u64;
                return (t, idx as usize);
            }
            c -= tenant.callers;
        }
        panic!("caller {caller} out of range")
    }

    /// Total callers.
    pub fn callers(&self) -> usize {
        self.tenants.iter().map(|t| t.callers).sum()
    }

    /// The served model.
    pub fn model(&self) -> NodeModel {
        if self.image {
            streams::image_model()
        } else {
            streams::dynsys_model()
        }
    }
}

/// Solver options every server is built with; each tier's override sets
/// the tolerance, trial budget and tableau on top.
fn base_options() -> NodeSolveOptions {
    NodeSolveOptions::new(1e-4)
}

/// Everything derived from the seed before any timing: inputs, the
/// expected solo outputs, and the solo traces.
pub struct Prepared {
    /// The workload.
    pub spec: ServeSpec,
    model: NodeModel,
    base: NodeSolveOptions,
    /// `inputs[tenant][i]`.
    inputs: Vec<Vec<Tensor>>,
    /// Solo tier-0 outputs, `expected[tenant][i]`.
    expected: Vec<Vec<Tensor>>,
    /// Solo tier-0 traces of the first few inputs of each tenant.
    traces: Vec<ForwardTrace>,
    /// The seed-independent input of every set-up (tenant 0) and its
    /// expected output.
    setup_input: (Tensor, Tensor),
    /// Exact solver counts per request, weighted by callers.
    pub nfe_per_req: f64,
    /// Stepsize trials per request.
    pub trials_per_req: f64,
    /// Rejected trials per request.
    pub rejected_per_req: f64,
    /// Digest of every tenant's input stream.
    pub stream_digest: u64,
}

/// Traces kept per tenant for the kernel re-timing.
const KEPT_TRACES: usize = 4;

impl Prepared {
    /// Generates the inputs for `seed` and their expected outputs.
    pub fn new(spec: ServeSpec, seed: u64) -> Prepared {
        let model = spec.model();
        let base = base_options();
        let draw = |seed, t: usize, n| {
            if spec.image {
                streams::samples(&streams::images(seed, t as u64, n, 16).0)
            } else {
                streams::dynsys_inputs(seed, t as u64, n)
            }
        };
        let inputs: Vec<Vec<Tensor>> = (0..spec.tenants.len())
            .map(|t| draw(seed, t, spec.pool))
            .collect();
        let setup_opts = solve_opts(&base, spec.tenants[0].class, 0);
        let x = draw(streams::SETUP_SEED, 0, 1).remove(0);
        let (y, _) =
            forward_model(&model, &x, &setup_opts).expect("solo solve of the set-up input");
        let setup_input = (x, y);
        let stream_digest = streams::digest(inputs.iter().flatten());
        let callers: usize = spec.tenants.iter().map(|t| t.callers).sum();
        let (mut nfe, mut trials, mut rejected) = (0.0, 0.0, 0.0);
        let mut expected = Vec::new();
        let mut traces = Vec::new();
        for (t, tenant) in spec.tenants.iter().enumerate() {
            let opts = solve_opts(&base, tenant.class, 0);
            let weight = tenant.callers as f64 / callers as f64 / spec.pool as f64;
            let mut outs = Vec::with_capacity(spec.pool);
            for (i, x) in inputs[t].iter().enumerate() {
                let (y, trace) =
                    forward_model(&model, x, &opts).expect("solo solve of a pool input");
                let s = trace.total_stats();
                nfe += s.nfe as f64 * weight;
                trials += s.trials as f64 * weight;
                rejected += s.rejected as f64 * weight;
                outs.push(y);
                if i < KEPT_TRACES {
                    traces.push(trace);
                }
            }
            expected.push(outs);
        }
        Prepared {
            spec,
            model,
            base,
            inputs,
            expected,
            traces,
            setup_input,
            nfe_per_req: nfe,
            trials_per_req: trials,
            rejected_per_req: rejected,
            stream_digest,
        }
    }

    /// The expected (solo, tier-0) output for the pool input `(tenant, idx)`.
    pub fn expected(&self, tenant: usize, idx: usize) -> &Tensor {
        &self.expected[tenant][idx]
    }

    /// The pool input `(tenant, idx)`.
    pub fn input(&self, tenant: usize, idx: usize) -> &Tensor {
        &self.inputs[tenant][idx]
    }

    /// Checks a served response bit-for-bit against a solo solve of the
    /// same input at the class and tier it was served at.
    pub fn verify(&self, tenant: usize, idx: usize, resp: &Response) -> bool {
        if resp.tier == 0 {
            return same_bits(&resp.output, &self.expected[tenant][idx]);
        }
        let opts = solve_opts(&self.base, self.spec.tenants[tenant].class, resp.tier);
        forward_model(&self.model, &self.inputs[tenant][idx], &opts)
            .is_ok_and(|(y, _)| same_bits(&resp.output, &y))
    }
}

/// The solver options a request of `class` is served with at `tier`.
pub fn solve_opts(base: &NodeSolveOptions, class: ToleranceClass, tier: usize) -> NodeSolveOptions {
    ServeConfig::edge_default().tiers[tier]
        .solve_override(class)
        .apply(base)
}

/// The program under test: a one-instance fleet or a bare server.
pub enum Target {
    /// Requests enter through `Fleet::submit_detached`.
    Fleet(Box<Fleet>),
    /// Requests enter through `Server::submit`.
    Server(Server),
}

/// The fleet deployment of a workload: one instance serving the shipped
/// `edge_default` policy, one tenant binding per workload tenant.
pub fn fleet_config(spec: &ServeSpec) -> FleetConfig {
    let policy = ServeConfig::edge_default();
    let registry = Registry::new();
    registry.publish(policy.name, policy.clone());
    for t in spec.tenants {
        registry.bind(TenantBinding {
            tenant: t.name.to_string(),
            model: policy.name.to_string(),
            class: t.class,
            sla_deadline_us: SLA_US,
            quota: 4 * t.callers,
            rate_rps: 1000.0,
        });
    }
    let snapshot = (*registry.snapshot()).clone();
    FleetConfig {
        name: "perfbench",
        instances: 1,
        vnodes: VNODES,
        hw: HwConfig::config_a(),
        assignment: vec![policy.name.to_string()],
        registry: snapshot,
    }
}

impl Target {
    /// Builds the program: model, then `Fleet::new` or `Server::new` with
    /// `workers` worker threads (0 = pump mode) on a wall clock.
    pub fn build(spec: &ServeSpec, workers: usize) -> Target {
        let model = spec.model();
        let base = base_options();
        if spec.fleet {
            let config = fleet_config(spec);
            let name = ServeConfig::edge_default().name;
            Target::Fleet(Box::new(Fleet::new(
                config,
                &[(name, model)],
                base,
                workers,
                Clock::wall(),
            )))
        } else {
            let mut policy = ServeConfig::edge_default();
            policy.workers = workers;
            Target::Server(Server::new(model, base, policy, Clock::wall()))
        }
    }

    /// The serving instance.
    pub fn server(&self) -> &Server {
        match self {
            Target::Fleet(f) => &f.instances()[0].server,
            Target::Server(s) => s,
        }
    }

    /// Admits one request of `tenant`.
    ///
    /// # Errors
    ///
    /// The program's admission refusal.
    pub fn submit(
        &mut self,
        spec: &ServeSpec,
        tenant: usize,
        input: Tensor,
    ) -> Result<Ticket, Rejected> {
        match self {
            Target::Fleet(f) => f.submit_detached(spec.tenants[tenant].name, input),
            Target::Server(s) => {
                let deadline_us = s.clock().now_us() + SLA_US;
                s.submit(Request {
                    input,
                    deadline_us,
                    tolerance_class: spec.tenants[tenant].class,
                    priority: Priority::Normal,
                })
            }
        }
    }

    /// Shuts the program down and returns its instance's counters and,
    /// for a fleet, the requests the fleet door admitted.
    pub fn close(self) -> (MetricsSnapshot, Option<u64>) {
        match self {
            Target::Fleet(f) => {
                let r = f.finish();
                let door = r.tenants.iter().map(|t| t.submitted).sum();
                (r.instances[0].metrics.clone(), Some(door))
            }
            Target::Server(mut s) => {
                s.shutdown();
                (s.snapshot(), None)
            }
        }
    }
}

/// The runner's own tally of outcomes, reconciled against the program's
/// counters at the end of a run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests the program admitted.
    pub submitted: u64,
    /// Responses received.
    pub completed: u64,
    /// Admitted requests that resolved to an error.
    pub errored: u64,
}

/// Checks the program's counters against the runner's tally.
pub fn reconcile(
    gate: &mut Gate,
    what: &str,
    snap: &MetricsSnapshot,
    door: Option<u64>,
    tally: &Tally,
) {
    gate.require(snap.reconciles(), || {
        format!("{what}: metrics snapshot does not reconcile: {snap:?}")
    });
    gate.require(
        snap.submitted == tally.submitted
            && snap.completed == tally.completed
            && snap.shed + snap.failed + snap.cancelled == tally.errored,
        || format!("{what}: server counters {snap:?} differ from the runner's tally {tally:?}"),
    );
    if let Some(door) = door {
        gate.require(door == tally.submitted, || {
            format!(
                "{what}: fleet admitted {door}, runner counted {}",
                tally.submitted
            )
        });
    }
}

/// Who sent a request, and when.
#[derive(Clone, Copy, Debug)]
struct Meta {
    caller: usize,
    tenant: usize,
    idx: usize,
    t0: Instant,
    /// Admission span (traced run): start and end, ns.
    admit: (u64, u64),
    id: u64,
}

/// One outstanding request of the closed loop.
struct Pending {
    m: Meta,
    ticket: Ticket,
}

/// Outcome of one resolved request.
struct Done {
    m: Meta,
    res: Result<Response, Rejected>,
    taken: Instant,
    taken_us: u64,
}

/// Per-caller request counters (the `j` of [`ServeSpec::request_of`])
/// and the wall time spent inside admission calls.
struct Callers {
    next: Vec<u64>,
    ids: u64,
    admit_ns: u64,
}

impl Callers {
    fn new(n: usize) -> Self {
        Callers {
            next: vec![0; n],
            ids: 0,
            admit_ns: 0,
        }
    }
}

/// Submits caller `caller`'s next request.
fn submit_next(
    prep: &Prepared,
    target: &mut Target,
    callers: &mut Callers,
    caller: usize,
    rec: Option<&Recorder>,
    tally: &mut Tally,
    gate: &mut Gate,
) -> Option<Pending> {
    let j = callers.next[caller];
    callers.next[caller] += 1;
    let (tenant, idx) = prep.spec.request_of(caller, j);
    let input = prep.input(tenant, idx).clone();
    let id = callers.ids;
    callers.ids += 1;
    let a0 = rec.map_or(0, Recorder::now);
    let t0 = Instant::now();
    let res = target.submit(&prep.spec, tenant, input);
    callers.admit_ns += t0.elapsed().as_nanos() as u64;
    let a1 = rec.map_or(0, Recorder::now);
    match res {
        Ok(ticket) => {
            tally.submitted += 1;
            Some(Pending {
                m: Meta {
                    caller,
                    tenant,
                    idx,
                    t0,
                    admit: (a0, a1),
                    id,
                },
                ticket,
            })
        }
        Err(e) => {
            gate.fail(format!("request {id} refused at admission: {e}"));
            None
        }
    }
}

/// Takes every already-resolved request out of `outstanding`.
fn sweep(outstanding: &mut VecDeque<Pending>, clock: &Clock, done: &mut Vec<Done>) {
    let mut i = 0;
    while i < outstanding.len() {
        if let Some(res) = outstanding[i].ticket.try_take() {
            let taken = Instant::now();
            let taken_us = clock.now_us();
            let p = outstanding.remove(i).expect("index in range");
            done.push(Done {
                m: p.m,
                res,
                taken,
                taken_us,
            });
        } else {
            i += 1;
        }
    }
}

/// Records a resolved request in the gate and tally; returns the
/// response if it verified.
fn settle<'a>(
    prep: &Prepared,
    d: &'a Done,
    tally: &mut Tally,
    gate: &mut Gate,
) -> Option<&'a Response> {
    match &d.res {
        Ok(resp) => {
            tally.completed += 1;
            if prep.verify(d.m.tenant, d.m.idx, resp) {
                gate.pass();
                Some(resp)
            } else {
                gate.fail(format!(
                    "request {} (tenant {}, input {}, tier {}): output differs from the solo solve",
                    d.m.id, d.m.tenant, d.m.idx, resp.tier
                ));
                None
            }
        }
        Err(e) => {
            tally.errored += 1;
            gate.fail(format!("request {} failed: {e}", d.m.id));
            None
        }
    }
}

/// Set-up, repeated, each after its own referent observation: model
/// build, `Fleet::new` or `Server::new`, and the first cold request.
/// The program is built in pump mode and the runner pumps the request
/// through `form_batch(true)`, `solve_batch` and `deliver_batch`: a
/// worker would hold a lone request for the whole batch window, and its
/// wake-up would add the host's latency, neither of which is set-up.
///
/// Set-up runs on one thread while the other CPU idles, so it has a
/// normalizer of its own, fed by the workload's referent on one thread.
/// Returns the raw set-up times (s) with their slices, and that
/// normalizer.
fn setup(prep: &Prepared, gate: &mut Gate) -> (Vec<Sample>, Normalizer) {
    let referent = prep.spec.referent.on_one_thread();
    let mut norm = Normalizer::new(&referent);
    let mut times = Vec::with_capacity(SETUP_REPS);
    let (input, expected) = &prep.setup_input;
    for _ in 0..SETUP_REPS {
        let slice = norm.begin_slice(&referent) as u32;
        let t0 = Instant::now();
        let mut target = Target::build(&prep.spec, 0);
        let res = target.submit(&prep.spec, 0, input.clone()).map(|ticket| {
            let server = target.server();
            if let Some(batch) = server.form_batch(true) {
                server.deliver_batch(server.solve_batch(batch));
            }
            ticket.try_take()
        });
        times.push((slice, t0.elapsed().as_secs_f32()));
        let mut tally = Tally::default();
        match res {
            Ok(Some(Ok(resp))) => {
                tally.submitted += 1;
                tally.completed += 1;
                if resp.tier == 0 && same_bits(&resp.output, expected) {
                    gate.pass();
                } else {
                    gate.fail("cold request: output differs from the solo solve".into());
                }
            }
            Ok(Some(Err(e))) => {
                tally.submitted += 1;
                tally.errored += 1;
                gate.fail(format!("cold request failed: {e}"));
            }
            Ok(None) => {
                tally.submitted += 1;
                gate.fail("cold request unresolved after pumping".into());
            }
            Err(e) => gate.fail(format!("cold request refused: {e}")),
        }
        let (snap, door) = target.close();
        reconcile(gate, "set-up", &snap, door, &tally);
    }
    (times, norm)
}

/// Results of the untraced closed loop.
#[derive(Debug)]
pub struct Untraced {
    /// Raw latency (ns) of each verified request.
    pub latencies: OpSamples,
    /// `(slice, raw ns)` from `Response::completed_us` (a whole µs) to
    /// the caller, collected only for a traced run.
    pub handoffs: Vec<Sample>,
    /// The work slices.
    pub slices: Vec<SliceStat>,
    /// Raw set-up times (s).
    pub setup: Vec<Sample>,
    /// Normalizer of the set-up times.
    pub setup_norm: Normalizer,
}

/// Runs the untraced closed loop with one worker thread for `seconds`,
/// after the set-ups. Collects handoff times if `handoffs` is set.
///
/// The generator polls its oldest ticket instead of blocking on it: the
/// oldest outstanding request is always in the batch delivered next, and
/// a blocked generator would add the host's wake-up latency of an idle
/// CPU (up to milliseconds on this VM) to every batch. Its CPU time is
/// therefore not the program's: `cpu_ms_per_op` counts the other threads
/// plus the generator's time inside admission calls.
pub fn run_untraced(
    prep: &Prepared,
    norm: &mut Normalizer,
    seconds: f64,
    handoffs: bool,
    gate: &mut Gate,
) -> Untraced {
    let (setup, setup_norm) = setup(prep, gate);
    let mut out = Untraced {
        latencies: OpSamples::new(LATENCY_SAMPLES),
        handoffs: Vec::new(),
        slices: Vec::new(),
        setup,
        setup_norm,
    };
    let mut tally = Tally::default();
    let mut target = Target::build(&prep.spec, 1);
    let clock = target.server().clock().clone();
    let mut callers = Callers::new(prep.spec.callers());
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < end {
        let slice = norm.begin_slice(&prep.spec.referent);
        out.latencies.begin_slice(slice);
        let slice_end = Instant::now() + Duration::from_millis(prep.spec.slice_ms);
        let (cpu0, own0, admit0) = (host::cpu_ns(), host::thread_cpu_ns(), callers.admit_ns);
        let start = Instant::now();
        let mut outstanding = VecDeque::new();
        for c in 0..prep.spec.callers() {
            outstanding.extend(submit_next(
                prep,
                &mut target,
                &mut callers,
                c,
                None,
                &mut tally,
                gate,
            ));
        }
        let (mut ok, mut last) = (0, start);
        while let Some(front) = outstanding.pop_front() {
            let res = loop {
                if let Some(res) = front.ticket.try_take() {
                    break res;
                }
                // Back off between polls so the poll does not keep the
                // ticket's lock away from the delivering worker.
                for _ in 0..POLL_BACKOFF {
                    std::hint::spin_loop();
                }
            };
            let mut done = vec![Done {
                m: front.m,
                res,
                taken: Instant::now(),
                taken_us: clock.now_us(),
            }];
            sweep(&mut outstanding, &clock, &mut done);
            let resubmit = Instant::now() < slice_end;
            for d in &done {
                last = last.max(d.taken);
                if let Some(resp) = settle(prep, d, &mut tally, gate) {
                    ok += 1;
                    out.latencies
                        .push(d.taken.duration_since(d.m.t0).as_nanos() as u64);
                    if handoffs {
                        let handoff_us = d.taken_us.saturating_sub(resp.completed_us);
                        out.handoffs.push((slice as u32, handoff_us as f32 * 1e3));
                    }
                }
                if resubmit {
                    outstanding.extend(submit_next(
                        prep,
                        &mut target,
                        &mut callers,
                        d.m.caller,
                        None,
                        &mut tally,
                        gate,
                    ));
                }
            }
        }
        let others =
            host::cpu_ns().saturating_sub(cpu0) - host::thread_cpu_ns().saturating_sub(own0);
        out.slices.push(SliceStat {
            slice,
            ops: ok,
            wall_ns: last.duration_since(start).as_nanos() as f64,
            cpu_ns: (others + (callers.admit_ns - admit0)) as f64,
        });
    }
    let (snap, door) = target.close();
    reconcile(gate, "untraced run", &snap, door, &tally);
    out
}

/// One batch of the traced run.
#[derive(Clone, Debug)]
pub struct BatchRec {
    /// Normalization slice.
    pub slice: usize,
    /// Raw `solve_batch` time (ns).
    pub solve_ns: f64,
    /// `SolvedBatch::per_sample_nfe`.
    pub nfe: Vec<u64>,
    /// Verified members: `(tenant, pool index, tier)`.
    pub members: Vec<(usize, usize, usize)>,
    /// Requests in the batch.
    pub len: usize,
}

/// Results of the traced pump-mode run.
#[derive(Debug, Default)]
pub struct Traced {
    /// Every span.
    pub rec: Recorder,
    /// Every batch.
    pub batches: Vec<BatchRec>,
    /// The work slices.
    pub slices: Vec<SliceStat>,
    /// `(slice, raw ns)` per admission call.
    pub admit: Vec<Sample>,
    /// `(slice, raw ns)` per batch-forming `form_batch` call.
    pub form: Vec<Sample>,
    /// `(slice, raw ns)` per `deliver_batch` call.
    pub deliver: Vec<Sample>,
    /// `(slice, raw ns)` from admission to batch formed, per request.
    pub queue_wait: Vec<Sample>,
    /// `(slice, raw ns)` per direct `Server::submit` (fleet workloads).
    pub direct_submit: Vec<Sample>,
    /// Requests whose stage spans sum to their latency within tolerance.
    pub stage_ok: u64,
    /// Requests checked for the stage sum.
    pub stage_total: u64,
    /// Largest stage-sum gap seen (ns).
    pub stage_max_gap_ns: u64,
    /// Arena high-water mark of the pumping thread (KB).
    pub arena_high_water_kb: f64,
    /// Arena checkouts per served request on the pumping thread.
    pub arena_checkouts_per_op: f64,
}

/// Runs the traced closed loop in pump mode for `seconds`, then times
/// `Server::submit` directly on the fleet's instance.
pub fn run_traced(prep: &Prepared, norm: &mut Normalizer, seconds: f64, gate: &mut Gate) -> Traced {
    let spec = &prep.spec;
    let admit_name = if spec.fleet {
        "fleet.submit_detached"
    } else {
        "server.submit"
    };
    let mut out = Traced::default();
    let mut target = Target::build(spec, 0);
    let clock = target.server().clock().clone();
    let mut tally = Tally::default();
    let mut callers = Callers::new(prep.spec.callers());
    let arena0 = arena::stats();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < end {
        let slice = norm.begin_slice(&spec.referent);
        let slice_end = Instant::now() + Duration::from_millis(spec.slice_ms);
        let cpu0 = host::cpu_ns();
        let start = Instant::now();
        let mut outstanding = VecDeque::new();
        for c in 0..prep.spec.callers() {
            let rec = Some(&out.rec);
            outstanding.extend(submit_next(
                prep,
                &mut target,
                &mut callers,
                c,
                rec,
                &mut tally,
                gate,
            ));
        }
        let (mut ok, mut last) = (0, start);
        while !outstanding.is_empty() {
            let f0 = out.rec.now();
            let server = target.server();
            let batch = server.form_batch(false).or_else(|| server.form_batch(true));
            let f1 = out.rec.now();
            let Some(batch) = batch else {
                gate.fail(format!(
                    "form_batch formed nothing with {} requests queued",
                    outstanding.len()
                ));
                break;
            };
            let len = batch.len();
            let s0 = out.rec.now();
            let solved = server.solve_batch(batch);
            let s1 = out.rec.now();
            let nfe = solved.per_sample_nfe().to_vec();
            let d0 = out.rec.now();
            server.deliver_batch(solved);
            let d1 = out.rec.now();
            out.form.push((slice as u32, (f1 - f0) as f32));
            out.deliver.push((slice as u32, (d1 - d0) as f32));
            let mut done = Vec::new();
            sweep(&mut outstanding, &clock, &mut done);
            gate.require(done.len() == len, || {
                format!("a batch of {len} resolved {} tickets", done.len())
            });
            let resubmit = Instant::now() < slice_end;
            let mut members = Vec::with_capacity(len);
            for d in &done {
                last = last.max(d.taken);
                let (a0, a1) = d.m.admit;
                let take = out.rec.at(d.taken);
                let id = d.m.id;
                let span = |name, parent, start_ns, end_ns, wait| Span {
                    id,
                    name,
                    parent,
                    start_ns,
                    end_ns,
                    wait,
                    slice,
                };
                let root = out.rec.push(span("request", None, a0, take, false));
                for (name, s, e, wait) in [
                    (admit_name, a0, a1, false),
                    ("server.queue_wait", a1, f0, true),
                    ("server.form_batch", f0, f1, false),
                    ("server.solve_batch", s0, s1, false),
                    ("server.deliver_batch", d0, d1, false),
                ] {
                    out.rec.push(span(name, Some(root), s, e, wait));
                }
                let latency = take - a0;
                let stages = (a1 - a0) + (f0 - a1) + (f1 - f0) + (s1 - s0) + (d1 - d0);
                let gap = latency.saturating_sub(stages);
                out.stage_total += 1;
                out.stage_ok += u64::from(gap <= stage_tolerance_ns(latency));
                out.stage_max_gap_ns = out.stage_max_gap_ns.max(gap);
                out.admit.push((slice as u32, (a1 - a0) as f32));
                out.queue_wait.push((slice as u32, (f1 - a1) as f32));
                if let Some(resp) = settle(prep, d, &mut tally, gate) {
                    ok += 1;
                    members.push((d.m.tenant, d.m.idx, resp.tier));
                }
                if resubmit {
                    let rec = Some(&out.rec);
                    outstanding.extend(submit_next(
                        prep,
                        &mut target,
                        &mut callers,
                        d.m.caller,
                        rec,
                        &mut tally,
                        gate,
                    ));
                }
            }
            out.batches.push(BatchRec {
                slice,
                solve_ns: (s1 - s0) as f64,
                nfe,
                members,
                len,
            });
        }
        out.slices.push(SliceStat {
            slice,
            ops: ok,
            wall_ns: last.duration_since(start).as_nanos() as f64,
            cpu_ns: host::cpu_ns().saturating_sub(cpu0) as f64,
        });
    }
    let arena1 = arena::stats();
    let ops: u64 = out.slices.iter().map(|s| s.ops).sum();
    out.arena_high_water_kb = arena1.high_water_elems as f64 * 4.0 / 1024.0;
    out.arena_checkouts_per_op =
        (arena1.total_checkouts - arena0.total_checkouts) as f64 / ops.max(1) as f64;
    if spec.fleet {
        direct_submits(prep, &mut target, norm, &mut out, &mut tally, gate);
    }
    gate.require(
        out.stage_ok as f64 >= STAGE_SUM_QUORUM * out.stage_total as f64,
        || {
            format!(
                "only {} of {} traced requests have stage spans summing to their latency",
                out.stage_ok, out.stage_total
            )
        },
    );
    if let Err(e) = out.rec.check_nesting() {
        gate.require(false, || e);
    }
    let (snap, door) = target.close();
    let door = door.map(|d| d + out.direct_submit.len() as u64);
    reconcile(gate, "traced run", &snap, door, &tally);
    out
}

/// Rounds of direct submits; the first touches cold caches after the
/// referent, so several keep the mean comparable to the traced loop.
const DIRECT_ROUNDS: u64 = 16;

/// Times `Server::submit` directly on the fleet's instance (the part of
/// fleet admission below routing) for every caller, [`DIRECT_ROUNDS`]
/// times, pumping each round's requests through and checking them.
fn direct_submits(
    prep: &Prepared,
    target: &mut Target,
    norm: &mut Normalizer,
    out: &mut Traced,
    tally: &mut Tally,
    gate: &mut Gate,
) {
    let slice = norm.begin_slice(&prep.spec.referent) as u32;
    let server = target.server();
    for round in 0..DIRECT_ROUNDS {
        let mut pending = Vec::new();
        for caller in 0..prep.spec.callers() {
            let (tenant, idx) = prep.spec.request_of(caller, round);
            let request = Request {
                input: prep.input(tenant, idx).clone(),
                deadline_us: server.clock().now_us() + SLA_US,
                tolerance_class: prep.spec.tenants[tenant].class,
                priority: Priority::Normal,
            };
            let t0 = Instant::now();
            let res = server.submit(request);
            out.direct_submit
                .push((slice, t0.elapsed().as_nanos() as f32));
            match res {
                Ok(ticket) => {
                    tally.submitted += 1;
                    pending.push((tenant, idx, ticket));
                }
                Err(e) => gate.fail(format!("direct submit refused: {e}")),
            }
        }
        while let Some(batch) = server.form_batch(true) {
            let solved = server.solve_batch(batch);
            server.deliver_batch(solved);
        }
        for (tenant, idx, ticket) in pending {
            let Some(res) = ticket.try_take() else {
                gate.fail("direct submit left unresolved after pumping".into());
                continue;
            };
            match res {
                Ok(resp) => {
                    tally.completed += 1;
                    if prep.verify(tenant, idx, &resp) {
                        gate.pass();
                    } else {
                        gate.fail("direct submit: output differs from the solo solve".into());
                    }
                }
                Err(e) => {
                    tally.errored += 1;
                    gate.fail(format!("direct submit failed: {e}"));
                }
            }
        }
    }
}

/// The layer-profile pass: solo solves of traced batches, kernels on
/// checkpoint states, and pool-width scaling.
#[derive(Clone, Copy, Debug, Default)]
pub struct Profile {
    /// Normalized solo `forward_model` ns per request.
    pub solo_ns: f64,
    /// `(solve_batch − Σ solo) / solve_batch` over the profiled batches.
    pub fanout_share: f64,
    /// Normalized kernel times (ns per evaluation).
    pub kernels: KernelTimes,
    /// Solo solve time at pool width 1 over width 2.
    pub scaling: f64,
}

/// Runs the layer-profile pass for about `seconds`.
pub fn profile(prep: &Prepared, traced: &Traced, norm: &mut Normalizer, seconds: f64) -> Profile {
    let spec = &prep.spec;
    let end = Instant::now() + Duration::from_secs_f64(seconds * 0.6);
    let (mut solve, mut solo, mut reqs) = (0.0, 0.0, 0usize);
    let mut batches = traced.batches.iter().filter(|b| b.members.len() == b.len);
    while Instant::now() < end {
        let slice = norm.begin_slice(&spec.referent);
        let slice_end = Instant::now() + Duration::from_millis(spec.slice_ms);
        while Instant::now() < slice_end {
            let Some(b) = batches.next() else { break };
            let mut raw = 0.0;
            for &(t, idx, tier) in &b.members {
                let opts = solve_opts(&prep.base, spec.tenants[t].class, tier);
                let x = prep.input(t, idx);
                let t0 = Instant::now();
                black_box(forward_model(&prep.model, x, &opts).ok());
                raw += t0.elapsed().as_nanos() as f64;
            }
            solve += norm.norm(b.slice, b.solve_ns);
            solo += norm.norm(slice, raw);
            reqs += b.len;
        }
        if batches.clone().next().is_none() {
            break;
        }
    }
    let states = checkpoint_states(&prep.traces);
    let slice = norm.begin_slice(&spec.referent);
    let k = kernel_times(&prep.model, &states, 40.0);
    let kernels = KernelTimes {
        f_eval: norm.norm(slice, k.f_eval),
        dense: norm.norm(slice, k.dense),
        conv_fused: norm.norm(slice, k.conv_fused),
    };
    let xs: Vec<&Tensor> = (0..8).map(|i| prep.input(0, i % spec.pool)).collect();
    let opts = solve_opts(&prep.base, spec.tenants[0].class, 0);
    let scaling = pool_scaling(|| {
        for x in &xs {
            black_box(forward_model(&prep.model, x, &opts).ok());
        }
    });
    Profile {
        solo_ns: solo / reqs.max(1) as f64,
        fanout_share: if solve > 0.0 {
            (solve - solo) / solve
        } else {
            0.0
        },
        kernels,
        scaling,
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(
    u: &mut Untraced,
    norm: &Normalizer,
    ok_share: f64,
) -> Result<Vec<Metric>, String> {
    stats::print_percentiles("latency raw", u.latencies.sorted(|_| 1.0), 1e6, "ms");
    let lat = u.latencies.sorted(|s| norm.factor(s));
    stats::print_percentiles("latency normalized", lat, 1e6, "ms");
    let p50 = stats::percentile(lat, 50)? as f64 / 1e6;
    let p75 = stats::percentile(lat, 75)? as f64 / 1e6;
    report::print_memory(&u.latencies);
    Ok(vec![
        metric(
            "setup_s",
            "s",
            stats::median(&u.setup_norm.norm_all(&u.setup)),
        ),
        metric("throughput_per_s", "1/s", norm.throughput(&u.slices)),
        metric("latency_p50_ms", "ms", p50),
        metric("latency_p75_ms", "ms", p75),
        metric("ok_share", "share", ok_share),
        metric("cpu_ms_per_op", "ms", norm.cpu_ms_per_op(&u.slices)),
        metric("peak_rss_mb", "MB", host::peak_rss_mb()),
    ])
}

/// The per-layer metrics of a traced run (with its untraced reference).
pub fn per_layer(
    prep: &Prepared,
    u: &Untraced,
    t: &Traced,
    p: &Profile,
    norm: &Normalizer,
) -> BTreeMap<&'static str, f64> {
    let mean_us = |v: &[Sample]| stats::mean(&norm.norm_all(v)) / 1e3;
    let traced_wall: f64 = t.slices.iter().map(|s| s.wall_ns).sum();
    let span_sum = |v: &[Sample]| v.iter().map(|s| f64::from(s.1)).sum::<f64>();
    let overhead = span_sum(&t.admit) + span_sum(&t.form) + span_sum(&t.deliver);
    let reqs: usize = t.batches.iter().map(|b| b.len).sum();
    let solve_ns: f64 = t
        .batches
        .iter()
        .map(|b| norm.norm(b.slice, b.solve_ns))
        .sum();
    let cost = CostModel {
        per_nfe_us: 20.0,
        dispatch_overhead_us: 150,
        lanes: 1,
    };
    let modeled_us: f64 = t
        .batches
        .iter()
        .map(|b| cost.service_us(&b.nfe) as f64)
        .sum();
    let mut m = BTreeMap::new();
    if prep.spec.fleet {
        m.insert("fleet.admit_us", mean_us(&t.admit));
        m.insert("server.submit_us", mean_us(&t.direct_submit));
    } else {
        m.insert("server.submit_us", mean_us(&t.admit));
    }
    m.insert("server.form_batch_us", mean_us(&t.form));
    m.insert("server.deliver_us", mean_us(&t.deliver));
    let qw = norm.norm_sorted(&t.queue_wait);
    m.insert(
        "server.queue_wait_ms",
        stats::percentile(&qw, 50).unwrap_or(0) as f64 / 1e6,
    );
    m.insert(
        "server.batch_size_mean",
        reqs as f64 / t.batches.len().max(1) as f64,
    );
    m.insert("server.overhead_share", overhead / traced_wall);
    let ho = norm.norm_sorted(&u.handoffs);
    m.insert(
        "request.handoff_us",
        stats::percentile(&ho, 50).unwrap_or(0) as f64 / 1e3,
    );
    m.insert("node.solve_us_per_req", solve_ns / reqs.max(1) as f64 / 1e3);
    m.insert("node.fanout_share", p.fanout_share);
    m.insert("node.nfe_per_req", prep.nfe_per_req);
    m.insert("node.trials_per_req", prep.trials_per_req);
    m.insert("node.rejected_per_req", prep.rejected_per_req);
    m.insert(
        "ode.self_share",
        1.0 - prep.nfe_per_req * p.kernels.f_eval / p.solo_ns,
    );
    m.insert("tensor.f_eval_us", p.kernels.f_eval / 1e3);
    m.insert("tensor.dense_us", p.kernels.dense / 1e3);
    m.insert("tensor.conv_fused_us", p.kernels.conv_fused / 1e3);
    m.insert("parallel.scaling", p.scaling);
    m.insert("arena.high_water_kb", t.arena_high_water_kb);
    m.insert("arena.checkouts_per_op", t.arena_checkouts_per_op);
    m.insert("model.costmodel_ratio", modeled_us * 1e3 / solve_ns);
    m.insert(
        "trace.overhead_share",
        1.0 - norm.throughput(&t.slices) / norm.throughput(&u.slices),
    );
    m
}
