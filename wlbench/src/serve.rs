//! `serve_mixed`: a `tenet_router::Router` over two `tenet_server::Server`
//! workers on loopback (the `tenet route` + `tenet serve` topology, in
//! this process), loaded in a closed loop over two keep-alive connections.
//! About 95% of requests repeat a hot set warmed during set-up; about 5%
//! are problems never seen before (kernel shape × Table III dataflow ×
//! interconnect × reuse window).

use crate::common::{
    block_rate, mean, median, ms, peak_rss_mb, per_second_quantile, quantile, repeated_setup,
    sorted, steal_ticks, Rng, RunReport, SeqHash,
};
use crate::layers::{put_absent, CoreTrace, IslCounts, DSE_METRICS};
use crate::oracle::{dataflow_key, Expected, Observed};
use crate::Args;
use std::collections::{BTreeMap, HashSet};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tenet_core::json::Json;
use tenet_core::{isl_cache, ArchSpec, CountStats, Dataflow, Interconnect, TensorOp};
use tenet_frontend::{parse_problem, problem_to_text, Problem};
use tenet_router::{Router, RouterConfig, SpawnedRouter};
use tenet_server::http::ResponseReader;
use tenet_server::{
    canonical_key, canonical_request, Server, ServerConfig, SpawnedServer, WorkerCore,
};
use tenet_workloads::{dataflows, kernels};

/// Client threads and connections (the box's core count).
const CLIENTS: u64 = 2;
/// Percent of requests that are never-seen problems.
const FRESH_PERCENT: u64 = 5;
const HOT_ANALYZE: usize = 32;
const HOT_DSE: usize = 4;
/// The seed of the hot set. It is the same for every run, so set-up time
/// does not depend on `--seed`; the seed picks the order of the repeats
/// and the never-seen problems.
const HOT_SET_SEED: u64 = 0;
/// Requests each client sends even when the window is shorter: the run's
/// deterministic unit. Their bodies are fingerprinted for the determinism
/// check, and every never-seen problem among them is checked against the
/// simulator, so a seed's verdict does not depend on how many requests a
/// run manages to send.
const UNIT_REQUESTS: u64 = 3500;
/// Never-seen problems analysed phase by phase for the `core.*` metrics.
const CORE_PROBE: usize = 40;
/// Requests replayed in-process for the `server.worker.*` metrics.
const WORKER_REPLAY: usize = 2000;
/// In the traced run, every this many requests per client also fetch
/// their cross-tier timeline for the `server.phase.*` metrics.
const TRACE_SAMPLE_EVERY: u64 = 8;
/// Draws a client makes for one never-seen problem before giving up.
const FRESH_DRAWS: u32 = 100_000;

const INTERCONNECTS: [Interconnect; 6] = [
    Interconnect::Systolic1D,
    Interconnect::Systolic2D,
    Interconnect::Mesh,
    Interconnect::Multicast { radius: 1 },
    Interconnect::Multicast { radius: 2 },
    Interconnect::Multicast { radius: 3 },
];

/// One analyze problem: a Table III dataflow (by index into
/// [`table3_dataflows`]) on a kernel shape, interconnect and window.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Spec {
    df: usize,
    dims: [i64; 4],
    ic: usize,
    window: u32,
}

/// (kernel index, dataflow) for the twenty Table III dataflows, tiled for
/// a 4×4 (or 16-wide) array to suit the small fresh shapes.
fn table3_dataflows() -> Vec<(usize, Dataflow)> {
    let groups = [
        dataflows::gemm_dataflows(4, 16),
        dataflows::conv_dataflows(4, 16),
        dataflows::mttkrp_dataflows(4),
        dataflows::jacobi_dataflows(4, 16),
        dataflows::mmc_dataflows(4),
    ];
    groups
        .into_iter()
        .enumerate()
        .flat_map(|(k, dfs)| dfs.into_iter().map(move |df| (k, df)))
        .collect()
}

fn spec_hash(s: &Spec) -> u64 {
    let mut h = SeqHash::default();
    h.add(format!("{s:?}").as_bytes());
    u64::from_str_radix(&h.hex(), 16).expect("hex")
}

/// The dedup key of an analyze request body: no two never-seen problems,
/// and no never-seen problem and hot request, may share it.
fn analyze_key(body: &str) -> u64 {
    canonical_key(&canonical_request("POST", "/v1/analyze", body.as_bytes()))
}

struct Inputs {
    dfs: Vec<(usize, Dataflow)>,
}

impl Inputs {
    /// Draws a problem. Every extent a dataflow tiles is a multiple of the
    /// 4-wide tile and at most the 16-wide one: the model's volumes are
    /// wrong when a partial tile leaves unexecuted time-stamps inside a
    /// skewed schedule (see README, Findings). The dimensions its kernel
    /// does not read are zero, so distinct specs build distinct bodies.
    fn draw(&self, rng: &mut Rng) -> Spec {
        let mut s = Spec {
            df: rng.below(self.dfs.len() as u64) as usize,
            dims: [
                4 * rng.range(1, 3),
                4 * rng.range(1, 3),
                4 * rng.range(1, 3),
                4 * rng.range(1, 2),
            ],
            ic: rng.below(INTERCONNECTS.len() as u64) as usize,
            window: 1 + rng.below(3) as u32,
        };
        let used = match self.dfs[s.df].0 {
            0 => [true, true, true, false],
            1 => [true, true, false, true],
            3 => [true, false, false, false],
            _ => [true; 4],
        };
        for (d, used) in s.dims.iter_mut().zip(used) {
            if !used {
                *d = 0;
            }
        }
        s
    }

    fn op(&self, s: &Spec) -> tenet_core::Result<TensorOp> {
        let [a, b, c, d] = s.dims;
        match self.dfs[s.df].0 {
            0 => kernels::gemm(a + 4, b + 4, c + 4),
            1 => kernels::conv2d(a, b, d, d, 3, 3),
            2 => kernels::mttkrp(a, b, c, d),
            3 => kernels::jacobi2d(a + 6),
            _ => kernels::mmc(a, b, c, d),
        }
    }

    fn build(&self, s: &Spec) -> tenet_core::Result<(TensorOp, Dataflow, ArchSpec)> {
        let op = self.op(s)?;
        let df = self.dfs[s.df].1.clone();
        let arch = tenet_bench::arch_for(&df, &op, INTERCONNECTS[s.ic].clone(), 16.0)?;
        Ok((op, df, arch))
    }

    fn body(&self, s: &Spec) -> tenet_core::Result<String> {
        let (op, df, arch) = self.build(s)?;
        let text = problem_to_text(&Problem {
            kernel: op,
            dataflows: vec![df],
            arch: Some(arch),
        });
        Ok(Json::obj([
            ("problem", Json::from(text)),
            ("window", Json::from(u64::from(s.window))),
        ])
        .to_string())
    }
}

fn gemm_text(n: i64) -> String {
    format!(
        "for (i = 0; i < {n}; i++)\n  for (j = 0; j < {n}; j++)\n    for (k = 0; k < {n}; k++)\n      \
         S: Y[i][j] += A[i][k] * B[k][j];\n\n{{ S[i,j,k] -> (PE[i % 4, j % 4] | T[floor(i/4), floor(j/4), i % 4 + j % 4 + k]) }}\n\n\
         arch \"4x4\" {{ array = [4, 4] interconnect = systolic2d bandwidth = 8 }}\n"
    )
}

enum Shot {
    Hot(usize),
    /// A never-seen problem, its request body and the body's dedup key.
    Fresh(Spec, Arc<String>, u64),
}

/// A client's seeded request decisions. Never-seen problems are split
/// between the clients by spec, and no request body's dedup key is sent
/// twice or shared with the hot set.
struct Sequence<'a> {
    rng: Rng,
    client: u64,
    inputs: &'a Inputs,
    n_hot: usize,
    seen: HashSet<u64>,
}

impl<'a> Sequence<'a> {
    fn new(
        seed: u64,
        client: u64,
        inputs: &'a Inputs,
        n_hot: usize,
        hot_keys: &HashSet<u64>,
    ) -> Sequence<'a> {
        Sequence {
            rng: Rng::new(seed, 20 + client),
            client,
            inputs,
            n_hot,
            seen: hot_keys.clone(),
        }
    }

    fn next_shot(&mut self) -> Result<Shot, String> {
        if self.rng.below(100) >= FRESH_PERCENT {
            return Ok(Shot::Hot(self.rng.below(self.n_hot as u64) as usize));
        }
        // About 12000 distinct problems, split between the clients; a 20 s run
        // sends 4000 to 5000 of them. Failing beats spinning once they run
        // out.
        for _ in 0..FRESH_DRAWS {
            let s = self.inputs.draw(&mut self.rng);
            if spec_hash(&s) % CLIENTS != self.client {
                continue;
            }
            let body = self
                .inputs
                .body(&s)
                .map_err(|e| format!("fresh input {s:?}: {e}"))?;
            let key = analyze_key(&body);
            if self.seen.insert(key) {
                return Ok(Shot::Fresh(s, Arc::new(body), key));
            }
        }
        Err(format!(
            "no never-seen problem left after {FRESH_DRAWS} draws"
        ))
    }
}

/// The self-hosted tier; dropping it shuts every server down and joins
/// its threads.
struct Cluster {
    router: Option<SpawnedRouter>,
    workers: Vec<SpawnedServer>,
    addr: String,
}

impl Cluster {
    /// Two default workers behind a default router. Workers get the
    /// documented headroom of two threads over the router's per-worker
    /// connection pool, so parked keep-alive sockets never starve probes.
    fn boot() -> std::io::Result<Cluster> {
        let base = RouterConfig::default();
        let workers: Vec<SpawnedServer> = (0..2)
            .map(|_| {
                Server::spawn(ServerConfig {
                    addr: "127.0.0.1:0".into(),
                    threads: base.upstream_connections + 2,
                    ..Default::default()
                })
            })
            .collect::<std::io::Result<_>>()?;
        let router = Router::spawn(RouterConfig {
            addr: "127.0.0.1:0".into(),
            workers: workers.iter().map(|w| w.addr().to_string()).collect(),
            ..base
        })?;
        let addr = router.addr().to_string();
        Ok(Cluster {
            router: Some(router),
            workers,
            addr,
        })
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Some(r) = self.router.take() {
            let _ = r.shutdown_and_join();
        }
        for w in self.workers.drain(..) {
            let _ = w.shutdown_and_join();
        }
    }
}

struct Conn {
    stream: TcpStream,
    reader: ResponseReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        let reader = ResponseReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        trace_id: Option<u64>,
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let trace = trace_id.map_or(String::new(), |id| format!("X-Tenet-Trace-Id: {id:x}\r\n"));
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: wlbench\r\nContent-Type: application/json\r\n{trace}Content-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        self.reader.next_response()
    }
}

fn stats(addr: &str) -> Result<Json, String> {
    let (status, body) = Conn::open(addr)
        .and_then(|mut c| c.send("GET", "/v1/stats", "", None))
        .map_err(|e| format!("stats probe: {e}"))?;
    if status != 200 {
        return Err(format!("stats probe answered {status}"));
    }
    Json::parse(&String::from_utf8_lossy(&body)).map_err(|e| format!("stats probe: {e:?}"))
}

fn at(doc: &Json, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(doc, |d, k| d.get(k))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Sum over the router's shards of one counter in each worker's document.
fn shard_sum(doc: &Json, path: &[&str]) -> u64 {
    doc.get("shards").and_then(Json::as_arr).map_or(0, |s| {
        s.iter().map(|s| at(s, &[&["stats"], path].concat())).sum()
    })
}

fn shard_routed(doc: &Json, i: usize) -> u64 {
    doc.get("shards")
        .and_then(Json::as_arr)
        .and_then(|s| s.get(i))
        .map_or(0, |s| at(s, &["routed"]))
}

/// One hot request: method, path, body, and the verified response bytes.
struct Hot {
    path: &'static str,
    body: Arc<String>,
    expect: Vec<u8>,
}

/// One never-seen problem as sent and answered.
struct FreshLog {
    spec: Spec,
    key: u64,
    status: u16,
    bytes: Vec<u8>,
    /// Whether the request belongs to the deterministic unit.
    in_unit: bool,
}

/// Everything one client observed during the timed window.
#[derive(Default)]
struct ClientLog {
    fresh_ms: Vec<f64>,
    repeat_ms: Vec<f64>,
    repeat_done_s: Vec<f64>,
    all_ms: Vec<f64>,
    /// Completion times, in seconds from the window start.
    done_s: Vec<f64>,
    fresh: Vec<FreshLog>,
    /// Fingerprint of the unit's requests, in the order sent.
    unit: SeqHash,
    sent: Vec<(Option<Spec>, usize, Arc<String>)>,
    status: BTreeMap<&'static str, u64>,
    failed: u64,
    phases: BTreeMap<String, Vec<f64>>,
}

fn status_class(s: u16) -> &'static str {
    match s {
        200..=299 => "s2xx",
        429 => "s429",
        503 => "s503",
        504 => "s504",
        400..=499 => "s4xx",
        _ => "s5xx",
    }
}

fn client(
    addr: &str,
    mut seq: Sequence,
    hot: &[Hot],
    (start, deadline): (Instant, Instant),
    traced: bool,
) -> Result<ClientLog, String> {
    let mut log = ClientLog::default();
    let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
    let mut n = 0u64;
    while n < UNIT_REQUESTS || Instant::now() < deadline {
        let (path, body, spec, hot_idx) = match seq.next_shot()? {
            Shot::Hot(i) => (hot[i].path, Arc::clone(&hot[i].body), None, i),
            Shot::Fresh(s, body, key) => ("/v1/analyze", body, Some((s, key)), usize::MAX),
        };
        n += 1;
        let in_unit = n <= UNIT_REQUESTS;
        if in_unit {
            log.unit.add(path.as_bytes());
            log.unit.add(body.as_bytes());
        }
        let trace_id = traced.then_some((seq.client + 1) << 40 | n);
        let t0 = Instant::now();
        let result = conn.send("POST", path, &body, trace_id);
        let dt = ms(t0.elapsed());
        let (status, bytes) = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("wlbench: serve_mixed request failed: {e}");
                log.failed += 1;
                *log.status.entry("s5xx").or_default() += 1;
                conn = Conn::open(addr).map_err(|e| format!("reconnect: {e}"))?;
                continue;
            }
        };
        log.all_ms.push(dt);
        log.done_s.push(start.elapsed().as_secs_f64());
        *log.status.entry(status_class(status)).or_default() += 1;
        if traced {
            log.sent
                .push((spec.map(|(s, _)| s), hot_idx, Arc::clone(&body)));
            if n.is_multiple_of(TRACE_SAMPLE_EVERY) {
                let id = trace_id.expect("traced requests carry an id");
                worker_phases(&mut conn, id, &mut log.phases)?;
            }
        }
        match spec {
            None => {
                log.repeat_ms.push(dt);
                log.repeat_done_s.push(start.elapsed().as_secs_f64());
                if status != 200 || bytes != hot[hot_idx].expect {
                    log.failed += 1;
                    eprintln!("wlbench: serve_mixed hot repeat {hot_idx} answered {status} with different bytes");
                }
            }
            Some((spec, key)) => {
                log.fresh_ms.push(dt);
                log.fresh.push(FreshLog {
                    spec,
                    key,
                    status,
                    bytes,
                    in_unit,
                });
            }
        }
    }
    Ok(log)
}

/// Adds the worker-tier phase spans of one traced request to `acc`, in
/// microseconds. The router's `X-Tenet-Server-Timing` header carries only
/// router-tier phases, so the worker's come from the cross-tier timeline
/// at `GET /v1/trace/<id>`.
fn worker_phases(
    conn: &mut Conn,
    id: u64,
    acc: &mut BTreeMap<String, Vec<f64>>,
) -> Result<(), String> {
    let (status, bytes) = conn
        .send("GET", &format!("/v1/trace/{id:016x}"), "", None)
        .map_err(|e| format!("trace fetch: {e}"))?;
    if status != 200 {
        return Err(format!("trace {id:016x} answered {status}"));
    }
    let doc = Json::parse(&String::from_utf8_lossy(&bytes)).map_err(|e| format!("trace: {e:?}"))?;
    let records = doc.get("records").and_then(Json::as_arr).unwrap_or(&[]);
    for r in records
        .iter()
        .filter(|r| r.get("tier").and_then(Json::as_str) == Some("worker"))
    {
        for span in r.get("spans").and_then(Json::as_arr).unwrap_or(&[]) {
            if span.get("phase").and_then(Json::as_bool) != Some(true) {
                continue;
            }
            let name = match span.get("name").and_then(Json::as_str) {
                Some("analyze" | "dse") => "compute",
                Some(n) => n,
                None => continue,
            };
            let us = span.get("dur_us").and_then(Json::as_u64).unwrap_or(0);
            acc.entry(name.to_string()).or_default().push(us as f64);
        }
    }
    Ok(())
}

/// Checks one fresh analyze response: a 2xx with one report and, when
/// `simulate` is set, agreement with the simulator.
fn check_fresh(
    inputs: &Inputs,
    s: &Spec,
    status: u16,
    bytes: &[u8],
    simulate: bool,
) -> Result<(), String> {
    if status != 200 {
        return Err(format!(
            "status {status}: {}",
            String::from_utf8_lossy(bytes)
        ));
    }
    let doc = Json::parse(&String::from_utf8_lossy(bytes)).map_err(|e| format!("{e:?}"))?;
    let reports = doc
        .get("reports")
        .and_then(Json::as_arr)
        .ok_or("no reports")?;
    let [report] = reports else {
        return Err(format!("{} reports for one dataflow", reports.len()));
    };
    let got = Observed::from_json(report).ok_or("malformed report")?;
    if simulate {
        let (op, df, arch) = inputs.build(s).map_err(|e| e.to_string())?;
        let e = Expected::simulate(&op, &df, &arch).map_err(|e| e.to_string())?;
        e.check(&got, s.window)?;
    }
    Ok(())
}

/// Checks one hot dse response against the simulator: the count of valid
/// candidates and every returned point's report.
fn check_dse(n: i64, bytes: &[u8]) -> Result<(), String> {
    let doc = Json::parse(&String::from_utf8_lossy(bytes)).map_err(|e| format!("{e:?}"))?;
    let op = kernels::gemm(n, n, n).map_err(|e| e.to_string())?;
    let arch = ArchSpec::new("4x4", [4, 4], Interconnect::Systolic2D, 8.0);
    let cands = tenet_dse::enumerate_all(&op, 4, 16).map_err(|e| e.to_string())?;
    let valid = cands
        .iter()
        .filter(|df| Expected::simulate(&op, df, &arch).is_ok())
        .count() as u64;
    if doc.get("valid").and_then(Json::as_u64) != Some(valid) {
        return Err(format!("valid count differs from the simulator's {valid}"));
    }
    let points = doc
        .get("points")
        .and_then(Json::as_arr)
        .ok_or("no points")?;
    for p in points {
        let strs = |k: &str| -> Option<Vec<String>> {
            p.get("dataflow")?
                .get(k)?
                .as_arr()?
                .iter()
                .map(|e| e.as_str().map(str::to_string))
                .collect()
        };
        let (space, time) = (
            strs("space").ok_or("no space")?,
            strs("time").ok_or("no time")?,
        );
        let df = Dataflow::new(space, time);
        let e = Expected::simulate(&op, &df, &arch).map_err(|e| e.to_string())?;
        let got =
            Observed::from_json(p.get("report").ok_or("no report")?).ok_or("malformed report")?;
        e.check(&got, 1)
            .map_err(|m| format!("{}: {m}", dataflow_key(&df)))?;
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<RunReport, String> {
    let inputs = Inputs {
        dfs: table3_dataflows(),
    };
    let dse_sizes: [i64; HOT_DSE] = [4, 5, 6, 8];

    // Set-up: empty memo, boot the cluster, generate the hot set and warm
    // it through the router, then drop the memo again so fresh problems
    // start from an empty one.
    let (setup_s, (cluster, hot_specs, hot_keys, mut hot)) = repeated_setup(5, || {
        isl_cache::clear();
        let cluster = Cluster::boot().expect("cluster boots on loopback");
        let mut rng = Rng::new(HOT_SET_SEED, 3);
        let (mut hot_specs, mut hot_keys, mut hot) = (Vec::new(), HashSet::new(), Vec::new());
        while hot_specs.len() < HOT_ANALYZE {
            let s = inputs.draw(&mut rng);
            let body = inputs.body(&s).expect("hot input builds");
            if hot_keys.insert(analyze_key(&body)) {
                hot_specs.push(s);
                hot.push(Hot {
                    path: "/v1/analyze",
                    body: Arc::new(body),
                    expect: Vec::new(),
                });
            }
        }
        for n in dse_sizes {
            hot.push(Hot {
                path: "/v1/dse",
                body: Arc::new(
                    Json::obj([
                        ("problem", Json::from(gemm_text(n))),
                        ("pe", Json::from(4u64)),
                        ("top", Json::from(3u64)),
                        ("threads", Json::from(CLIENTS)),
                    ])
                    .to_string(),
                ),
                expect: Vec::new(),
            });
        }
        let mut conn = Conn::open(&cluster.addr).expect("connect");
        for h in &mut hot {
            let (status, bytes) = conn.send("POST", h.path, &h.body, None).expect("warm-up");
            assert_eq!(status, 200, "warm-up: {}", String::from_utf8_lossy(&bytes));
            h.expect = bytes;
        }
        isl_cache::clear();
        (cluster, hot_specs, hot_keys, hot)
    });

    let mut out = RunReport::default();
    // The hot set is checked once against the simulator; timed repeats
    // must then return exactly the verified bytes.
    for (i, h) in hot.iter().enumerate() {
        out.attempted += 1;
        let verdict = if i < HOT_ANALYZE {
            check_fresh(&inputs, &hot_specs[i], 200, &h.expect, true)
        } else {
            check_dse(dse_sizes[i - HOT_ANALYZE], &h.expect)
        };
        if let Err(e) = verdict {
            out.failed += 1;
            eprintln!("wlbench: serve_mixed hot request {i}: {e}");
        }
    }
    if args.corrupt_oracle {
        // The planted defect: one verified answer no longer matches.
        hot[0].expect.push(b' ');
    }

    let fast0 = tenet_core::fast_path_stats();
    let before = stats(&cluster.addr)?;
    let steal0 = steal_ticks();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let seq = Sequence::new(args.seed, c, &inputs, hot.len(), &hot_keys);
                let (addr, hot) = (&cluster.addr, &hot);
                scope.spawn(move || client(addr, seq, hot, (start, deadline), args.traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let window = start.elapsed();
    let after = stats(&cluster.addr)?;
    let fast1 = tenet_core::fast_path_stats();
    drop(cluster);
    let logs: Vec<ClientLog> = logs.into_iter().collect::<Result<_, _>>()?;
    let mut seq_hash = SeqHash::default();
    for l in &logs {
        seq_hash.add(l.unit.hex().as_bytes());
    }
    out.count("op_sequence", seq_hash.hex());

    let cat = |f: fn(&ClientLog) -> &Vec<f64>| -> Vec<f64> {
        logs.iter().flat_map(|l| f(l).iter().copied()).collect()
    };
    let all = cat(|l| &l.all_ms);
    let done_s = cat(|l| &l.done_s);
    let fresh_ms = cat(|l| &l.fresh_ms);
    let repeat_ms = cat(|l| &l.repeat_ms);
    let n_fresh = fresh_ms.len() as u64;
    let n_repeat = repeat_ms.len() as u64;
    out.attempted += logs
        .iter()
        .map(|l| l.status.values().sum::<u64>())
        .sum::<u64>();
    out.failed += logs.iter().map(|l| l.failed).sum::<u64>();

    // Every fresh response is checked for shape, and those of the unit,
    // which every run with this seed sends, against the simulator. No two
    // fresh requests, of either client, and no fresh request and hot
    // request may share a dedup key.
    let mut keys = hot_keys.clone();
    for f in logs.iter().flat_map(|l| &l.fresh) {
        let mut verdict = check_fresh(&inputs, &f.spec, f.status, &f.bytes, f.in_unit);
        if !keys.insert(f.key) {
            verdict = Err("its dedup key was sent before".into());
        }
        if let Err(e) = verdict {
            out.failed += 1;
            eprintln!("wlbench: serve_mixed fresh {:?}: {e}", f.spec);
        }
    }

    // Cold and warm state: every fresh request must have been a dedup
    // miss and every repeat a hit. A hedged or retried request makes a
    // second attempt, which may add one lookup of any kind; nothing else
    // may.
    let d = |path: &[&str]| shard_sum(&after, path) - shard_sum(&before, path);
    let r = |path: &[&str]| at(&after, path) - at(&before, path);
    let (hits, misses, waits) = (
        d(&["dedup", "hits"]),
        d(&["dedup", "misses"]),
        d(&["dedup", "inflight_waits"]),
    );
    let (hedges, retries) = (r(&["router", "hedges", "fired"]), r(&["router", "retries"]));
    let short = n_fresh.saturating_sub(misses) + n_repeat.saturating_sub(hits);
    let extra = (misses + hits + waits).saturating_sub(n_fresh + n_repeat);
    if short > 0 || extra > hedges + retries {
        out.failed += short.max(1);
        eprintln!(
            "wlbench: serve_mixed dedup accounting: {misses} misses for {n_fresh} fresh, \
             {hits} hits for {n_repeat} repeats, {waits} waits, {hedges} hedges, {retries} retries"
        );
    }

    // Tails are taken per second and their lower quartile reported: the
    // clients share two cores with the service, so a few seconds of
    // interference from outside the benchmark would otherwise set the
    // whole run's p99.
    let per_second = (done_s.len() as f64 / window.as_secs_f64()) as usize;
    out.put_stream(
        all.len(),
        (
            block_rate(&sorted(done_s.clone()), per_second, window),
            quantile(&sorted(all.clone()), 0.5),
            per_second_quantile(&done_s, &all, 0.99),
        ),
        (window, steal0),
    );
    out.put(
        "success_rate",
        1.0 - out.failed as f64 / out.attempted as f64,
        "fraction",
    );
    out.put("setup_s", setup_s, "s");
    out.put("peak_rss_mb", peak_rss_mb(), "MiB");
    out.put(
        "fresh_latency_ms_p50",
        quantile(&sorted(fresh_ms.clone()), 0.5),
        "ms",
    );
    out.put(
        "repeat_latency_ms_p99",
        per_second_quantile(&cat(|l| &l.repeat_done_s), &repeat_ms, 0.99),
        "ms",
    );
    eprintln!(
        "wlbench: {n_fresh} fresh, {n_repeat} repeats; dedup {misses} misses {hits} hits {waits} waits; {hedges} hedges"
    );
    if !args.traced {
        return Ok(out);
    }

    // Per-layer metrics of the traced window.
    let mut status: BTreeMap<&str, u64> = BTreeMap::new();
    let mut phases: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for l in &logs {
        for (k, v) in &l.status {
            *status.entry(k).or_default() += v;
        }
        for (k, v) in &l.phases {
            phases.entry(k.clone()).or_default().extend(v);
        }
    }
    out.put("server.dedup.hits", hits as f64, "count");
    out.put("server.dedup.misses", misses as f64, "count");
    out.put("server.dedup.inflight_waits", waits as f64, "count");
    for p in [
        "queue",
        "parse",
        "canon",
        "dedup",
        "compute",
        "isl",
        "serialize",
    ] {
        let v = phases.get(p).map_or(0.0, |v| mean(v));
        out.put(format!("server.phase.{p}_us"), v, "us");
    }
    for c in ["s4xx", "s429", "s503", "s504", "s5xx"] {
        out.put(
            format!("server.status.{c}"),
            *status.get(c).unwrap_or(&0) as f64,
            "count",
        );
    }
    out.put(
        "router.routed.shard0",
        (shard_routed(&after, 0) - shard_routed(&before, 0)) as f64,
        "count",
    );
    out.put(
        "router.routed.shard1",
        (shard_routed(&after, 1) - shard_routed(&before, 1)) as f64,
        "count",
    );
    out.put("router.retries", retries as f64, "count");
    out.put("router.hedges", hedges as f64, "count");
    out.put(
        "router.breaker_trips",
        r(&["router", "breakers", "trips"]) as f64,
        "count",
    );

    // Memo lookups from the workers' own counters; dispatch counts are
    // process-wide deltas (only the workers compute during the window).
    let fast = |f: fn(&CountStats) -> u64| f(&fast1) - f(&fast0);
    IslCounts {
        hits: d(&["isl_cache", "server", "hits"]),
        misses: d(&["isl_cache", "server", "misses"]),
        fast: CountStats {
            window_counts: fast(|c| c.window_counts),
            box_counts: fast(|c| c.box_counts),
            slab_counts: fast(|c| c.slab_counts),
            multi_slab_counts: fast(|c| c.multi_slab_counts),
            pair_chain_counts: fast(|c| c.pair_chain_counts),
            coupled_slab_counts: fast(|c| c.coupled_slab_counts),
        },
    }
    .put(&mut out, false);
    // Repeats do no relational work: cold ISL time is per fresh request.
    let cold_us = d(&["isl_cache", "server", "cold_us"]);
    out.put(
        "isl.cold_ms",
        cold_us as f64 / 1e3 / n_fresh.max(1) as f64,
        "ms",
    );

    // Front end and canonicalization, timed standalone on the bodies sent.
    let sent: Vec<&(Option<Spec>, usize, Arc<String>)> =
        logs.iter().flat_map(|l| &l.sent).collect();
    let mut parse_ms = Vec::new();
    for (spec, _, body) in &sent {
        if spec.is_some() {
            let text = Json::parse(body)
                .ok()
                .and_then(|j| j.get("problem").and_then(Json::as_str).map(str::to_string));
            let text = text.ok_or("fresh body without a problem")?;
            let t0 = Instant::now();
            let p = parse_problem(&text);
            parse_ms.push(ms(t0.elapsed()));
            p.map_err(|e| format!("fresh body does not parse: {}", e.render(&text)))?;
        }
    }
    out.put("frontend.parse_problem_ms", mean(&parse_ms), "ms");
    let mut canon_us = Vec::new();
    for (_, hot_idx, body) in &sent {
        let path = hot.get(*hot_idx).map_or("/v1/analyze", |h| h.path);
        let t0 = Instant::now();
        let key = canonical_key(&canonical_request("POST", path, body.as_bytes()));
        canon_us.push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(key);
    }
    out.put("server.canonical_us", mean(&canon_us), "us");

    // The worker in-process: a fresh core with an empty memo, warmed
    // with the hot set, replaying the requests the clients sent (the first
    // client's, then the second's).
    isl_cache::clear();
    let core = WorkerCore::new(ServerConfig {
        addr: "in-process".into(),
        ..Default::default()
    });
    for h in &hot {
        core.handle("POST", h.path, h.body.as_bytes());
    }
    isl_cache::clear();
    let (mut w_fresh, mut w_repeat) = (Vec::new(), Vec::new());
    for (spec, hot_idx, body) in sent.iter().take(WORKER_REPLAY) {
        let path = hot.get(*hot_idx).map_or("/v1/analyze", |h| h.path);
        let t0 = Instant::now();
        let (st, _) = core.handle("POST", path, body.as_bytes());
        let dt = t0.elapsed();
        out.attempted += 1;
        if st != 200 {
            out.failed += 1;
            eprintln!("wlbench: in-process worker answered {st}");
        }
        if spec.is_some() {
            w_fresh.push(ms(dt));
        } else {
            w_repeat.push(dt.as_secs_f64() * 1e6);
        }
    }
    let worker_repeat_us = median(&w_repeat);
    out.put("server.worker.repeat_us_p50", worker_repeat_us, "us");
    out.put("server.worker.fresh_ms_p50", median(&w_fresh), "ms");
    out.put(
        "router.overhead_us_p50",
        median(&repeat_ms) * 1e3 - worker_repeat_us,
        "us",
    );

    // Analysis phases on never-seen problems: the fresh path's model work
    // without the service around it. The problems come from a seed stream
    // of their own and each starts from an empty memo, so their exact
    // counts must repeat across runs with the same seed.
    let mut trace = CoreTrace::default();
    let mut probe_counts = IslCounts::default();
    let mut rng = Rng::new(args.seed, 40);
    let mut probed = hot_keys.clone();
    while probed.len() < hot_keys.len() + CORE_PROBE {
        let s = inputs.draw(&mut rng);
        if !probed.insert(analyze_key(&inputs.body(&s).map_err(|e| e.to_string())?)) {
            continue;
        }
        let (op, df, arch) = inputs.build(&s).map_err(|e| e.to_string())?;
        let opts = tenet_core::AnalysisOptions {
            reuse_window: s.window,
            ..Default::default()
        };
        isl_cache::clear();
        let (r, h, _) = trace.run(&op, &df, &arch, opts);
        r.map_err(|e| format!("core probe {s:?}: {e}"))?;
        probe_counts.add(&h);
    }
    trace.put(&mut out);
    probe_counts.record(&mut out, "core_probe.");
    put_absent(&mut out, &DSE_METRICS);
    Ok(out)
}
