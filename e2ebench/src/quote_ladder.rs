//! `quote-ladder`: an open-loop, seeded Poisson stream of single-asset
//! put quotes through the pricing service, with market ticks patched
//! into the plan cache every [`TICK_EVERY`] quotes.
//!
//! The only workload that drives `mdp-serve`: its queue, coalescer and
//! plan cache. Latency runs from each quote's *scheduled* send time, so
//! a stalled generator shows as latency rather than as a lighter load.

use crate::json::J;
use crate::rng::Rng;
use crate::stats;
use crate::trace::Tracer;
use crate::{clock, Report};
use mdp_core::prelude::*;
use mdp_serve::{Fidelity, PriceRequest, PriceResponse, PricingService, ServeConfig, Ticket};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered load, quotes per second.
pub const RATE_PER_S: f64 = 150.0;
/// One market tick before every this many quotes.
pub const TICK_EVERY: usize = 300;
/// Quote maturities in years.
pub const MATURITIES: [f64; 5] = [0.1, 0.25, 0.5, 1.0, 2.0];
/// Strikes per maturity, evenly spaced over 70..=130.
pub const STRIKES: usize = 32;
/// Distinct quotable products: European and American puts.
pub const PRODUCTS: usize = 2 * MATURITIES.len() * STRIKES;
/// Length of the windows the timed phase is cut into. CPU time per
/// quote is taken per window and reported as the median over windows,
/// so one burst of host contention moves one window, not the run's
/// figure.
pub const WINDOW_S: f64 = 2.5;
/// Service set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 30;

/// The per-layer metrics this workload reports, with units.
pub const LAYER_METRICS: [(&str, &str); 16] = [
    ("quote.latency_p50_ms", "ms"),
    ("quote.latency_p90_ms", "ms"),
    ("quote.latency_p99_ms", "ms"),
    ("serve.queue_p50_ms", "ms"),
    ("serve.queue_p99_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.service_p99_ms", "ms"),
    ("serve.batch_mean", "count"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.plan_build_ms", "ms"),
    ("serve.tick_patch_ms", "ms"),
    ("serve.failed", "count"),
    ("serve.harvest_self_p50_ms", "ms"),
    ("gen.late_p99_ms", "ms"),
    ("gen.late_max_ms", "ms"),
    ("pde.fd.ns_per_node", "ns"),
];

fn fd() -> Fd1d {
    Fd1d::default()
}

/// The underlier every quote names before any tick: S=100, σ=20%, r=5%.
pub fn base_market() -> GbmMarket {
    GbmMarket::single(100.0, 0.2, 0.0, 0.05).expect("valid market")
}

/// Product `idx` of the quotable set: style, then maturity, then strike.
pub fn product(idx: usize) -> Product {
    let style = idx / (MATURITIES.len() * STRIKES);
    let maturity = MATURITIES[(idx / STRIKES) % MATURITIES.len()];
    let strike = 70.0 + 60.0 * (idx % STRIKES) as f64 / (STRIKES - 1) as f64;
    let payoff = Payoff::BasketPut {
        weights: vec![1.0],
        strike,
    };
    if style == 0 {
        Product::european(payoff, maturity)
    } else {
        Product::american(payoff, maturity)
    }
}

/// The generated inputs of one run: quote send times and products, and
/// the tick sequence. A pure function of the seed and the length.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// Scheduled send time of each quote, seconds after the phase starts.
    pub due_s: Vec<f64>,
    /// Product index of each quote.
    pub product: Vec<usize>,
    /// Tick `j` is applied just before quote `(j + 1)·TICK_EVERY`.
    pub ticks: Vec<(u8, f64)>,
}

impl Stream {
    /// Poisson arrivals at [`RATE_PER_S`] over `seconds`; ticks rotate
    /// spot, spot, rate, each an absolute level near the base market.
    pub fn generate(seed: u64, seconds: f64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let (mut due_s, mut product) = (Vec::new(), Vec::new());
        let mut t = 0.0;
        loop {
            t += -(1.0 - rng.uniform()).ln() / RATE_PER_S;
            if t >= seconds {
                break;
            }
            due_s.push(t);
            product.push(rng.below(PRODUCTS));
        }
        let ticks = (0..due_s.len().saturating_sub(1) / TICK_EVERY)
            .map(|j| match j % 3 {
                0 | 1 => (0, rng.around(100.0, 0.02)),
                _ => (1, 0.05 + 0.01 * (rng.uniform() - 0.5)),
            })
            .collect();
        Stream {
            due_s,
            product,
            ticks,
        }
    }

    /// Tick `j` as a market delta.
    pub fn delta(&self, j: usize) -> MarketDelta {
        match self.ticks[j] {
            (0, spot) => MarketDelta::Spot { asset: 0, spot },
            (_, rate) => MarketDelta::Rate { rate },
        }
    }

    /// The market snapshots: the base market, then one per tick.
    pub fn snapshots(&self) -> Result<Vec<Arc<GbmMarket>>, String> {
        let mut snaps = vec![Arc::new(base_market())];
        for j in 0..self.ticks.len() {
            let next = snaps[j]
                .apply_delta(&self.delta(j))
                .map_err(|e| format!("tick {j}: {e}"))?;
            snaps.push(Arc::new(next));
        }
        Ok(snaps)
    }
}

/// What came back for one quote.
#[derive(Debug, Clone, Default)]
pub struct Answer {
    /// Snapshot the quote named.
    pub snapshot: usize,
    /// Generator lateness: actual send minus scheduled send, seconds.
    pub late_s: f64,
    /// Queue and service seconds from the response.
    pub queue_s: f64,
    pub service_s: f64,
    /// The price bits of an `Ok`, `Fidelity::Full` answer.
    pub price_bits: Option<u64>,
}

/// Counts answers whose bits differ from the reference prices, keyed by
/// `(snapshot, product)`; unanswered or failed quotes are not compared.
pub fn wrong_bits(
    answers: &[Answer],
    products: &[usize],
    reference: &BTreeMap<(usize, usize), u64>,
) -> u64 {
    answers
        .iter()
        .zip(products)
        .filter(|(a, &p)| {
            a.price_bits
                .is_some_and(|bits| reference.get(&(a.snapshot, p)) != Some(&bits))
        })
        .count() as u64
}

/// Reference prices: every quoted product priced with
/// `Portfolio::price_batch` on the snapshot its quote named.
pub fn reference_prices(
    answers: &[Answer],
    products: &[usize],
    snaps: &[Arc<GbmMarket>],
) -> Result<BTreeMap<(usize, usize), u64>, String> {
    let mut wanted: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (a, &p) in answers.iter().zip(products) {
        wanted.entry(a.snapshot).or_default().push(p);
    }
    let portfolio = Portfolio::new(Pricer::new(Method::Fd1d(fd())));
    let mut out = BTreeMap::new();
    for (snap, mut ps) in wanted {
        ps.sort_unstable();
        ps.dedup();
        let book: Vec<Product> = ps.iter().map(|&p| product(p)).collect();
        let batch = portfolio
            .price_batch(&snaps[snap], &book)
            .map_err(|e| format!("reference batch on snapshot {snap}: {e}"))?;
        for (p, r) in ps.iter().zip(batch.reports) {
            out.insert((snap, *p), r.price.to_bits());
        }
    }
    Ok(out)
}

fn full_price(resp: &PriceResponse) -> Option<u64> {
    match (&resp.outcome, resp.fidelity) {
        (Ok(report), Fidelity::Full) => Some(report.price.to_bits()),
        _ => None,
    }
}

/// Starts the service and sends one quote per maturity, one at a time,
/// so the plan cache fills the same way every run.
fn start_service(market: &Arc<GbmMarket>) -> Result<PricingService, String> {
    let svc = PricingService::start(Pricer::new(Method::Fd1d(fd())), ServeConfig::default());
    for (m, _) in MATURITIES.iter().enumerate() {
        let idx = m * STRIKES + STRIKES / 2;
        let resp = svc
            .price(PriceRequest::new(
                u64::MAX - m as u64,
                Arc::clone(market),
                product(idx),
            ))
            .map_err(|e| format!("warm-up quote: {e}"))?;
        if full_price(&resp).is_none() {
            return Err(format!("warm-up quote failed: {:?}", resp.outcome.err()));
        }
    }
    Ok(svc)
}

/// One phase: set up, stream quotes for `seconds`, check every answer.
pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<Report, String> {
    let stream = Stream::generate(seed, seconds);
    let snaps = stream.snapshots()?;
    let n = stream.due_s.len();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut svc = None;
    for _ in 0..SETUP_REPS {
        drop(svc.take());
        let c0 = clock::process_cpu_s();
        svc = Some(start_service(&snaps[0])?);
        setup_s.push(clock::process_cpu_s() - c0);
    }
    let svc = svc.expect("at least one set-up");

    let mut answers = vec![Answer::default(); n];
    let mut failed = vec![false; n];
    let mut tick_s = Vec::with_capacity(stream.ticks.len());
    let mut outstanding: Vec<(usize, Ticket, Instant)> = Vec::new();
    let mut snap = 0usize;
    // Whole windows only: the last one absorbs any remainder.
    let windows = ((seconds / WINDOW_S) as usize).max(1);
    let window_of = |due_s: f64| ((due_s / WINDOW_S) as usize).min(windows - 1);
    // Process CPU time at the first send of each window.
    let mut cpu_marks = Vec::new();
    let cpu0 = clock::process_cpu_s();
    let start = Instant::now();
    for i in 0..n {
        while cpu_marks.len() <= window_of(stream.due_s[i]) {
            cpu_marks.push(clock::process_cpu_s());
        }
        harvest(&mut outstanding, &mut answers, &mut failed, tracer, false);
        let due = start + Duration::from_secs_f64(stream.due_s[i]);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        if i > 0 && i % TICK_EVERY == 0 {
            let j = i / TICK_EVERY - 1;
            let t0 = Instant::now();
            svc.apply_tick(&stream.delta(j));
            let t1 = Instant::now();
            tick_s.push((t1 - t0).as_secs_f64());
            tracer.record("serve.apply_tick", (1 << 32) | j as u64, None, t0, t1);
            snap = j + 1;
        }
        let sent = Instant::now();
        tracer.record("gen.due_to_submit", i as u64, None, due, sent);
        answers[i].snapshot = snap;
        answers[i].late_s = sent.saturating_duration_since(due).as_secs_f64();
        let req = PriceRequest::new(
            i as u64,
            Arc::clone(&snaps[snap]),
            product(stream.product[i]),
        );
        match svc.submit(req) {
            Ok(ticket) => outstanding.push((i, ticket, sent)),
            Err(_) => failed[i] = true,
        }
    }
    harvest(&mut outstanding, &mut answers, &mut failed, tracer, true);
    let wall = start.elapsed().as_secs_f64();
    let cpu_end = clock::process_cpu_s();
    let cpu = cpu_end - cpu0;
    cpu_marks.push(cpu_end);
    let stats = svc.shutdown();

    let reference = reference_prices(&answers, &stream.product, &snaps)?;
    let wrong = wrong_bits(&answers, &stream.product, &reference);
    let n_failed = failed.iter().filter(|&&f| f).count() as u64;
    let ok: Vec<&Answer> = answers
        .iter()
        .zip(&failed)
        .filter(|(_, &f)| !f)
        .map(|(a, _)| a)
        .collect();
    let latency: Vec<f64> = answers
        .iter()
        .zip(&failed)
        .map(|(a, &f)| {
            if f {
                f64::INFINITY
            } else {
                a.late_s + a.queue_s + a.service_s
            }
        })
        .collect();
    let late: Vec<f64> = answers.iter().map(|a| a.late_s).collect();
    let ms = |x: f64| x * 1e3;

    let mut report = Report::new(n as u64, n_failed + wrong, wrong);
    report.e2e("setup_s", stats::median(&setup_s));
    let w_cpu: Vec<f64> = (0..windows)
        .map(|w| {
            let quotes = (0..n).filter(|&i| window_of(stream.due_s[i]) == w).count();
            (cpu_marks[w + 1] - cpu_marks[w]) / quotes as f64
        })
        .collect();
    report.e2e("cpu_ms_per_op", ms(stats::median(&w_cpu)));
    report.e2e("throughput_ops_s", ok.len() as f64 / wall);
    report.latency_info(&latency, 1e3);
    report.info("windows", J::Int(windows as u64));
    report.info(
        "gen_late_p99_ms",
        J::Num(ms(stats::tail(&late, 0.99, "lateness").unwrap_or(f64::NAN))),
    );
    report.info(
        "gen_late_max_ms",
        J::Num(ms(late.iter().copied().fold(0.0, f64::max))),
    );
    report.info("ticks", J::Int(tick_s.len() as u64));
    report.info(
        "params",
        J::obj([
            ("rate_per_s", J::Num(RATE_PER_S)),
            ("tick_every", J::Int(TICK_EVERY as u64)),
            (
                "maturities",
                J::Arr(MATURITIES.iter().map(|&m| J::Num(m)).collect()),
            ),
            ("strikes", J::Int(STRIKES as u64)),
            (
                "fd_grid",
                J::str(format!("{}x{}", fd().space_points, fd().time_steps)),
            ),
            ("workers", J::Int(ServeConfig::default().workers as u64)),
            ("setup_reps", J::Int(SETUP_REPS as u64)),
            ("window_s", J::Num(WINDOW_S)),
        ]),
    );

    if tracer.enabled() {
        let queue: Vec<f64> = ok.iter().map(|a| a.queue_s).collect();
        let service: Vec<f64> = ok.iter().map(|a| a.service_s).collect();
        let nodes = (fd().space_points * fd().time_steps) as f64;
        report.layer("quote.latency_p50_ms", ms(stats::median(&latency)));
        report.layer(
            "quote.latency_p90_ms",
            ms(stats::tail(&latency, 0.9, "quote latency")?),
        );
        report.layer(
            "quote.latency_p99_ms",
            ms(stats::tail(&latency, 0.99, "quote latency")?),
        );
        report.layer("serve.queue_p50_ms", ms(stats::median(&queue)));
        report.layer(
            "serve.queue_p99_ms",
            ms(stats::tail(&queue, 0.99, "queue")?),
        );
        report.layer("serve.service_p50_ms", ms(stats::median(&service)));
        report.layer(
            "serve.service_p99_ms",
            ms(stats::tail(&service, 0.99, "service")?),
        );
        report.layer("serve.batch_mean", stats.mean_batch());
        report.layer("serve.cache_hit_rate", stats.cache.hit_rate());
        report.layer("serve.plan_build_ms", ms(stats.mean_plan_seconds_miss()));
        report.layer("serve.tick_patch_ms", ms(stats::median(&tick_s)));
        report.layer("serve.failed", n_failed as f64);
        report.layer(
            "serve.harvest_self_p50_ms",
            ms(stats::median(&tracer.self_times("serve.request"))),
        );
        report.layer("gen.late_p99_ms", ms(stats::tail(&late, 0.99, "lateness")?));
        report.layer(
            "gen.late_max_ms",
            ms(late.iter().copied().fold(0.0, f64::max)),
        );
        report.layer(
            "pde.fd.ns_per_node",
            service.iter().sum::<f64>() / (service.len() as f64 * nodes) * 1e9,
        );
    }
    report.cpu_ms_per_op = ms(cpu / n as f64);
    Ok(report)
}

/// Collects finished responses (waiting for all of them when `block`),
/// so only in-flight tickets stay alive and peak memory measures the
/// service, not thousands of idle receivers.
fn harvest(
    outstanding: &mut Vec<(usize, Ticket, Instant)>,
    answers: &mut [Answer],
    failed: &mut [bool],
    tracer: &mut Tracer,
    block: bool,
) {
    if block {
        for (i, ticket, sent) in outstanding.drain(..) {
            let resp = ticket.wait().ok();
            record_answer(i, sent, resp, answers, failed, tracer);
        }
        return;
    }
    outstanding.retain(|(i, ticket, sent)| match ticket.try_wait() {
        Some(resp) => {
            record_answer(*i, *sent, Some(resp), answers, failed, tracer);
            false
        }
        None => true,
    });
}

fn record_answer(
    i: usize,
    sent: Instant,
    resp: Option<PriceResponse>,
    answers: &mut [Answer],
    failed: &mut [bool],
    tracer: &mut Tracer,
) {
    let Some(resp) = resp else {
        failed[i] = true;
        return;
    };
    let a = &mut answers[i];
    a.queue_s = resp.queue_seconds;
    a.service_s = resp.service_seconds;
    a.price_bits = full_price(&resp);
    failed[i] = a.price_bits.is_none();
    if tracer.enabled() {
        // The request span ends when the generator picks the answer up;
        // its queue and service children come from the response, so
        // its self time is the hand-back lag.
        let s = tracer.at(sent);
        let req = tracer.record("serve.request", i as u64, None, sent, Instant::now());
        let q_end = s + resp.queue_seconds;
        tracer.record_at("serve.queue", i as u64, req, s, q_end);
        tracer.record_at(
            "serve.service",
            i as u64,
            req,
            q_end,
            q_end + resp.service_seconds,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a = Stream::generate(11, 10.0);
        assert_eq!(a, Stream::generate(11, 10.0));
        assert_ne!(a, Stream::generate(12, 10.0));
        // Poisson at RATE_PER_S over 10 s, and one tick per 300 quotes.
        let expect = 10.0 * RATE_PER_S;
        let n = a.due_s.len() as f64;
        assert!((n - expect).abs() < 5.0 * expect.sqrt(), "{n} quotes");
        assert_eq!(a.ticks.len(), (a.due_s.len() - 1) / TICK_EVERY);
        assert!(a.due_s.windows(2).all(|w| w[0] < w[1]));
        assert!(a.product.iter().all(|&p| p < PRODUCTS));
    }

    #[test]
    fn check_rejects_a_flipped_price_bit() {
        let snaps = vec![Arc::new(base_market())];
        let products = vec![3, 200];
        let mut answers: Vec<Answer> = products
            .iter()
            .map(|&p| Answer {
                price_bits: Some(
                    Pricer::new(Method::Fd1d(fd()))
                        .price(&snaps[0], &product(p))
                        .unwrap()
                        .price
                        .to_bits(),
                ),
                ..Default::default()
            })
            .collect();
        let reference = reference_prices(&answers, &products, &snaps).unwrap();
        assert_eq!(wrong_bits(&answers, &products, &reference), 0);
        answers[1].price_bits = answers[1].price_bits.map(|b| b ^ 1);
        assert_eq!(wrong_bits(&answers, &products, &reference), 1);
    }
}
