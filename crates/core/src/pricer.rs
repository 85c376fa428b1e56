//! The unified pricing entry point.
//!
//! [`Pricer`] pairs a [`Method`] with a [`Backend`] and prices any
//! product. Internally every price is a **plan** step (market-dependent,
//! payoff-independent setup: grids, operator factorizations, Cholesky
//! factors, spot ladders) followed by an **execute** step (one product
//! over the planned state). [`Pricer::price`] is a thin
//! plan-then-execute wrapper; callers that price many products on one
//! market can call [`Pricer::plan`] once and [`PricerPlan::execute`]
//! per product, paying the setup once — with results bitwise-identical
//! to one-shot calls. [`crate::Portfolio`] executes the same plan type
//! for a whole group of products, fusing the FD strike ladder and the
//! Monte Carlo shared-path sweep.

use mdp_cluster::{check_policy, CheckpointMode, FaultPlan, Machine, TimeModel};
use mdp_lattice::{
    cluster::{price_cluster, Decomposition},
    BinomialKind, BinomialLattice, LatticeError, LatticePlan, LatticeScratch, MultiLattice,
    TrinomialLattice,
};
use mdp_mc::{
    cluster_driver::{price_lsmc_cluster, price_mc_cluster},
    lsmc::{price_lsmc, price_lsmc_rayon},
    qmc::price_qmc,
    LsmcConfig, McConfig, McEngine, McError, McPlan, QmcConfig,
};
use mdp_model::{GbmMarket, MarketDelta, ModelError, Product, TickOutcome};
use mdp_pde::{
    Adi2d, Adi3d, AdiPlan, AdiScratch, ClusterFd1d, Fd1d, Fd1dBarrier, Fd1dPlan, Fd1dScratch,
    PdeError, Scheme,
};
use std::fmt;

/// The pricing method (engine + its configuration).
#[derive(Debug, Clone)]
pub enum Method {
    /// Closed form, when one exists.
    Analytic,
    /// 1-D binomial lattice.
    Binomial {
        /// Time steps.
        steps: usize,
        /// Parameterisation.
        kind: BinomialKind,
    },
    /// 1-D trinomial lattice.
    Trinomial {
        /// Time steps.
        steps: usize,
    },
    /// d-dimensional BEG lattice.
    MultiLattice {
        /// Time steps.
        steps: usize,
    },
    /// European Monte Carlo.
    MonteCarlo(McConfig),
    /// Randomised quasi-Monte Carlo.
    Qmc(QmcConfig),
    /// Longstaff–Schwartz for American products.
    Lsmc(LsmcConfig),
    /// 1-D finite differences.
    Fd1d(Fd1d),
    /// 2-D ADI finite differences.
    Adi2d(Adi2d),
    /// 3-D ADI finite differences.
    Adi3d(Adi3d),
    /// 1-D knock-out barrier finite differences (continuous barrier).
    BarrierFd(Fd1dBarrier),
}

impl Method {
    /// Monte Carlo with default settings and the given path count.
    pub fn monte_carlo(paths: u64) -> Self {
        Method::MonteCarlo(McConfig {
            paths,
            ..Default::default()
        })
    }

    /// BEG lattice shortcut.
    pub fn lattice(steps: usize) -> Self {
        Method::MultiLattice { steps }
    }

    /// A bit-exact 64-bit fingerprint of the engine identity and its
    /// full configuration.
    ///
    /// Two methods hash equal iff they are the same engine with every
    /// configuration field bitwise-identical (floats compared by IEEE
    /// bit pattern). Together with [`mdp_model::GbmMarket::cache_key`]
    /// and the maturity bits this forms the plan-cache / coalescing key:
    /// equal keys guarantee the compiled plans are interchangeable
    /// bit for bit, and differing configurations can never share a plan.
    pub fn cache_key(&self) -> u64 {
        let mut f = mdp_math::Fnv64::new();
        let mut eat = |word: u64| {
            f.eat(word);
        };
        match self {
            Method::Analytic => eat(0),
            Method::Binomial { steps, kind } => {
                eat(1);
                eat(*steps as u64);
                eat(match kind {
                    BinomialKind::CoxRossRubinstein => 0,
                    BinomialKind::JarrowRudd => 1,
                    BinomialKind::Tian => 2,
                });
            }
            Method::Trinomial { steps } => {
                eat(2);
                eat(*steps as u64);
            }
            Method::MultiLattice { steps } => {
                eat(3);
                eat(*steps as u64);
            }
            Method::MonteCarlo(cfg) => {
                eat(4);
                eat(cfg.paths);
                eat(cfg.steps as u64);
                eat(cfg.seed);
                eat(match cfg.variance_reduction {
                    mdp_mc::VarianceReduction::None => 0,
                    mdp_mc::VarianceReduction::Antithetic => 1,
                    mdp_mc::VarianceReduction::GeometricCv => 2,
                });
                eat(cfg.block_size);
            }
            Method::Qmc(cfg) => {
                eat(5);
                eat(cfg.points);
                eat(cfg.steps as u64);
                eat(cfg.replicates as u64);
                eat(cfg.seed);
                // The retired Brownian-bridge and point-sequence switches'
                // words, held at their only production values (bridged,
                // Sobol') so every QMC key keeps its bits.
                eat(1);
                eat(0);
            }
            Method::Lsmc(cfg) => {
                eat(6);
                eat(cfg.paths);
                eat(cfg.steps as u64);
                eat(cfg.seed);
                eat(cfg.degree as u64);
                eat(match cfg.basis {
                    mdp_math::poly::BasisKind::Monomial => 0,
                    mdp_math::poly::BasisKind::Laguerre => 1,
                    mdp_math::poly::BasisKind::Hermite => 2,
                });
                eat(cfg.ridge.to_bits());
                eat(cfg.block_size);
            }
            Method::Fd1d(cfg) => {
                eat(7);
                eat(cfg.space_points as u64);
                eat(cfg.time_steps as u64);
                eat(cfg.width.to_bits());
                eat(match cfg.scheme {
                    Scheme::Explicit => 0,
                    Scheme::CrankNicolson => 1,
                });
                // The retired explicit-stencil switch's word, held at
                // its only production value so every FD key keeps its
                // bits.
                eat(0);
            }
            Method::Adi2d(cfg) => {
                eat(8);
                eat(cfg.space_points as u64);
                eat(cfg.time_steps as u64);
                eat(cfg.width.to_bits());
                eat(cfg.parallel as u64);
                // The retired per-line oracle switch's word, held at its
                // only production value so every ADI key keeps its bits.
                eat(0);
            }
            Method::Adi3d(cfg) => {
                eat(10);
                eat(cfg.space_points as u64);
                eat(cfg.time_steps as u64);
                eat(cfg.width.to_bits());
            }
            Method::BarrierFd(cfg) => {
                eat(9);
                eat(cfg.space_points as u64);
                eat(cfg.time_steps as u64);
                eat(cfg.width.to_bits());
            }
        }
        f.finish()
    }

    /// The next-cheaper variant of this method, for graceful
    /// degradation under deadline pressure or a tripped breaker.
    ///
    /// Each step trades accuracy for a documented speedup:
    ///
    /// | family | cut | error bound |
    /// |---|---|---|
    /// | MC / QMC / LSMC | paths ÷ 4 | std. error ×2 (O(N^-1/2)) |
    /// | FD / ADI | grid and steps ≈ halved | O(Δx² + Δt²) error ×≈4 |
    /// | lattices | steps ÷ 2 | O(Δt) error ×2 |
    /// | analytic | — | exact; nothing cheaper exists |
    ///
    /// Returns `None` when no cheaper variant exists (closed form, or
    /// the configuration is already at the floor). The degraded method
    /// has a different [`Method::cache_key`], so degraded plans never
    /// alias full-fidelity cache entries.
    pub fn degrade(&self) -> Option<Method> {
        /// Smallest path/point budget degradation will go down to.
        const MIN_PATHS: u64 = 1_000;
        match self {
            Method::Analytic => None,
            Method::Binomial { steps, kind } => (*steps >= 64).then(|| Method::Binomial {
                steps: steps / 2,
                kind: *kind,
            }),
            Method::Trinomial { steps } => {
                (*steps >= 64).then(|| Method::Trinomial { steps: steps / 2 })
            }
            Method::MultiLattice { steps } => {
                (*steps >= 32).then(|| Method::MultiLattice { steps: steps / 2 })
            }
            Method::MonteCarlo(cfg) => {
                (cfg.paths / 4 >= MIN_PATHS).then_some(Method::MonteCarlo(McConfig {
                    paths: cfg.paths / 4,
                    ..*cfg
                }))
            }
            Method::Qmc(cfg) => (cfg.points / 4 >= MIN_PATHS).then_some(Method::Qmc(QmcConfig {
                points: cfg.points / 4,
                ..*cfg
            })),
            Method::Lsmc(cfg) => (cfg.paths / 4 >= MIN_PATHS).then_some(Method::Lsmc(LsmcConfig {
                paths: cfg.paths / 4,
                ..*cfg
            })),
            Method::Fd1d(cfg) => {
                (cfg.space_points >= 65 && cfg.time_steps >= 32).then_some(Method::Fd1d(Fd1d {
                    space_points: (cfg.space_points / 2) | 1,
                    time_steps: cfg.time_steps / 2,
                    ..*cfg
                }))
            }
            Method::Adi2d(cfg) => {
                (cfg.space_points >= 33 && cfg.time_steps >= 16).then_some(Method::Adi2d(Adi2d {
                    space_points: (cfg.space_points / 2) | 1,
                    time_steps: cfg.time_steps / 2,
                    ..*cfg
                }))
            }
            Method::Adi3d(cfg) => {
                (cfg.space_points >= 21 && cfg.time_steps >= 16).then_some(Method::Adi3d(Adi3d {
                    space_points: (cfg.space_points / 2) | 1,
                    time_steps: cfg.time_steps / 2,
                    ..*cfg
                }))
            }
            Method::BarrierFd(cfg) => (cfg.space_points >= 65 && cfg.time_steps >= 32).then_some(
                Method::BarrierFd(Fd1dBarrier {
                    space_points: (cfg.space_points / 2) | 1,
                    time_steps: cfg.time_steps / 2,
                    ..*cfg
                }),
            ),
        }
    }

    /// Human-readable engine name.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Analytic => "analytic",
            Method::Binomial { .. } => "binomial",
            Method::Trinomial { .. } => "trinomial",
            Method::MultiLattice { .. } => "beg-lattice",
            Method::MonteCarlo(_) => "monte-carlo",
            Method::Qmc(_) => "qmc",
            Method::Lsmc(_) => "lsmc",
            Method::Fd1d(_) => "fd-1d",
            Method::Adi2d(_) => "adi-2d",
            Method::Adi3d(_) => "adi-3d",
            Method::BarrierFd(_) => "barrier-fd",
        }
    }
}

/// Where the work runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backend {
    /// Single thread.
    Sequential,
    /// Shared-memory parallel (rayon's global pool).
    Rayon,
    /// The message-passing substrate with its virtual-time model.
    Cluster {
        /// Rank count.
        ranks: usize,
        /// Machine model.
        machine: Machine,
        /// When set, the driver writes a coordinated checkpoint every
        /// this many step boundaries (`None`: never). Crashes injected
        /// through [`Pricer::fault_plan`] need one to recover from; the
        /// recovered price is bit-identical to the fault-free run.
        checkpoint_interval: Option<usize>,
    },
}

impl Backend {
    /// Cluster backend without checkpoints.
    pub fn cluster(ranks: usize, machine: Machine) -> Self {
        Backend::Cluster {
            ranks,
            machine,
            checkpoint_interval: None,
        }
    }
}

/// Unified pricing outcome.
#[derive(Debug, Clone)]
pub struct PriceReport {
    /// Present value.
    pub price: f64,
    /// Statistical standard error (Monte Carlo engines only).
    pub std_error: Option<f64>,
    /// Virtual-time model (cluster backend only).
    pub time: Option<TimeModel>,
    /// Host wall-clock seconds spent building the plan (market-level
    /// setup). Reports produced by one shared plan all carry the same
    /// plan cost — it was paid once.
    pub plan_seconds: f64,
    /// Host wall-clock seconds spent executing the product.
    pub execute_seconds: f64,
    /// Total host wall-clock seconds (`plan_seconds + execute_seconds`).
    pub wall_seconds: f64,
    /// Engine name.
    pub engine: &'static str,
}

/// Unified error type of the facade.
#[derive(Debug, Clone, PartialEq)]
pub enum PriceError {
    /// Engine/backend/product combination not supported.
    Unsupported(String),
    /// Model validation failed.
    Model(ModelError),
    /// Lattice engine failed.
    Lattice(LatticeError),
    /// Monte Carlo engine failed.
    Mc(McError),
    /// PDE engine failed.
    Pde(PdeError),
    /// The request's deadline expired (or its cancel token tripped)
    /// before the engine finished; any partial work was discarded.
    DeadlineExceeded,
    /// An engine produced a non-finite price — the post-condition check
    /// on every execute path. The offending value is preserved for
    /// diagnostics; it was never returned as a price.
    Numerical {
        /// Which engine produced it.
        engine: &'static str,
        /// The non-finite value (NaN or ±∞), by IEEE bit pattern.
        value: f64,
    },
    /// The worker executing the request panicked; the panic was caught
    /// at the isolation boundary and the payload stringified.
    Panicked(String),
    /// The circuit breaker for this engine is open: recent failures
    /// exceeded the trip threshold and the cooldown has not elapsed.
    CircuitOpen {
        /// Which engine the breaker guards.
        engine: &'static str,
    },
}

impl fmt::Display for PriceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PriceError::Unsupported(s) => write!(f, "unsupported: {s}"),
            PriceError::Model(e) => write!(f, "{e}"),
            PriceError::Lattice(e) => write!(f, "{e}"),
            PriceError::Mc(e) => write!(f, "{e}"),
            PriceError::Pde(e) => write!(f, "{e}"),
            PriceError::DeadlineExceeded => {
                write!(f, "deadline exceeded before the engine finished")
            }
            PriceError::Numerical { engine, value } => {
                write!(f, "{engine} produced a non-finite price: {value}")
            }
            PriceError::Panicked(msg) => write!(f, "worker panicked: {msg}"),
            PriceError::CircuitOpen { engine } => {
                write!(f, "circuit breaker open for {engine}")
            }
        }
    }
}

impl std::error::Error for PriceError {}

impl From<ModelError> for PriceError {
    fn from(e: ModelError) -> Self {
        PriceError::Model(e)
    }
}
// Engine-level `Cancelled` means our cooperative token tripped, which
// only happens on deadline expiry or caller abandonment: surface it as
// the typed `DeadlineExceeded` rather than an engine-specific error.
impl From<LatticeError> for PriceError {
    fn from(e: LatticeError) -> Self {
        match e {
            LatticeError::Cancelled => PriceError::DeadlineExceeded,
            e => PriceError::Lattice(e),
        }
    }
}
impl From<McError> for PriceError {
    fn from(e: McError) -> Self {
        match e {
            McError::Cancelled => PriceError::DeadlineExceeded,
            e => PriceError::Mc(e),
        }
    }
}
impl From<PdeError> for PriceError {
    fn from(e: PdeError) -> Self {
        match e {
            PdeError::Cancelled => PriceError::DeadlineExceeded,
            e => PriceError::Pde(e),
        }
    }
}

/// The unified pricer: a method plus an execution backend.
#[derive(Debug, Clone)]
pub struct Pricer {
    method: Method,
    backend: Backend,
    fault_plan: Option<FaultPlan>,
}

/// The planned, reusable state behind a [`Pricer`] for one
/// `(market, maturity)` pair: the one plan type of the facade, executed
/// per product by [`PricerPlan::execute`] and per group by
/// [`crate::Portfolio::execute_group`].
///
/// For the planful method/backend pairs (FD, ADI, BEG lattice and
/// Monte Carlo on the host backends) this holds the engine's compiled
/// plan plus its reusable scratch buffers; executing `k` products costs
/// one setup instead of `k`, bitwise-identically. Everything else
/// (analytic, the 1-D lattices, QMC, LSMC, barrier FD and all cluster
/// runs) has no reusable market-level state and executes as a one-shot.
///
/// A plan is `Clone`, so a plan cache can hand out copies; an executed
/// copy is bitwise-identical to an executed original (the plan is pure
/// data — grids, factorizations, steppers — and execution never mutates
/// it beyond scratch buffers).
#[derive(Debug, Clone)]
pub struct PricerPlan {
    pub(crate) pricer: Pricer,
    market: GbmMarket,
    maturity: f64,
    plan_seconds: f64,
    pub(crate) kind: PlanKind,
    cancel: mdp_math::CancelToken,
}

/// Which compiled engine state a [`PricerPlan`] carries.
#[derive(Debug, Clone)]
pub(crate) enum PlanKind {
    Fd1d(Box<Fd1dPlan>, Fd1dScratch),
    Adi(Box<AdiPlan>, AdiScratch),
    Lattice(Box<LatticePlan>, LatticeScratch),
    Mc(Box<McPlan>),
    OneShot,
}

impl Pricer {
    /// Pricer with the given method on the sequential backend.
    pub fn new(method: Method) -> Self {
        Pricer {
            method,
            backend: Backend::Sequential,
            fault_plan: None,
        }
    }

    /// Select the execution backend.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Inject a deterministic fault schedule into every cluster run.
    /// Message drops and delays go through reliable delivery; crashes
    /// need a `checkpoint_interval` to recover from (a plan that
    /// crashes ranks on a run without one is
    /// [`PriceError::Unsupported`]). Without a plan, cluster runs
    /// execute fault-free.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The configured method.
    pub fn method(&self) -> &Method {
        &self.method
    }

    /// The configured backend.
    pub fn backend_ref(&self) -> Backend {
        self.backend
    }

    /// A sensible default method for a product/market pair:
    /// closed form when available, CN finite differences in 1-D, the
    /// BEG lattice in 2-D, the 3-D Douglas ADI grid in 3-D, (LS)MC
    /// beyond.
    ///
    /// The full routing table, by `(dimension, exercise, payoff class)`:
    ///
    /// | dimension | exercise | payoff | method |
    /// |---|---|---|---|
    /// | any | any | closed form exists | `Analytic` |
    /// | any | any | path-dependent | `MonteCarlo` (200k paths, 50 steps) |
    /// | 1 | any | terminal | `Fd1d::default()` (Crank–Nicolson 241 × 120 with Richardson over its 121 × 60 half grid) |
    /// | 2 | any | terminal | `MultiLattice` (100 steps) |
    /// | 3 | any | terminal | `Adi3d` (41³ grid, 40 steps) |
    /// | ≥4 | European | terminal | `MonteCarlo` (200k paths) |
    /// | ≥4 | American | terminal | `Lsmc` |
    pub fn auto(market: &GbmMarket, product: &Product) -> Self {
        use mdp_model::ExerciseStyle;
        if mdp_model::analytic::price_product(market, product).is_some() {
            return Pricer::new(Method::Analytic);
        }
        let d = market.dim();
        let method = match (d, product.exercise, product.payoff.is_path_dependent()) {
            (_, _, true) => Method::MonteCarlo(McConfig {
                paths: 200_000,
                steps: 50,
                ..Default::default()
            }),
            (1, _, _) => Method::Fd1d(Fd1d::default()),
            (2, _, _) => Method::MultiLattice { steps: 100 },
            (3, _, _) => Method::Adi3d(Adi3d::default()),
            (_, ExerciseStyle::European, _) => Method::monte_carlo(200_000),
            (_, ExerciseStyle::American, _) => Method::Lsmc(LsmcConfig::default()),
        };
        Pricer::new(method)
    }

    /// Compile the market-level plan for horizon `maturity`.
    ///
    /// Products executed against the plan must carry the same maturity;
    /// a mismatch is a typed [`PriceError::Unsupported`], never a wrong
    /// number.
    pub fn plan(&self, market: &GbmMarket, maturity: f64) -> Result<PricerPlan, PriceError> {
        self.compile(market, maturity, false)
    }

    /// [`Pricer::plan`], except that `fd_ladder` also compiles the FD
    /// plan on the rayon backend: the facade has no rayon FD path, but
    /// [`crate::Portfolio::execute_group`] prices strike ladders over
    /// that plan in rayon chunks.
    pub(crate) fn compile(
        &self,
        market: &GbmMarket,
        maturity: f64,
        fd_ladder: bool,
    ) -> Result<PricerPlan, PriceError> {
        let start = std::time::Instant::now();
        if !(maturity > 0.0 && maturity.is_finite()) {
            return Err(PriceError::Model(ModelError::InvalidParameter {
                what: "maturity",
                value: maturity,
            }));
        }
        let kind = match (&self.method, self.backend) {
            (Method::Fd1d(cfg), Backend::Sequential | Backend::Rayon)
                if fd_ladder || self.backend == Backend::Sequential =>
            {
                PlanKind::Fd1d(
                    Box::new(cfg.plan(market, maturity)?),
                    Fd1dScratch::default(),
                )
            }
            (Method::Adi2d(cfg), Backend::Sequential | Backend::Rayon) => {
                // The rayon backend is the parallel line solves.
                let cfg = Adi2d {
                    parallel: cfg.parallel || self.backend == Backend::Rayon,
                    ..*cfg
                };
                PlanKind::Adi(Box::new(cfg.plan(market, maturity)?), AdiScratch::default())
            }
            (Method::Adi3d(cfg), Backend::Sequential) => {
                PlanKind::Adi(Box::new(cfg.plan(market, maturity)?), AdiScratch::default())
            }
            (Method::MultiLattice { steps }, Backend::Sequential | Backend::Rayon) => {
                PlanKind::Lattice(
                    Box::new(MultiLattice::new(*steps).plan(market, maturity)?),
                    LatticeScratch::default(),
                )
            }
            (Method::MonteCarlo(cfg), Backend::Sequential | Backend::Rayon) => {
                PlanKind::Mc(Box::new(McEngine::new(*cfg).plan(market, maturity)?))
            }
            // No reusable market-level state: analytic, the 1-D
            // lattices, QMC, LSMC, barrier FD, and every cluster run
            // (whose setup lives inside the SPMD driver).
            _ => PlanKind::OneShot,
        };
        Ok(PricerPlan {
            pricer: self.clone(),
            market: market.clone(),
            maturity,
            plan_seconds: start.elapsed().as_secs_f64(),
            kind,
            cancel: mdp_math::CancelToken::never(),
        })
    }

    /// Price the product: plan, then execute.
    pub fn price(&self, market: &GbmMarket, product: &Product) -> Result<PriceReport, PriceError> {
        let mut plan = self.plan(market, product.maturity)?;
        plan.execute(product)
    }

    /// The one-shot dispatch for method/backend pairs without reusable
    /// planned state (every cluster run among them). The planful pairs
    /// never get here: [`Pricer::plan`] compiles them.
    fn price_one_shot(
        &self,
        market: &GbmMarket,
        product: &Product,
    ) -> Result<(f64, Option<f64>, Option<TimeModel>), PriceError> {
        // The fault schedule of a cluster run; absent a user-supplied
        // plan, a fault-free one. A policy no driver can honour is
        // rejected before any rank starts.
        let fault = self.fault_plan.clone().unwrap_or_else(|| FaultPlan::new(0));
        if let Backend::Cluster {
            checkpoint_interval,
            ..
        } = self.backend
        {
            check_policy(&fault, checkpoint_interval).map_err(PriceError::Unsupported)?;
        }
        Ok(match (&self.method, self.backend) {
            (Method::Analytic, Backend::Sequential) => {
                let p = mdp_model::analytic::price_product(market, product).ok_or_else(|| {
                    PriceError::Unsupported(format!("no closed form for {:?}", product.payoff))
                })?;
                (p, None, None)
            }
            (Method::Binomial { steps, kind }, Backend::Sequential) => {
                let lat = BinomialLattice {
                    kind: *kind,
                    steps: *steps,
                };
                (lat.price(market, product)?.price, None, None)
            }
            (Method::Trinomial { steps }, Backend::Sequential) => (
                TrinomialLattice::new(*steps).price(market, product)?.price,
                None,
                None,
            ),
            (
                Method::MultiLattice { steps },
                Backend::Cluster {
                    ranks,
                    machine,
                    checkpoint_interval,
                },
            ) => {
                let out = price_cluster(
                    market,
                    product,
                    *steps,
                    ranks,
                    machine,
                    Decomposition::Block,
                    fault,
                    checkpoint_interval,
                )?;
                (out.price, None, Some(out.time))
            }
            (
                Method::MonteCarlo(cfg),
                Backend::Cluster {
                    ranks,
                    machine,
                    checkpoint_interval,
                },
            ) => {
                let out = price_mc_cluster(
                    market,
                    product,
                    *cfg,
                    ranks,
                    machine,
                    fault,
                    checkpoint_interval,
                )?;
                (out.result.price, Some(out.result.std_error), Some(out.time))
            }
            (Method::Qmc(cfg), Backend::Sequential) => {
                let r = price_qmc(market, product, *cfg)?;
                (r.price, Some(r.std_error), None)
            }
            (Method::Lsmc(cfg), Backend::Sequential) => {
                let r = price_lsmc(market, product, *cfg)?;
                (r.price, Some(r.std_error), None)
            }
            (Method::Lsmc(cfg), Backend::Rayon) => {
                let r = price_lsmc_rayon(market, product, *cfg)?;
                (r.price, Some(r.std_error), None)
            }
            (
                Method::Lsmc(cfg),
                Backend::Cluster {
                    ranks,
                    machine,
                    checkpoint_interval,
                },
            ) => {
                let out = price_lsmc_cluster(
                    market,
                    product,
                    *cfg,
                    ranks,
                    machine,
                    fault,
                    checkpoint_interval,
                    CheckpointMode::AsyncIncremental,
                )?;
                (out.result.price, Some(out.result.std_error), Some(out.time))
            }
            (
                Method::Fd1d(cfg),
                Backend::Cluster {
                    ranks,
                    machine,
                    checkpoint_interval,
                },
            ) => {
                if cfg.scheme != Scheme::Explicit {
                    return Err(PriceError::Unsupported(
                        "the distributed FD driver runs the explicit scheme only; \
                         set Scheme::Explicit (mind the stability bound)"
                            .into(),
                    ));
                }
                let out = ClusterFd1d {
                    space_points: cfg.space_points,
                    time_steps: cfg.time_steps,
                    width: cfg.width,
                }
                .price(
                    market,
                    product,
                    ranks,
                    machine,
                    fault,
                    checkpoint_interval,
                )?;
                (out.price, None, Some(out.time))
            }
            (Method::BarrierFd(cfg), Backend::Sequential) => {
                (cfg.price(market, product)?.price, None, None)
            }
            // No engine runs the rest: rayon or cluster analytic, 1-D
            // lattices, QMC and barrier FD; rayon FD-1D; cluster ADI;
            // rayon ADI-3D.
            _ => {
                return Err(PriceError::Unsupported(format!(
                    "{} does not support backend {:?}",
                    self.method.name(),
                    self.backend
                )))
            }
        })
    }
}

impl PricerPlan {
    /// Horizon the plan was built for.
    pub fn maturity(&self) -> f64 {
        self.maturity
    }

    /// Seconds spent compiling the plan.
    pub fn plan_seconds(&self) -> f64 {
        self.plan_seconds
    }

    /// The market the plan currently reflects (after any applied ticks).
    pub fn market(&self) -> &GbmMarket {
        &self.market
    }

    /// Install a cooperative cancel token for subsequent executes.
    ///
    /// The token is forwarded into the compiled engine plan, which
    /// polls it at its natural check granularity (MC path blocks,
    /// lattice/FD/ADI time steps, trapezoid recursion cuts); a tripped
    /// token aborts the run with [`PriceError::DeadlineExceeded`] and
    /// discards partial state. One-shot kinds check once before
    /// dispatch. Polling never touches numerical state: a run that
    /// completes despite a live token is bitwise-identical to a run
    /// without one. Installing `CancelToken::never()` restores the
    /// inert default (plan clones keep whatever token they carried).
    pub fn set_cancel(&mut self, cancel: mdp_math::CancelToken) {
        match &mut self.kind {
            PlanKind::Fd1d(plan, _) => plan.set_cancel(cancel.clone()),
            PlanKind::Adi(plan, _) => plan.set_cancel(cancel.clone()),
            PlanKind::Lattice(plan, _) => plan.set_cancel(cancel.clone()),
            PlanKind::Mc(plan) => plan.set_cancel(cancel.clone()),
            PlanKind::OneShot => {}
        }
        self.cancel = cancel;
    }

    /// Patch the plan in place for a one-field market tick.
    ///
    /// The planful kinds delegate to their engine's own `apply_tick`,
    /// rebuilding only the components the ticked field invalidates (see
    /// the dependency table in DESIGN.md); the one-shot kind has no
    /// compiled state, so swapping the market is the whole patch. The
    /// patched plan executes bitwise-identically to a plan freshly
    /// compiled for the ticked market.
    ///
    /// Patch time is plan-construction work, so it accrues to
    /// [`PricerPlan::plan_seconds`]: reports executed off a patched plan
    /// account for the full setup cost actually paid, exactly as
    /// fresh-plan reports do.
    pub fn apply_tick(&mut self, delta: &MarketDelta) -> Result<TickOutcome, PriceError> {
        let start = std::time::Instant::now();
        let market = self.market.apply_delta(delta)?;
        let outcome = match &mut self.kind {
            PlanKind::Fd1d(plan, _) => plan.apply_tick(delta)?,
            PlanKind::Adi(plan, _) => plan.apply_tick(delta)?,
            PlanKind::Lattice(plan, _) => plan.apply_tick(delta)?,
            PlanKind::Mc(plan) => plan.apply_tick(delta)?,
            PlanKind::OneShot => TickOutcome::Patched,
        };
        self.market = market;
        self.plan_seconds += start.elapsed().as_secs_f64();
        Ok(outcome)
    }

    /// Execute one product over the planned state. Bitwise-identical to
    /// a one-shot [`Pricer::price`] of the same product. (The rayon FD
    /// plan that only [`crate::Portfolio::plan_group`] compiles runs the
    /// sequential solve here, which its ladder lanes equal bit for bit.)
    pub fn execute(&mut self, product: &Product) -> Result<PriceReport, PriceError> {
        let start = std::time::Instant::now();
        if product.maturity != self.maturity {
            return Err(PriceError::Unsupported(format!(
                "plan built for maturity {}, product has {}",
                self.maturity, product.maturity
            )));
        }
        // One check before dispatch: answers one-shot kinds (which
        // have no in-loop polling) and saves planful kinds a doomed
        // setup pass when the deadline already expired.
        if self.cancel.is_cancelled() {
            return Err(PriceError::DeadlineExceeded);
        }
        let parallel = matches!(self.pricer.backend, Backend::Rayon);
        let (price, std_error, time) = match &mut self.kind {
            PlanKind::Fd1d(plan, scratch) => {
                product.validate_for(&self.market)?;
                (plan.execute(product, scratch)?.price, None, None)
            }
            PlanKind::Adi(plan, scratch) => {
                product.validate_for(&self.market)?;
                (plan.execute(product, scratch)?.price, None, None)
            }
            PlanKind::Lattice(plan, scratch) => {
                (plan.execute(product, parallel, scratch)?.price, None, None)
            }
            PlanKind::Mc(plan) => {
                let r = plan.execute(product, parallel)?;
                (r.price, Some(r.std_error), None)
            }
            PlanKind::OneShot => self.pricer.price_one_shot(&self.market, product)?,
        };
        // Post-condition: a price must be finite. A NaN or infinity
        // here is an engine defect (or injected fault), and returning
        // it would poison every downstream aggregate silently.
        if !price.is_finite() {
            return Err(PriceError::Numerical {
                engine: self.pricer.method.name(),
                value: price,
            });
        }
        let execute_seconds = start.elapsed().as_secs_f64();
        Ok(PriceReport {
            price,
            std_error,
            time,
            plan_seconds: self.plan_seconds,
            execute_seconds,
            wall_seconds: self.plan_seconds + execute_seconds,
            engine: self.pricer.method.name(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdp_math::approx_eq;
    use mdp_model::{Payoff, Product};

    fn call1() -> (GbmMarket, Product) {
        (
            GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap(),
            Product::european(
                Payoff::BasketCall {
                    weights: vec![1.0],
                    strike: 100.0,
                },
                1.0,
            ),
        )
    }

    #[test]
    fn every_engine_agrees_on_the_vanilla_call() {
        let (m, p) = call1();
        let exact = Pricer::new(Method::Analytic).price(&m, &p).unwrap().price;
        let candidates: Vec<(f64, &str)> = vec![
            (
                Pricer::new(Method::Binomial {
                    steps: 2000,
                    kind: BinomialKind::CoxRossRubinstein,
                })
                .price(&m, &p)
                .unwrap()
                .price,
                "binomial",
            ),
            (
                Pricer::new(Method::Trinomial { steps: 800 })
                    .price(&m, &p)
                    .unwrap()
                    .price,
                "trinomial",
            ),
            (
                Pricer::new(Method::MultiLattice { steps: 1500 })
                    .price(&m, &p)
                    .unwrap()
                    .price,
                "beg",
            ),
            (
                Pricer::new(Method::Fd1d(Fd1d::default()))
                    .price(&m, &p)
                    .unwrap()
                    .price,
                "fd1d",
            ),
        ];
        for (price, name) in candidates {
            assert!(approx_eq(price, exact, 5e-3), "{name}: {price} vs {exact}");
        }
        let mc = Pricer::new(Method::monte_carlo(100_000))
            .price(&m, &p)
            .unwrap();
        assert!((mc.price - exact).abs() < 3.5 * mc.std_error.unwrap());
    }

    #[test]
    fn cluster_backend_returns_time_model_and_same_price() {
        let (m, p) = call1();
        let seq = Pricer::new(Method::monte_carlo(20_000))
            .price(&m, &p)
            .unwrap();
        let par = Pricer::new(Method::monte_carlo(20_000))
            .backend(Backend::cluster(4, Machine::cluster2002()))
            .price(&m, &p)
            .unwrap();
        assert_eq!(seq.price.to_bits(), par.price.to_bits());
        assert!(seq.time.is_none());
        let tm = par.time.unwrap();
        assert_eq!(tm.ranks, 4);
        assert!(tm.makespan > 0.0);
    }

    #[test]
    fn lsmc_cluster_checkpoint_routing_recovers_from_crashes() {
        let m = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
        let p = Product::american(
            Payoff::BasketPut {
                weights: vec![1.0],
                strike: 110.0,
            },
            1.0,
        );
        let backend = Backend::Cluster {
            ranks: 4,
            machine: Machine::cluster2002(),
            checkpoint_interval: Some(3),
        };
        let method = Method::Lsmc(LsmcConfig {
            paths: 4_000,
            steps: 10,
            block_size: 250,
            ..Default::default()
        });
        let clean = Pricer::new(method.clone())
            .backend(backend)
            .price(&m, &p)
            .unwrap();
        let faulted = Pricer::new(method)
            .backend(backend)
            .fault_plan(FaultPlan::new(9).with_crash(1, 4))
            .price(&m, &p)
            .unwrap();
        assert_eq!(clean.price.to_bits(), faulted.price.to_bits());
        assert!(faulted.time.unwrap().total_ckpt_time > 0.0);
    }

    #[test]
    fn auto_selects_reasonably() {
        let (m1, p1) = call1();
        assert_eq!(Pricer::auto(&m1, &p1).method.name(), "analytic");
        let m3 = GbmMarket::symmetric(3, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
        let basket = Product::european(
            Payoff::BasketCall {
                weights: Product::equal_weights(3),
                strike: 100.0,
            },
            1.0,
        );
        assert_eq!(Pricer::auto(&m3, &basket).method.name(), "adi-3d");
        let m2 = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
        let basket2 = Product::european(
            Payoff::BasketCall {
                weights: Product::equal_weights(2),
                strike: 100.0,
            },
            1.0,
        );
        assert_eq!(Pricer::auto(&m2, &basket2).method.name(), "beg-lattice");
        let m8 = GbmMarket::symmetric(8, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
        let basket8 = Product::european(
            Payoff::BasketCall {
                weights: Product::equal_weights(8),
                strike: 100.0,
            },
            1.0,
        );
        assert_eq!(Pricer::auto(&m8, &basket8).method.name(), "monte-carlo");
        let am8 = Product::american(
            Payoff::BasketPut {
                weights: Product::equal_weights(8),
                strike: 100.0,
            },
            1.0,
        );
        assert_eq!(Pricer::auto(&m8, &am8).method.name(), "lsmc");
        let asian = Product::european(Payoff::AsianCall { strike: 100.0 }, 1.0);
        assert_eq!(Pricer::auto(&m1, &asian).method.name(), "monte-carlo");
    }

    #[test]
    fn unsupported_combinations_error_cleanly() {
        let (m, p) = call1();
        let e = Pricer::new(Method::Analytic)
            .backend(Backend::Rayon)
            .price(&m, &p)
            .unwrap_err();
        assert!(matches!(e, PriceError::Unsupported(_)));
        let e2 = Pricer::new(Method::Qmc(QmcConfig::default()))
            .backend(Backend::cluster(2, Machine::ideal()))
            .price(&m, &p)
            .unwrap_err();
        assert!(matches!(e2, PriceError::Unsupported(_)));
    }

    #[test]
    fn analytic_without_closed_form_errors() {
        let m = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
        let p = Product::european(
            Payoff::BasketCall {
                weights: Product::equal_weights(2),
                strike: 100.0,
            },
            1.0,
        );
        assert!(matches!(
            Pricer::new(Method::Analytic).price(&m, &p),
            Err(PriceError::Unsupported(_))
        ));
    }

    #[test]
    fn report_carries_metadata() {
        let (m, p) = call1();
        let r = Pricer::new(Method::monte_carlo(5_000))
            .price(&m, &p)
            .unwrap();
        assert_eq!(r.engine, "monte-carlo");
        assert!(r.wall_seconds > 0.0);
        assert!(r.execute_seconds > 0.0);
        assert!(r.plan_seconds >= 0.0);
        assert!((r.wall_seconds - (r.plan_seconds + r.execute_seconds)).abs() < 1e-12);
        assert!(r.std_error.is_some());
    }

    #[test]
    fn plan_amortizes_across_products_bitwise() {
        let m = GbmMarket::single(100.0, 0.25, 0.01, 0.04).unwrap();
        let pricer = Pricer::new(Method::Fd1d(Fd1d::default()));
        let mut plan = pricer.plan(&m, 0.75).unwrap();
        for strike in [80.0, 100.0, 120.0] {
            let p = Product::european(
                Payoff::BasketCall {
                    weights: vec![1.0],
                    strike,
                },
                0.75,
            );
            let planned = plan.execute(&p).unwrap();
            let oneshot = pricer.price(&m, &p).unwrap();
            assert_eq!(planned.price.to_bits(), oneshot.price.to_bits());
        }
        // Wrong maturity is a typed error, not a wrong number.
        let p_wrong = Product::european(
            Payoff::BasketCall {
                weights: vec![1.0],
                strike: 100.0,
            },
            1.5,
        );
        assert!(matches!(
            plan.execute(&p_wrong),
            Err(PriceError::Unsupported(_))
        ));
    }

    #[test]
    fn apply_tick_accrues_to_plan_seconds() {
        let (m, p) = call1();
        let mut plan = Pricer::new(Method::Fd1d(Fd1d::default()))
            .plan(&m, 1.0)
            .unwrap();
        let fresh_cost = plan.plan_seconds();
        plan.apply_tick(&MarketDelta::Spot {
            asset: 0,
            spot: 101.0,
        })
        .unwrap();
        // Patching is plan work: the accounted setup cost grows, and
        // reports executed afterwards carry the full amount.
        assert!(plan.plan_seconds() > fresh_cost);
        let r = plan.execute(&p).unwrap();
        assert_eq!(r.plan_seconds.to_bits(), plan.plan_seconds().to_bits());
        assert!((r.wall_seconds - (r.plan_seconds + r.execute_seconds)).abs() < 1e-12);
    }

    #[test]
    fn explicit_fd_routes_to_the_cluster_driver() {
        let (m, p) = call1();
        let cfg = Fd1d {
            space_points: 101,
            time_steps: 4000,
            scheme: Scheme::Explicit,
            ..Fd1d::default()
        };
        let seq = Pricer::new(Method::Fd1d(cfg)).price(&m, &p).unwrap();
        let clu = Pricer::new(Method::Fd1d(cfg))
            .backend(Backend::cluster(4, Machine::cluster2002()))
            .price(&m, &p)
            .unwrap();
        assert_eq!(seq.price.to_bits(), clu.price.to_bits());
        assert!(clu.time.is_some());
        // Crank–Nicolson has no distributed driver: typed error.
        let cn = Pricer::new(Method::Fd1d(Fd1d::default()))
            .backend(Backend::cluster(4, Machine::cluster2002()))
            .price(&m, &p);
        assert!(matches!(cn, Err(PriceError::Unsupported(_))));
    }

    #[test]
    fn degrade_is_cheaper_keyed_distinctly_and_bottoms_out() {
        // MC: quarter the paths, everything else untouched.
        let m = Method::monte_carlo(200_000);
        let d = m.degrade().unwrap();
        match (&m, &d) {
            (Method::MonteCarlo(a), Method::MonteCarlo(b)) => {
                assert_eq!(b.paths, a.paths / 4);
                assert_eq!(b.seed, a.seed);
            }
            _ => panic!("degrade changed the engine family"),
        }
        assert_ne!(m.cache_key(), d.cache_key());
        // The chain terminates at the documented floor.
        let mut cur = m;
        let mut hops = 0;
        while let Some(next) = cur.degrade() {
            cur = next;
            hops += 1;
            assert!(hops < 64, "degrade chain did not terminate");
        }
        // Analytic has nothing cheaper.
        assert!(Method::Analytic.degrade().is_none());
        // FD keeps an odd point count (grid centring) and halves steps.
        if let Some(Method::Fd1d(f)) = Method::Fd1d(Fd1d::default()).degrade() {
            assert_eq!(f.space_points % 2, 1);
        } else {
            panic!("default FD should degrade");
        }
    }

    #[test]
    fn tripped_cancel_token_yields_deadline_exceeded_then_resets() {
        let (m, p) = call1();
        for method in [
            Method::Fd1d(Fd1d::default()),
            Method::monte_carlo(20_000),
            Method::MultiLattice { steps: 64 },
            Method::Analytic, // one-shot kind: pre-dispatch check
        ] {
            let pricer = Pricer::new(method);
            let baseline = pricer.price(&m, &p).unwrap().price;
            let mut plan = pricer.plan(&m, 1.0).unwrap();
            let token = mdp_math::CancelToken::new();
            token.cancel();
            plan.set_cancel(token);
            assert!(matches!(
                plan.execute(&p),
                Err(PriceError::DeadlineExceeded)
            ));
            // Restoring the inert token restores bitwise behaviour.
            plan.set_cancel(mdp_math::CancelToken::never());
            let again = plan.execute(&p).unwrap().price;
            assert_eq!(again.to_bits(), baseline.to_bits());
        }
    }

    #[test]
    fn non_finite_or_non_positive_maturity_is_a_typed_model_error() {
        let (m, _) = call1();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let e = Pricer::new(Method::Fd1d(Fd1d::default()))
                .plan(&m, bad)
                .unwrap_err();
            assert!(matches!(
                e,
                PriceError::Model(ModelError::InvalidParameter {
                    what: "maturity",
                    ..
                })
            ));
        }
    }

    #[test]
    fn pde_plans_validate_the_product_before_dispatch() {
        // A basket with one weight too many is the caller's model error
        // on every planful PDE kind, not an engine error.
        for (d, method) in [
            (1, Method::Fd1d(Fd1d::default())),
            (2, Method::Adi2d(Adi2d::default())),
            (3, Method::Adi3d(Adi3d::default())),
        ] {
            let m = GbmMarket::symmetric(d, 100.0, 0.2, 0.0, 0.05, 0.0).unwrap();
            let p = Product::european(
                Payoff::BasketCall {
                    weights: vec![1.0 / (d + 1) as f64; d + 1],
                    strike: 100.0,
                },
                1.0,
            );
            let mut plan = Pricer::new(method).plan(&m, 1.0).unwrap();
            let e = plan.execute(&p).unwrap_err();
            assert!(
                matches!(e, PriceError::Model(ModelError::DimensionMismatch { .. })),
                "d={d}: {e:?}"
            );
        }
    }

    #[test]
    fn error_conversions_display() {
        let e: PriceError = ModelError::InvalidParameter {
            what: "spot",
            value: -1.0,
        }
        .into();
        assert!(e.to_string().contains("spot"));
    }
}
