#include "cosim/rack_cosim.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "rack/rack_builder.hpp"
#include "workloads/ml_profiles.hpp"

namespace photorack::cosim {

const config::EnumCodec<AdmissionPolicy>& admission_policy_codec() {
  static const config::EnumCodec<AdmissionPolicy> codec(
      "admission policy", {{"drop", AdmissionPolicy::kDrop},
                           {"queue", AdmissionPolicy::kQueue}});
  return codec;
}

namespace {

double to_ms(sim::TimePs t) {
  return static_cast<double>(t) / static_cast<double>(sim::kPsPerMs);
}

/// All-pairs AWGR plan at co-sim scale: `lambdas_per_pair` parallel AWGRs of
/// radix `mcms`, every port fully populated, so each (src,dst) pair owns
/// exactly `lambdas_per_pair` direct wavelengths — the §V-B case (A)
/// topology shrunk to the slice of the rack one job mix actually stresses.
rack::AwgrFabricPlan small_awgr_plan(const CosimConfig& cfg) {
  rack::AwgrFabricPlan plan;
  plan.parallel_awgrs = cfg.fabric.lambdas_per_pair;
  plan.awgr_radix = cfg.fabric.mcms;
  plan.port_wavelength_cap = cfg.fabric.mcms;
  plan.lambdas_per_port.assign(static_cast<std::size_t>(cfg.fabric.lambdas_per_pair),
                               cfg.fabric.mcms);
  plan.full_coverage_awgrs = cfg.fabric.lambdas_per_pair;
  plan.min_direct_lambdas_per_pair = cfg.fabric.lambdas_per_pair;
  plan.direct_pair_bandwidth =
      cfg.fabric.gbps_per_wavelength * cfg.fabric.lambdas_per_pair;
  return plan;
}

CosimConfig validated(CosimConfig cfg, const rack::RackConfig& rack) {
  if (cfg.fabric.mcms < 2) throw std::invalid_argument("RackCosim: need >= 2 MCMs");
  if (cfg.fabric.lambdas_per_pair < 1)
    throw std::invalid_argument("RackCosim: need >= 1 wavelength per pair");
  if (cfg.fabric.gbps_per_wavelength.value <= 0.0)
    throw std::invalid_argument("RackCosim: wavelength rate must be positive");
  if (cfg.arrivals_per_ms <= 0.0)
    throw std::invalid_argument("RackCosim: arrival rate must be positive");
  if (cfg.mean_duration <= 0)
    throw std::invalid_argument("RackCosim: mean_duration must be positive");
  if (cfg.sim_time < 0)
    throw std::invalid_argument("RackCosim: sim_time must be non-negative");
  if (cfg.min_speed_fraction <= 0.0 || cfg.min_speed_fraction > 1.0)
    throw std::invalid_argument("RackCosim: min_speed_fraction must be in (0,1]");
  if (cfg.traffic_scale < 0.0 || cfg.gpu_traffic_mult < 0.0)
    throw std::invalid_argument("RackCosim: traffic scales must be non-negative");
  if (cfg.idle_power_fraction < 0.0 || cfg.idle_power_fraction > 1.0)
    throw std::invalid_argument("RackCosim: idle_power_fraction must be in [0,1]");
  if (cfg.admission == AdmissionPolicy::kQueue && cfg.queue_cap < 1)
    throw std::invalid_argument("RackCosim: queue_cap must be >= 1 under queueing");
  if (cfg.ml.enabled) {
    if (cfg.ml.accelerators < 2)
      throw std::invalid_argument("RackCosim: ml.accelerators must be >= 2");
    if (cfg.ml.steps < 1)
      throw std::invalid_argument("RackCosim: ml.steps must be >= 1");
    if (cfg.ml.gradient_mb < 0.0)
      throw std::invalid_argument("RackCosim: ml.gradient_mb must be >= 0");
    if (cfg.ml.compute_ms < 0.0)
      throw std::invalid_argument("RackCosim: ml.compute_ms must be >= 0");
    if (cfg.ml.mix_fraction < 0.0 || cfg.ml.mix_fraction > 1.0)
      throw std::invalid_argument("RackCosim: ml.mix_fraction must be in [0,1]");
    if (cfg.ml.demand_gbps <= 0.0)
      throw std::invalid_argument("RackCosim: ml.demand_gbps must be positive");
    if (cfg.ml.electronic_derate <= 0.0 || cfg.ml.electronic_derate > 1.0)
      throw std::invalid_argument("RackCosim: ml.electronic_derate must be in (0,1]");
    if (cfg.ml.jitter_frac < 0.0)
      throw std::invalid_argument("RackCosim: ml.jitter_frac must be >= 0");
  }
  // The power trace describes the rack the allocator manages.
  cfg.baseline.nodes = rack.nodes;
  cfg.baseline.gpus_per_node = rack.node.gpus;
  return cfg;
}

/// Whether a fabric fault cuts `spec`: a dead MCM severs every flow touching
/// it, a dead link only the flows on its own (src, dst) pair.
bool severs(const fault::FaultEvent& ev, const net::FlowSpec& spec) {
  return ev.cls == fault::ComponentClass::kMcm ? (spec.src == ev.a || spec.dst == ev.a)
                                               : (spec.src == ev.a && spec.dst == ev.b);
}

}  // namespace

void MlStreamStats::record_step(double ms, double collective_share, double stretch,
                                int step_phases) {
  ++steps;
  phases += static_cast<std::uint64_t>(step_phases);
  step_ms.add(ms);
  coll_frac.add(collective_share);
  straggler.add(stretch);
}

void MlStreamStats::merge(const MlStreamStats& other) {
  enabled = enabled || other.enabled;
  offered += other.offered;
  accepted += other.accepted;
  completed += other.completed;
  steps += other.steps;
  phases += other.phases;
  step_ms.merge(other.step_ms);
  coll_frac.merge(other.coll_frac);
  straggler.merge(other.straggler);
}

MlStats MlStreamStats::report() const {
  return MlStats{.enabled = enabled, .jobs_offered = offered, .jobs_accepted = accepted,
                 .jobs_completed = completed, .steps = steps, .collective_phases = phases,
                 .step_ms = disagg::tails_of(step_ms),
                 .coll_frac = disagg::tails_of(coll_frac),
                 .straggler = disagg::tails_of(straggler)};
}

RackCosim::RackCosim(const rack::RackConfig& rack, disagg::AllocationPolicy policy,
                     const workloads::UsageModel& usage, CosimConfig cfg,
                     obs::Obs obs)
    : rack_(rack),
      cfg_(validated(cfg, rack)),
      usage_(usage),
      demand_(workloads::FlowDemandModel::cpu_memory()),
      allocator_(rack, policy),
      fabric_(std::make_unique<net::WavelengthFabric>(cfg_.fabric.mcms, small_awgr_plan(cfg_))),
      // Same child-stream layout as FlowSimulator: router seed is the
      // first draw of child(1), arrivals come from child(2).
      engine_(*fabric_, cfg_.fabric.piggyback_interval, sim::Rng(cfg_.seed).child(1)()),
      base_rng_(cfg_.seed),
      arrival_rng_(base_rng_.child(2)),
      // Built after validation: throws std::invalid_argument on bad shape
      // knobs (and std::runtime_error on an unreadable trace file).
      arrival_process_(
          traffic::make_arrival_process(cfg_.arrival, cfg_.arrivals_per_ms)),
      obs_(obs) {
  tally_.ml.enabled = cfg_.ml.enabled;
  // Register scopes/metrics and hook the energy trace before the first
  // step_to below, so the t=0 power level lands on the counter track too.
  setup_obs();

  // §VI-C overhead at co-sim scale: every wavelength the fabric lights burns
  // transceiver energy whether or not a flow uses it (lasers always on).
  phot::PhotonicPowerConfig photonic;
  photonic.mcms = cfg_.fabric.mcms;
  photonic.wavelengths_per_mcm = cfg_.fabric.lambdas_per_pair * cfg_.fabric.mcms;
  photonic.gbps_per_wavelength = cfg_.fabric.gbps_per_wavelength;
  photonic_w_ = phot::photonic_power_overhead(photonic, cfg_.baseline).total.value;

  energy_.step_to(0.0, phot::Watts{compute_power_w() + photonic_w_});
  if (obs_.metrics) {
    take_sample();  // the t=0 row: idle pools, lasers-on floor power
    schedule_next_sample();
  }
  if (cfg_.fault.enabled) {
    // The fault timeline is a pure function of (fault config, geometry,
    // seed): derived here, armed as plain queue events.  Disabled runs skip
    // this block entirely — no events, no RNG draws, no state vectors — so
    // their event sequence numbers and output bytes are unchanged.
    fault_sched_ = std::make_unique<fault::FaultScheduler>(
        cfg_.fault, cfg_.fabric.mcms, rack_.nodes, cfg_.seed, cfg_.sim_time);
    tally_.fault = fault_sched_->tally(cfg_.sim_time);
    tally_.fault.enabled = true;
    fault_sched_->arm(queue_, [this](const fault::FaultEvent& ev) { on_fault(ev); });
  }
  schedule_next_arrival();
}

void RackCosim::setup_obs() {
  if (!obs_.any()) return;
  engine_.attach_obs(obs_);
  if (obs_.profiler) {
    sc_arrival_ = obs_.profiler->scope("cosim.arrival");
    sc_allocate_ = obs_.profiler->scope("disagg.allocate");
    sc_release_ = obs_.profiler->scope("disagg.release");
    sc_sketch_ = obs_.profiler->scope("stats.sketch_insert");
    // Registered only when faults are on so fault-free profile output keeps
    // its historical scope set.
    if (cfg_.fault.enabled) sc_fault_ = obs_.profiler->scope("fault.inject");
  }
  if (obs_.metrics) {
    auto& m = *obs_.metrics;
    m_.backlog_depth = m.gauge("backlog_depth");
    m_.live_jobs = m.gauge("live_jobs");
    m_.fabric_util = m.gauge("fabric_util");
    m_.pair_util_max = m.gauge("pair_util_max");
    m_.pair_util_mean = m.gauge("pair_util_mean");
    m_.satisfied_frac = m.gauge("satisfied_frac");
    m_.power_w = m.gauge("power_w");
    m_.energy_j = m.gauge("energy_j");
    m_.offered = m.gauge("offered");
    m_.accepted = m.gauge("accepted");
    m_.wait_ms = m.histogram("wait_ms");
    if (cfg_.fault.enabled) {
      m_.faults = m.gauge("faults");
      m_.repairs = m.gauge("repairs");
      m_.interrupted = m.gauge("interrupted");
      m_.killed = m.gauge("killed");
    }
  }
  // The energy observer feeds the power counter track at every integration
  // step (ids registered above, so the metrics gauge is safe to set here).
  if (obs_.trace || obs_.metrics) {
    energy_.set_observer([this](double /*seconds*/, double watts) {
      if (obs_.trace)
        obs_.trace->counter(obs::Track::kPower, "rack_power_w", queue_.now(), watts);
      if (obs_.metrics) obs_.metrics->set(m_.power_w, watts);
    });
  }
}

void RackCosim::take_sample() {
  auto& m = *obs_.metrics;
  m.set(m_.backlog_depth, static_cast<double>(backlog_.size()));
  m.set(m_.live_jobs, static_cast<double>(live_map_.size()));
  m.set(m_.fabric_util, engine_.fabric_utilization());
  // Per-MCM-pair direct-wavelength utilization: the congestion picture the
  // aggregate number hides (one hot pair can block while the mean is low).
  double max_u = 0.0, sum_u = 0.0;
  int pairs = 0;
  for (int s = 0; s < cfg_.fabric.mcms; ++s)
    for (int d = 0; d < cfg_.fabric.mcms; ++d) {
      if (s == d) continue;
      const sim::Quanta cap = fabric_->direct_capacity(s, d);
      if (cap == 0) continue;
      const double u = sim::ratio(fabric_->allocated(s, d), cap);
      max_u = std::max(max_u, u);
      sum_u += u;
      ++pairs;
    }
  m.set(m_.pair_util_max, max_u);
  m.set(m_.pair_util_mean, pairs ? sum_u / pairs : 0.0);
  m.set(m_.satisfied_frac, engine_.report().satisfied_fraction);
  m.set(m_.power_w, compute_power_w() + photonic_w_);
  m.set(m_.energy_j, energy_.joules());
  m.set(m_.offered, static_cast<double>(tally_.jobs.offered()));
  m.set(m_.accepted, static_cast<double>(tally_.jobs.accepted()));
  if (cfg_.fault.enabled) {
    m.set(m_.faults, static_cast<double>(tally_.fault.faults));
    m.set(m_.repairs, static_cast<double>(tally_.fault.repairs));
    m.set(m_.interrupted, static_cast<double>(tally_.fault.interrupted));
    m.set(m_.killed, static_cast<double>(tally_.fault.killed));
  }
  m.sample(to_ms(queue_.now()));
}

void RackCosim::schedule_next_sample() {
  // Sampler events ride the sim queue but never touch sim state: they read,
  // emit a row, and reschedule.  Ticks stop at the arrival horizon so
  // finish() still drains.
  if (obs_.metrics_interval <= 0) return;
  if (obs_.metrics_interval >= cfg_.sim_time - queue_.now()) return;
  queue_.schedule_after(obs_.metrics_interval, [this]() {
    take_sample();
    schedule_next_sample();
  });
}

RackCosim::JobPlan RackCosim::make_plan(sim::Rng& rng) const {
  // The ML branch is decided FIRST, before any HPC draw, and the predicate
  // short-circuits without touching `rng` when ml is off (or mix is 0) —
  // so a rack with `ml.*` at defaults draws the historical HPC stream byte
  // for byte.
  if (cfg_.ml.enabled && cfg_.ml.mix_fraction > 0.0 &&
      (cfg_.ml.mix_fraction >= 1.0 || rng.uniform() < cfg_.ml.mix_fraction))
    return make_ml_plan(rng);
  JobPlan plan;
  // The one definition of the §II-A demand shape (disagg::draw_job_request).
  const disagg::JobDraw draw =
      disagg::draw_job_request(rng, usage_, rack_.node, cfg_.max_job_nodes);
  plan.request = draw.request;
  plan.breadth = draw.breadth;
  plan.base_hold = std::max<sim::TimePs>(
      1, static_cast<sim::TimePs>(
             rng.exponential(static_cast<double>(cfg_.mean_duration))));

  // Fabric demand: one CPU↔memory flow per node of breadth; GPU jobs add a
  // heavier GPU↔memory flow per node.  Endpoints are uniform over the co-sim
  // MCMs — disaggregated placement scatters a job's resources rack-wide.
  auto draw_flow = [&](double scale) {
    net::FlowSpec spec;
    spec.src = static_cast<int>(rng.below(static_cast<std::uint64_t>(cfg_.fabric.mcms)));
    spec.dst = static_cast<int>(
        (spec.src + 1 + rng.below(static_cast<std::uint64_t>(cfg_.fabric.mcms - 1))) %
        cfg_.fabric.mcms);
    spec.gbps = demand_.sample_gbps(rng) * scale;
    return spec;
  };
  for (int i = 0; i < plan.breadth; ++i)
    plan.flows.push_back(draw_flow(cfg_.traffic_scale));
  if (plan.request.gpus > 0)
    for (int i = 0; i < plan.breadth; ++i)
      plan.flows.push_back(draw_flow(cfg_.traffic_scale * cfg_.gpu_traffic_mult));
  return plan;
}

RackCosim::JobPlan RackCosim::make_ml_plan(sim::Rng& rng) const {
  const collectives::MlConfig& ml = cfg_.ml;
  JobPlan plan;
  plan.ml.is_ml = true;
  plan.ml.pattern = ml.pattern;
  plan.ml.bytes = ml.gradient_mb * 1e6;
  plan.ml.steps = ml.steps;

  // Resource demand: a gang of `accelerators` GPUs plus the host-side
  // footprint from the per-accelerator profile.
  const auto prof = workloads::MlAcceleratorProfile::a100_like();
  const int per_node = std::max(1, rack_.node.gpus);
  plan.breadth = (ml.accelerators + per_node - 1) / per_node;
  plan.request.cpus =
      static_cast<int>(std::ceil(prof.cpus_per_accel * ml.accelerators));
  plan.request.gpus = ml.accelerators;
  plan.request.memory_gb = prof.job_memory_gb(ml.accelerators, ml.gradient_mb);
  plan.request.nic_gbps = prof.nic_gbps_per_accel * ml.accelerators;

  // Rank endpoints: distinct MCMs while they last (partial Fisher-Yates over
  // the endpoint range), then uniform wrap when a job has more ranks than
  // the fabric has endpoints — wrapped ranks share an MCM and exchange
  // locally, exactly like co-packaged accelerators.
  const int mcms = cfg_.fabric.mcms;
  std::vector<int> pool(static_cast<std::size_t>(mcms));
  std::iota(pool.begin(), pool.end(), 0);
  plan.ml.endpoints.reserve(static_cast<std::size_t>(ml.accelerators));
  for (int i = 0; i < ml.accelerators; ++i) {
    if (i < mcms) {
      const std::size_t j = static_cast<std::size_t>(i) +
                            rng.below(static_cast<std::uint64_t>(mcms - i));
      std::swap(pool[static_cast<std::size_t>(i)], pool[j]);
      plan.ml.endpoints.push_back(pool[static_cast<std::size_t>(i)]);
    } else {
      plan.ml.endpoints.push_back(
          static_cast<int>(rng.below(static_cast<std::uint64_t>(mcms))));
    }
  }

  // Compute segment, stretched by the slowest rank's jitter draw — the
  // bulk-synchronous gate waits on the straggler.  No draws at jitter 0, so
  // jitter-free streams match a build without the knob.
  double jitter_mult = 1.0;
  if (ml.jitter_frac > 0.0)
    for (int i = 0; i < ml.accelerators; ++i)
      jitter_mult = std::max(jitter_mult, 1.0 + ml.jitter_frac * rng.uniform());
  plan.ml.compute = std::max<sim::TimePs>(
      1, static_cast<sim::TimePs>(ml.compute_ms * jitter_mult *
                                  static_cast<double>(sim::kPsPerMs)));

  // base_hold anchors at the uncontended closed-form job time, so ML
  // slowdown keeps the HPC meaning: time in system over ideal service time.
  const double ideal_coll_s = collectives::lower_bound_seconds(
      ml.pattern, ml.accelerators, plan.ml.bytes, ml.demand_gbps);
  const double ideal_ps =
      ml.steps * (static_cast<double>(plan.ml.compute) + ideal_coll_s * 1e12);
  plan.base_hold = std::max<sim::TimePs>(1, static_cast<sim::TimePs>(ideal_ps));
  return plan;
}

double RackCosim::compute_power_w() const {
  const auto& pools = allocator_.pools();
  const auto& base = cfg_.baseline;
  const double idle = cfg_.idle_power_fraction;
  auto level = [&](double utilization, double full_watts) {
    return full_watts * (idle + (1.0 - idle) * utilization);
  };
  const double nodes = static_cast<double>(base.nodes);
  return level(pools.cpu_utilization(), nodes * base.cpu_per_node.value) +
         level(pools.gpu_utilization(),
               nodes * base.gpus_per_node * base.gpu_each.value) +
         level(pools.memory_utilization(), nodes * base.memory_per_node.value);
}

void RackCosim::step_energy() {
  energy_.step_to(sim::to_s(queue_.now()),
                  phot::Watts{compute_power_w() + photonic_w_});
}

void RackCosim::schedule_next_arrival() {
  // The arrival process owns the gap law (the default Poisson process keeps
  // the historical scaled-gap stream byte for byte); the cosim owns the
  // stream discipline — every draw comes from arrival_rng_ (child(2)).
  // The horizon check is written as a subtraction so an exhausted trace's
  // kNoMoreArrivals sentinel cannot overflow `now + gap`.
  const sim::TimePs gap = arrival_process_->next_gap(queue_.now(), arrival_rng_);
  if (gap >= cfg_.sim_time - queue_.now()) return;
  queue_.schedule_after(gap, [this]() { on_arrival(); });
}

double RackCosim::open_flow_speed(const LiveJob& job, double if_none) const {
  sim::Quanta requested = 0, satisfied = 0;
  for (const std::uint64_t id : job.flow_ids) {
    if (id == kClosedFlow) continue;
    const net::RouteResult& route = engine_.result(id);
    requested += route.requested;
    satisfied += route.direct + route.indirect;
  }
  return requested > 0
             ? std::clamp(sim::ratio(satisfied, requested), cfg_.min_speed_fraction, 1.0)
             : if_none;
}

bool RackCosim::admit(PendingJob& job) {
  if (cfg_.admission == AdmissionPolicy::kQueue) {
    if (backlog_.size() >= static_cast<std::size_t>(cfg_.queue_cap)) return false;
    if (obs_.trace) obs_.trace->instant(obs::Track::kJobs, "enqueue", queue_.now());
    backlog_.push_back(std::move(job));
    drain_backlog();
    return true;
  }
  return try_start(job);
}

bool RackCosim::try_start(const PendingJob& pending) {
  const JobPlan& plan = pending.plan;
  disagg::Allocation alloc;
  {
    obs::ScopedTimer timer(obs_.profiler, sc_allocate_);
    alloc = allocator_.allocate(plan.request);
  }
  if (!alloc.placed) return false;
  const sim::TimePs now = queue_.now();
  const sim::TimePs wait = now - pending.arrived;
  // `record` is false only for fault-requeued jobs: their acceptance, wait
  // and contention tails were recorded at FIRST placement and must not be
  // double-counted.  Fault-free runs always record, so this path is the
  // historical one byte for byte.
  if (pending.record) {
    tally_.jobs.accept();
    {
      obs::ScopedTimer timer(obs_.profiler, sc_sketch_);
      tally_.jobs.record_wait(to_ms(wait));
    }
    if (obs_.metrics) obs_.metrics->observe(m_.wait_ms, to_ms(wait));
  }
  const std::uint64_t job_id = next_live_id_++;
  LiveJob& job = live_map_[job_id];
  job.plan = plan;
  job.alloc = std::move(alloc);
  job.arrived = pending.arrived;
  job.retries = pending.retries;
  job.placed_at = now;
  job.segment_start = now;
  job.remaining_base = static_cast<double>(plan.base_hold);
  if (plan.ml.is_ml) {
    // Training jobs skip the HPC hold/stretch machinery entirely: their
    // lifetime is the event-driven step loop (compute segment, then a
    // collective on the live fabric), so contention acts through achieved
    // collective rates instead of a one-shot admission-time stretch.
    if (pending.record) ++tally_.ml.accepted;
    if (obs_.trace)
      obs_.trace->instant(
          obs::Track::kJobs, "ml_placed", now,
          {{"wait_ms", to_ms(wait)},
           {"ranks", static_cast<double>(plan.ml.endpoints.size())}});
    start_ml_step(job_id);
    return true;
  }
  job.flow_ids.reserve(plan.flows.size());
  for (const auto& spec : plan.flows) job.flow_ids.push_back(engine_.open(spec, now));
  // Spilled jobs run behind a finite inter-rack pipe: the grant fraction
  // caps speed multiplicatively.  Local jobs carry cap 1.0 — `x * 1.0` and
  // re-clamping an already-in-range value are both exact, so standalone
  // racks compute the historical speed bit for bit.
  const double speed = std::clamp(open_flow_speed(job, 1.0) * plan.remote_speed_cap,
                                  cfg_.min_speed_fraction, 1.0);
  const double stretch = cfg_.contention_feedback ? 1.0 / speed : 1.0;
  const auto hold = std::max<sim::TimePs>(
      1, static_cast<sim::TimePs>(static_cast<double>(plan.base_hold) * stretch));
  if (pending.record) {
    tally_.speed.add(speed);
    tally_.stretch.add(stretch);
    // Tails are recorded at placement, when wait and hold are both known —
    // NOT at completion, so mid-run reports carry no survivorship bias from
    // long jobs still running.  Slowdown folds queueing and contention into
    // one number: time-in-system over uncontended service time.
    obs::ScopedTimer timer(obs_.profiler, sc_sketch_);
    tally_.jobs.record_slowdown(static_cast<double>(wait + hold) /
                                static_cast<double>(plan.base_hold));
    for (std::size_t i = 0; i < plan.flows.size(); ++i)
      tally_.jobs.record_fct(to_ms(hold));
  }
  if (obs_.trace)
    obs_.trace->instant(obs::Track::kJobs, "placed", now,
                        {{"wait_ms", to_ms(wait)}, {"speed", speed}});
  job.speed = speed;
  job.completion =
      queue_.schedule_after(hold, [this, job_id]() { complete_job(job_id); });
  return true;
}

void RackCosim::start_ml_step(std::uint64_t job_id) {
  LiveJob& job = live_map_.at(job_id);
  job.step_started = queue_.now();
  // The compute event reuses the cancellable completion slot, so revoking a
  // mid-compute victim kills it exactly like an HPC completion; during the
  // collective this id is stale-but-fired and cancel is a safe no-op (the
  // runner's abort covers the live phase event).
  const auto compute = std::max<sim::TimePs>(1, job.plan.ml.compute);
  job.completion = queue_.schedule_after(
      compute, [this, job_id]() { on_ml_compute_done(job_id); });
}

void RackCosim::on_ml_compute_done(std::uint64_t job_id) {
  LiveJob& job = live_map_.at(job_id);
  collectives::CollectiveSpec spec;
  spec.pattern = job.plan.ml.pattern;
  spec.endpoints = job.plan.ml.endpoints;
  spec.bytes = job.plan.ml.bytes;
  spec.demand_gbps = cfg_.ml.demand_gbps;
  // The electronic-baseline derate and a spilled job's inter-rack grant cap
  // compose multiplicatively on the achieved rate (local photonic jobs carry
  // exactly 1.0 for both).
  spec.rate_scale =
      std::clamp((cfg_.ml.electronic ? cfg_.ml.electronic_derate : 1.0) *
                     job.plan.remote_speed_cap,
                 cfg_.min_speed_fraction, 1.0);
  spec.min_rate_fraction = cfg_.min_speed_fraction;
  job.collective_started = queue_.now();
  job.runner = std::make_unique<collectives::CollectiveRunner>(engine_, queue_,
                                                               std::move(spec));
  job.runner->start([this, job_id](const collectives::CollectiveResult& result) {
    on_ml_collective_done(job_id, result);
  });
}

void RackCosim::on_ml_collective_done(std::uint64_t job_id,
                                      const collectives::CollectiveResult& result) {
  LiveJob& job = live_map_.at(job_id);
  job.runner.reset();
  const double step_ms = to_ms(queue_.now() - job.step_started);
  const double coll_ms = to_ms(queue_.now() - job.collective_started);
  {
    obs::ScopedTimer timer(obs_.profiler, sc_sketch_);
    tally_.ml.record_step(step_ms, step_ms > 0.0 ? coll_ms / step_ms : 0.0,
                         result.straggler_stretch, result.phases);
  }
  if (obs_.trace)
    obs_.trace->complete(obs::Track::kJobs, "ml_step", job.step_started,
                         queue_.now(),
                         {{"coll_ms", coll_ms},
                          {"straggler", result.straggler_stretch}});
  ++job.ml_step;
  if (job.ml_step < job.plan.ml.steps)
    start_ml_step(job_id);
  else
    complete_job(job_id);
}

void RackCosim::complete_job(std::uint64_t job_id) {
  const auto it = live_map_.find(job_id);
  if (it == live_map_.end())
    throw std::logic_error("complete_job: job already revoked or completed");
  const LiveJob job = std::move(it->second);
  live_map_.erase(it);
  for (const std::uint64_t id : job.flow_ids)
    if (id != kClosedFlow) engine_.close(id, queue_.now());
  {
    obs::ScopedTimer timer(obs_.profiler, sc_release_);
    allocator_.release(job.alloc);
  }
  if (cfg_.fault.enabled) ++tally_.fault.goodput_jobs;
  if (job.plan.ml.is_ml) {
    // ML slowdown is known only at completion (steps ran at live collective
    // speeds, not an admission-time stretch); revoked jobs never reach here,
    // so a fault-requeued training job still records exactly once.
    ++tally_.ml.completed;
    obs::ScopedTimer timer(obs_.profiler, sc_sketch_);
    tally_.jobs.record_slowdown(static_cast<double>(queue_.now() - job.arrived) /
                                static_cast<double>(job.plan.base_hold));
  }
  if (obs_.trace)
    obs_.trace->complete(obs::Track::kJobs, "job", job.placed_at, queue_.now(),
                         {{"breadth", static_cast<double>(job.plan.breadth)},
                          {"speed", job.speed}});
  close_remote(job.plan, /*placed=*/true);
  drain_backlog();
  step_energy();
}

void RackCosim::close_remote(const JobPlan& plan, bool placed) {
  if (plan.remote_link >= 0 && remote_close_)
    remote_close_(plan.remote_link, plan.remote_bw, queue_.now(), placed);
}

void RackCosim::drain_backlog() {
  if (backlog_.empty()) return;
  engine_.refresh_view(queue_.now());
  // Strict FIFO: stop at the first job that does not fit, even if a
  // narrower one behind it would — backfilling would reorder the queue and
  // make wait tails incomparable across policies.
  while (!backlog_.empty() && try_start(backlog_.front())) backlog_.pop_front();
}

// The timeline alternates fail/repair strictly per component, so every fail
// here is matched by exactly one later pop of the same value — the factor
// stack never holds two entries from the same component instance, and when a
// pair's last fault repairs, the empty product restores exactly 1.0.
void RackCosim::scale_fault_pairs(const fault::FaultEvent& ev) {
  const auto scale = [&](int src, int dst, double factor) {
    if (ev.kind == fault::FaultKind::kFail)
      fabric_->push_pair_factor(src, dst, factor);
    else
      fabric_->pop_pair_factor(src, dst, factor);
  };
  switch (ev.cls) {
    case fault::ComponentClass::kMcm:
      // A crashed MCM severs every pair touching it, both directions.
      for (int d = 0; d < cfg_.fabric.mcms; ++d) {
        if (d == ev.a) continue;
        scale(ev.a, d, 0.0);
        scale(d, ev.a, 0.0);
      }
      break;
    case fault::ComponentClass::kLink:
      scale(ev.a, ev.b, 0.0);
      break;
    case fault::ComponentClass::kLaser:
      // A degraded comb laser dims only the wavelengths its own port transmits.
      for (int d = 0; d < cfg_.fabric.mcms; ++d)
        if (d != ev.a) scale(ev.a, d, cfg_.fault.degrade_fraction);
      break;
    case fault::ComponentClass::kNode:
      break;  // node capacity lives in the allocator, not the fabric
  }
}

std::vector<std::uint64_t> RackCosim::victims_of(const fault::FaultEvent& ev) const {
  std::vector<std::uint64_t> out;
  const bool disagg =
      allocator_.policy() == disagg::AllocationPolicy::kDisaggregated;
  for (const auto& [id, job] : live_map_) {
    bool hit = false;
    switch (ev.cls) {
      case fault::ComponentClass::kMcm:
      case fault::ComponentClass::kLink: {
        // Blast-radius asymmetry: only disaggregated jobs depend on the
        // fabric to reach their memory.  A static job's flows model traffic
        // that is node-local in that regime, so fabric faults pass it by.
        if (!disagg) break;
        // A training job's open flows are its runner's current phase: none
        // mid-compute, so a fabric fault then passes it by.
        const std::vector<std::uint64_t>& open =
            job.runner ? job.runner->open_ids() : job.flow_ids;
        for (std::size_t i = 0; i < open.size() && !hit; ++i)
          hit = open[i] != kClosedFlow && severs(ev, engine_.spec(open[i]));
        break;
      }
      case fault::ComponentClass::kNode:
        hit = std::find(job.alloc.hosts.begin(), job.alloc.hosts.end(), ev.a) !=
              job.alloc.hosts.end();
        break;
      case fault::ComponentClass::kLaser:
        break;  // capacity-only: degrades future placements, strands no one
    }
    if (hit) out.push_back(id);
  }
  // live_map_ iteration order is unspecified; victims must be visited in a
  // stable order for the timeline's effects to be bit-reproducible.
  std::sort(out.begin(), out.end());
  return out;
}

void RackCosim::revoke_job(std::uint64_t job_id, const fault::FaultEvent& ev) {
  const auto it = live_map_.find(job_id);
  LiveJob job = std::move(it->second);
  live_map_.erase(it);
  const sim::TimePs now = queue_.now();
  // The pending completion must die with the job: a stale completion firing
  // on a revoked id would double-release the allocation (audited by the
  // event-queue cancel tests).
  queue_.cancel(job.completion);
  // A mid-collective victim also holds phase flows and a pending phase
  // event inside its runner; abort tears both down before the release.
  if (job.runner) job.runner->abort();
  for (const std::uint64_t id : job.flow_ids)
    if (id != kClosedFlow) engine_.close(id, now);
  allocator_.revoke(job.alloc);
  ++tally_.fault.interrupted;
  tally_.fault.work_lost_ms += to_ms(now - job.placed_at);
  if (obs_.trace)
    obs_.trace->instant(
        obs::Track::kFaults, "revoke", now,
        {{"job", static_cast<double>(job_id)},
         {"cls", static_cast<double>(static_cast<int>(ev.cls))}});
  // A revoked spill hands back its inter-rack reservation immediately; any
  // retry re-enters THIS rack's admission path as an untagged local job, so
  // the grant can never be released twice.
  close_remote(job.plan, /*placed=*/true);
  job.plan.remote_speed_cap = 1.0;
  job.plan.remote_link = -1;
  job.plan.remote_bw = 0;
  if (cfg_.fault.policy == fault::ResiliencePolicy::kKill) {
    ++tally_.fault.killed;
    if (obs_.trace) obs_.trace->instant(obs::Track::kFaults, "kill", now);
  } else {
    // kRequeue, and kDegrade victims that cannot run degraded (node crash).
    schedule_retry(std::move(job.plan), job.arrived, job.retries + 1);
  }
}

void RackCosim::resume_degraded(std::uint64_t job_id, const fault::FaultEvent& ev) {
  LiveJob& job = live_map_.at(job_id);
  const sim::TimePs now = queue_.now();
  // Bank the progress made at the old speed before re-stretching the rest.
  const double old_stretch = cfg_.contention_feedback ? 1.0 / job.speed : 1.0;
  const double done_base =
      static_cast<double>(now - job.segment_start) / old_stretch;
  job.remaining_base = std::max(0.0, job.remaining_base - done_base);
  // Drop the flows stranded on the dead component; survivors keep their
  // admission-time reservations.
  for (std::uint64_t& id : job.flow_ids) {
    if (id == kClosedFlow || !severs(ev, engine_.spec(id))) continue;
    engine_.close(id, now);
    id = kClosedFlow;
  }
  // A job whose every flow died crawls at the floor speed — an empty sum
  // must not read as full speed.
  const double speed = open_flow_speed(job, cfg_.min_speed_fraction);
  const double stretch = cfg_.contention_feedback ? 1.0 / speed : 1.0;
  queue_.cancel(job.completion);
  const auto hold =
      std::max<sim::TimePs>(1, static_cast<sim::TimePs>(job.remaining_base * stretch));
  job.completion =
      queue_.schedule_after(hold, [this, job_id]() { complete_job(job_id); });
  job.speed = speed;
  job.segment_start = now;
  ++tally_.fault.degraded;
  if (obs_.trace)
    obs_.trace->instant(obs::Track::kFaults, "degrade", now,
                        {{"job", static_cast<double>(job_id)}, {"speed", speed}});
}

void RackCosim::schedule_retry(JobPlan plan, sim::TimePs arrived, int retries) {
  if (retries > cfg_.fault.max_retries) {
    ++tally_.fault.killed;
    if (obs_.trace)
      obs_.trace->instant(obs::Track::kFaults, "retries_exhausted", queue_.now());
    return;
  }
  // Exponential backoff, capped: base, 2*base, 4*base, ... up to the cap.
  const double factor = std::ldexp(1.0, std::min(retries - 1, 60));
  const double backoff_ms =
      std::min(cfg_.fault.backoff_cap_ms, cfg_.fault.backoff_base_ms * factor);
  const auto delay = std::max<sim::TimePs>(
      1, static_cast<sim::TimePs>(backoff_ms * static_cast<double>(sim::kPsPerMs)));
  ++tally_.fault.requeued;
  // Admission semantics for retries, pinned by test_fault: a retry takes
  // the same admit() path as a fresh arrival.  Under kDrop it never touches
  // the backlog — it re-attempts placement directly and backs off again on
  // failure, so a drop-mode rack's queue depth stays identically zero even
  // under fault churn.  Under kQueue it competes for backlog space on the
  // same queue_cap bound as a fresh arrival (no reserved headroom), and a
  // full backlog kills it: a revoked job must not be able to wait in a
  // place arrivals are being turned away from.
  queue_.schedule_after(
      delay, [this, plan = std::move(plan), arrived, retries]() mutable {
        engine_.refresh_view(queue_.now());
        PendingJob job{std::move(plan), arrived, retries, /*record=*/false};
        if (admit(job)) return;
        if (backlog_.empty())  // a kDrop refusal (see admit): back off again
          schedule_retry(std::move(job.plan), arrived, retries + 1);
        else
          ++tally_.fault.killed;  // backlog full: the retry has nowhere to wait
      });
}

void RackCosim::on_fault(const fault::FaultEvent& ev) {
  obs::ScopedTimer timer(obs_.profiler, sc_fault_);
  const sim::TimePs now = queue_.now();
  if (obs_.trace)
    obs_.trace->instant(obs::Track::kFaults,
                        ev.kind == fault::FaultKind::kFail ? "fail" : "repair",
                        now,
                        {{"cls", static_cast<double>(static_cast<int>(ev.cls))},
                         {"a", static_cast<double>(ev.a)},
                         {"b", static_cast<double>(ev.b)}});
  if (ev.kind == fault::FaultKind::kFail) {
    ++tally_.fault.faults;
    // Capacity first, victims second: a victim's surviving flows must be
    // judged against the post-fault fabric.  Node capacity is the exception
    // — static victims have to be revoked before their nodes can retire.
    scale_fault_pairs(ev);
    engine_.refresh_view(now);
    for (const std::uint64_t id : victims_of(ev)) {
      // A crashed node cannot run degraded — its CPUs are gone.  Fabric
      // faults can: drop the dead flows and re-stretch the remainder.
      // Training jobs cannot either: a collective with a dead phase flow is
      // a broken gradient exchange, so ML victims always revoke.
      const bool degrade = cfg_.fault.policy == fault::ResiliencePolicy::kDegrade &&
                           ev.cls != fault::ComponentClass::kNode &&
                           !live_map_.at(id).plan.ml.is_ml;
      if (degrade)
        resume_degraded(id, ev);
      else
        revoke_job(id, ev);
    }
    if (ev.cls == fault::ComponentClass::kNode) allocator_.take_node_offline(ev.a);
  } else {
    ++tally_.fault.repairs;
    // Each repair pops exactly the factor its fail pushed; faults still
    // active on the same pairs keep their own contributions in the product.
    scale_fault_pairs(ev);
    if (ev.cls == fault::ComponentClass::kNode) allocator_.bring_node_online(ev.a);
    engine_.refresh_view(now);
    drain_backlog();  // restored capacity may admit backlogged work
  }
  step_energy();
}

void RackCosim::on_arrival() {
  obs::ScopedTimer timer(obs_.profiler, sc_arrival_);
  engine_.refresh_view(queue_.now());
  tally_.jobs.offer();
  if (obs_.trace) obs_.trace->instant(obs::Track::kJobs, "arrival", queue_.now());
  // Per-job child stream keyed by arrival index: a job's demands, duration
  // and flow layout are a pure function of (seed, index), independent of
  // every placement decision before it.
  sim::Rng job_rng = base_rng_.child(16 + next_job_index_++);
  PendingJob job{make_plan(job_rng), queue_.now()};
  if (job.plan.ml.is_ml) ++tally_.ml.offered;

  // A job the rack cannot admit is offered to the spill handler before being
  // dropped; a standalone rack (no handler) takes the historical drop path
  // unchanged.  A dropped job stays counted in `offered`, so acceptance
  // reflects the loss; a spilled one is accepted (or lost) wherever it
  // lands, so cluster-wide acceptance stays conservative.
  if (!admit(job)) {
    if (spill_ && spill_(job.plan, queue_.now())) {
      if (obs_.trace) obs_.trace->instant(obs::Track::kJobs, "spill", queue_.now());
    } else if (obs_.trace) {
      // See admit(): only a full kQueue backlog is left behind a refusal.
      obs_.trace->instant(obs::Track::kJobs, backlog_.empty() ? "reject" : "queue_drop",
                          queue_.now());
    }
  }
  // Step the trace on EVERY arrival, rejected ones included: the level only
  // changes on placements, but the integration point must advance to the
  // last event or the tail of the horizon silently drops out of the total
  // (an all-rejected stream still burns idle + lasers-on photonic power).
  step_energy();

  tally_.jobs.sample(allocator_);
  schedule_next_arrival();
}

void RackCosim::inject_remote_job(JobPlan plan, sim::TimePs deliver_at,
                                  sim::TimePs arrived) {
  queue_.schedule_at(deliver_at, [this, plan = std::move(plan), arrived]() mutable {
    engine_.refresh_view(queue_.now());
    if (obs_.trace)
      obs_.trace->instant(obs::Track::kJobs, "remote_arrival", queue_.now());
    // A spilled job is admitted like a local arrival (record = true: its
    // acceptance, wait and tails are accounted where it runs) but is NOT
    // offered here — the origin rack already counted the offer, so cluster
    // totals add up.  A second rejection is final: the spill is lost and
    // the inter-rack grant goes back (placed = false).
    PendingJob job{std::move(plan), arrived};
    if (!admit(job)) {
      close_remote(job.plan, /*placed=*/false);
      if (obs_.trace)
        obs_.trace->instant(obs::Track::kJobs, "spill_lost", queue_.now());
    }
    step_energy();
  });
}

void RackCosim::advance_to(sim::TimePs t) { queue_.run(t); }

void RackCosim::finish() { queue_.run(); }

CosimTally RackCosim::tally() const {
  CosimTally t = tally_;
  t.censored_running = live_map_.size();
  t.events = queue_.stats();
  t.flows = engine_.tally();
  t.energy_joules = energy_.joules();
  t.mean_power_w = energy_.mean_power().value;
  t.peak_power_w = energy_.peak_power().value;
  t.photonic_power_w = photonic_w_;
  t.completed_at = queue_.now();
  // Censored-jobs accounting: jobs still in the backlog have a wait that is
  // only a LOWER bound, but leaving them out entirely is worse — a backed-up
  // queue would report the rosy tails of the jobs that escaped it.  Fold
  // each queued job's wait-so-far into the snapshot's sketch.
  // Fault-requeued entries (record = false) are skipped: their wait was
  // recorded at FIRST placement, and folding them again would both
  // double-count the job in the wait sketch and break the invariant
  //   wait count == accepted + censored_waiting
  // that ties the sketch to the acceptance counters.
  for (const PendingJob& pending : backlog_) {
    if (!pending.record) continue;
    ++t.censored_waiting;
    t.jobs.record_wait(to_ms(queue_.now() - pending.arrived));
  }
  return t;
}

void CosimTally::merge(const CosimTally& other) {
  jobs.merge(other.jobs);
  censored_waiting += other.censored_waiting;
  censored_running += other.censored_running;
  events.scheduled += other.events.scheduled;
  events.dispatched += other.events.dispatched;
  events.cancelled += other.events.cancelled;
  events.pending_peak += other.events.pending_peak;
  flows.merge(other.flows);
  speed.merge(other.speed);
  stretch.merge(other.stretch);
  energy_joules += other.energy_joules;
  mean_power_w += other.mean_power_w;
  peak_power_w += other.peak_power_w;
  photonic_power_w += other.photonic_power_w;
  completed_at = std::max(completed_at, other.completed_at);
  fault.merge(other.fault);
  ml.merge(other.ml);
}

CosimReport CosimTally::report() const {
  CosimReport report{.jobs = jobs.report(),
                     .flows = flows.report(),
                     .mean_speed_fraction = speed.count() ? speed.mean() : 1.0,
                     .mean_stretch = stretch.count() ? stretch.mean() : 1.0,
                     .max_stretch = stretch.count() ? stretch.max() : 1.0,
                     .energy_joules = energy_joules, .mean_power_w = mean_power_w,
                     .peak_power_w = peak_power_w, .photonic_power_w = photonic_power_w,
                     .completed_at = completed_at,
                     .fault = fault.report(),
                     .ml = ml.report()};
  report.jobs.censored_waiting = censored_waiting;
  report.jobs.censored_running = censored_running;
  report.jobs.events = events;
  return report;
}

CosimReport run_rack_cosim(const rack::RackConfig& rack, disagg::AllocationPolicy policy,
                           const workloads::UsageModel& usage, const CosimConfig& cfg,
                           obs::Obs obs) {
  RackCosim sim(rack, policy, usage, cfg, obs);
  sim.finish();
  return sim.report();
}

}  // namespace photorack::cosim
