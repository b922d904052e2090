#include "scenario/campaigns.hpp"

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "cluster/cluster_cosim.hpp"
#include "collectives/collective.hpp"
#include "config/bindings.hpp"
#include "core/rack_system.hpp"
#include "cosim/rack_cosim.hpp"
#include "cpusim/miss_profile.hpp"
#include "cpusim/runner.hpp"
#include "fault/fault_model.hpp"
#include "gpusim/gpu_runner.hpp"
#include "obs/obs.hpp"
#include "phot/links.hpp"
#include "phot/power.hpp"
#include "rack/mcm.hpp"
#include "rack/rack_builder.hpp"
#include "workloads/cpu_profiles.hpp"
#include "workloads/generators.hpp"
#include "workloads/gpu_profiles.hpp"

namespace photorack::scenario {

SweepGrid Campaign::default_grid() const {
  SweepGrid grid;
  for (const Axis& ax : axes) grid.axis(ax.name, ax.values);
  return grid;
}

namespace {

// ---------------------------------------------------------------------------
// Free-axis helpers shared by the campaign evaluators.  Enum-valued free
// axes (policy, feedback) parse through the layers' canonical EnumCodecs;
// everything config-struct-shaped arrives via ScenarioSpec::resolve<T>().
// ---------------------------------------------------------------------------

const workloads::CpuBenchmark& find_cpu_benchmark(const std::string& full_name) {
  for (const auto& bench : workloads::cpu_benchmarks())
    if (bench.full_name() == full_name) return bench;
  throw std::out_of_range("no CPU benchmark named '" + full_name + "'");
}

const gpusim::AppProfile& find_gpu_app(const std::string& name) {
  for (const auto& app : workloads::gpu_apps())
    if (app.name == name) return app;
  throw std::out_of_range("no GPU application named '" + name + "'");
}

std::vector<std::string> all_cpu_benchmark_names() {
  std::vector<std::string> names;
  for (const auto& bench : workloads::cpu_benchmarks()) names.push_back(bench.full_name());
  return names;
}

std::vector<std::string> all_gpu_app_names() {
  std::vector<std::string> names;
  for (const auto& app : workloads::gpu_apps()) names.push_back(app.name);
  return names;
}

std::vector<std::string> num_values(const std::vector<double>& values) {
  std::vector<std::string> out;
  out.reserve(values.size());
  for (const double v : values) out.push_back(num_to_string(v));
  return out;
}

// ---------------------------------------------------------------------------
// CPU latency-sensitivity point (figs 6, 8, 11, 12 all reduce to this).
// Each scenario is self-contained: it simulates its own extra=0 baseline, so
// a spec's row never depends on another spec having run.
// ---------------------------------------------------------------------------

const std::vector<std::string> kCpuColumns = {
    "suite",   "input",    "bench",       "core", "extra_ns", "baseline_ns",
    "time_ns", "slowdown", "llc_miss_rate", "ipc"};

/// Per-thread memo of the last recording an evaluator made.  SweepRunner
/// runs all specs sharing a work key on one thread, back to back, so one
/// entry per thread serves the whole group and live recordings are bounded
/// by the worker count.  Callers outside the runner stay correct: they just
/// re-record when keys interleave.  A failed recording is not stored.
template <typename Value>
class LastRecording {
 public:
  template <typename Record>
  const Value& get(const std::string& key, Record&& record) {
    if (!value_ || key_ != key) {
      value_.reset();  // free the previous recording before making the next
      value_.emplace(record());
      key_ = key;
    }
    return *value_;
  }

 private:
  std::string key_;
  std::optional<Value> value_;
};

/// What one CPU spec records.  The recording is latency-independent, so
/// the baseline and the perturbed point are both O(misses) replays of one
/// profile per (benchmark, cpusim config at extra_ns = 0, trace seed),
/// bit-identical to simulating each point from scratch.  The config enters
/// the key as the registry's canonical snapshot string, so ANY --set
/// cpusim.* override (hierarchy geometry, core width, prefetcher...)
/// records its own profile instead of aliasing the default one.
struct CpuPoint {
  const workloads::CpuBenchmark& bench;
  double extra_ns;
  cpusim::SimConfig record_cfg;  // extra_ns zeroed
  workloads::TraceConfig trace;
  std::string key;
};

CpuPoint cpu_point(const ScenarioSpec& spec) {
  const auto& bench = find_cpu_benchmark(spec.at("bench"));
  cpusim::SimConfig cfg = spec.resolve<cpusim::SimConfig>("cpusim");
  const double extra = cfg.dram.extra_ns;
  cfg.dram.extra_ns = 0.0;
  workloads::TraceConfig trace = bench.trace;
  // base_seed == 0 keeps the registry seed (the paper's numbers); otherwise
  // the scenario re-seeds itself.
  if (spec.base_seed != 0) trace.seed = spec.derived_seed();
  std::string key = bench.full_name() + '\n' + config::registry().snapshot("cpusim", cfg) +
                    '\n' + std::to_string(trace.seed);
  return {bench, extra, cfg, trace, std::move(key)};
}

std::string cpu_work_key(const ScenarioSpec& spec) { return cpu_point(spec).key; }

std::vector<ResultRow> eval_cpu_point(const ScenarioSpec& spec) {
  const CpuPoint point = cpu_point(spec);
  thread_local LastRecording<cpusim::MissProfile> memo;
  const cpusim::MissProfile& profile = memo.get(point.key, [&] {
    workloads::SyntheticTrace trace(point.trace);
    return cpusim::record_miss_profile(trace, point.record_cfg);
  });
  const cpusim::SimResult baseline = cpusim::replay_profile(profile, 0.0);
  const cpusim::SimResult result =
      point.extra_ns != 0.0 ? cpusim::replay_profile(profile, point.extra_ns) : baseline;

  const auto& bench = point.bench;
  ResultRow row;
  row.cells = {bench.suite,
               bench.input,
               bench.full_name(),
               spec.at("cpusim.core.kind"),
               num_to_string(point.extra_ns),
               num_to_string(baseline.time_ns),
               num_to_string(result.time_ns),
               num_to_string(result.time_ns / baseline.time_ns - 1.0),
               num_to_string(result.llc_miss_rate),
               num_to_string(result.ipc)};
  return {std::move(row)};
}

std::vector<Axis> cpu_axes(std::vector<std::string> cores, std::vector<double> extras) {
  return {{"bench", all_cpu_benchmark_names()},
          {"cpusim.core.kind", std::move(cores)},
          {"cpusim.dram.extra_ns", num_values(extras)},
          {"cpusim.warmup", {"1000000"}},
          {"cpusim.measured", {"2000000"}}};
}

// ---------------------------------------------------------------------------
// GPU latency-sensitivity point (figs 9, 10, 11, 12).
// ---------------------------------------------------------------------------

const std::vector<std::string> kGpuColumns = {
    "app",     "suite",    "extra_ns",     "derate",
    "baseline_us", "time_us", "slowdown", "l2_miss_rate"};

/// What one GPU spec records.  The per-kernel L2 simulation is independent
/// of extra_hbm_ns and the bandwidth derate (the axes the GPU campaigns
/// sweep), so one AppMissProfile per (app, config with those axes zeroed)
/// serves every grid point.  The base config keys the recording via its
/// registry snapshot, so --set gpusim.* geometry overrides record their own.
struct GpuPoint {
  const gpusim::AppProfile& app;
  gpusim::GpuConfig gpu;
  /// Baseline: the photonic configuration of the same device, zero extra
  /// latency, full HBM bandwidth.
  gpusim::GpuConfig base;
  std::string key;
};

GpuPoint gpu_point(const ScenarioSpec& spec) {
  const auto& app = find_gpu_app(spec.at("app"));
  const gpusim::GpuConfig gpu = spec.resolve<gpusim::GpuConfig>("gpusim");
  gpusim::GpuConfig base = gpu;
  base.extra_hbm_ns = 0.0;
  base.hbm_bandwidth_derate = 1.0;
  std::string key = app.name + '\n' + config::registry().snapshot("gpusim", base);
  return {app, gpu, base, std::move(key)};
}

std::string gpu_work_key(const ScenarioSpec& spec) { return gpu_point(spec).key; }

std::vector<ResultRow> eval_gpu_point(const ScenarioSpec& spec) {
  const GpuPoint point = gpu_point(spec);
  const auto& app = point.app;
  thread_local LastRecording<gpusim::AppMissProfile> memo;
  const gpusim::AppMissProfile& profile =
      memo.get(point.key, [&] { return gpusim::record_app_profile(app, point.base); });
  const double baseline_us = gpusim::replay_app(app, profile, point.base).time_us;
  const gpusim::AppResult result = gpusim::replay_app(app, profile, point.gpu);

  ResultRow row;
  row.cells = {app.name,
               app.suite,
               spec.at("gpusim.extra_hbm_ns"),
               spec.at("gpusim.hbm_bandwidth_derate"),
               num_to_string(baseline_us),
               num_to_string(result.time_us),
               num_to_string(result.time_us / baseline_us - 1.0),
               num_to_string(result.l2_miss_rate)};
  return {std::move(row)};
}

std::vector<Axis> gpu_axes(std::vector<double> extras, std::vector<double> derates) {
  return {{"app", all_gpu_app_names()},
          {"gpusim.extra_hbm_ns", num_values(extras)},
          {"gpusim.hbm_bandwidth_derate", num_values(derates)}};
}

// ---------------------------------------------------------------------------
// Table I: links needed (and transceiver power) per technology for a given
// MCM escape bandwidth.
// ---------------------------------------------------------------------------

const std::vector<std::string> kTable1Columns = {
    "link", "escape_gbs", "links", "power_w", "link_gbps", "co_packaged"};

std::vector<ResultRow> eval_table1_point(const ScenarioSpec& spec) {
  const auto& link = phot::link_by_name(spec.at("link"));
  const phot::GBps escape{spec.num("escape_gbs")};
  ResultRow row;
  row.cells = {link.name,
               spec.at("escape_gbs"),
               num_to_string(link.links_for_escape(escape)),
               num_to_string(link.power_for_escape(escape).value),
               num_to_string(link.bandwidth.value),
               link.co_packaged ? "yes" : "no"};
  return {std::move(row)};
}

std::vector<Axis> table1_axes() {
  std::vector<std::string> names;
  for (const auto& link : phot::table1_links()) names.push_back(link.name);
  return {{"link", std::move(names)}, {"escape_gbs", {"2000"}}};
}

// ---------------------------------------------------------------------------
// Table III: MCM packing under a configurable escape budget.  One scenario
// emits one row per chip type (the table's shape), so sweeping the MCM
// geometry axes yields the full packing design space.
// ---------------------------------------------------------------------------

const std::vector<std::string> kTable3Columns = {
    "fibers",        "lambdas",        "gbps",       "chip",       "chips_per_mcm",
    "mcm_count",     "chip_escape_gbs", "chip_share_gbs", "total_mcms"};

std::vector<ResultRow> eval_table3_point(const ScenarioSpec& spec) {
  const rack::McmConfig mcm = spec.resolve<rack::McmConfig>("mcm");
  const rack::RackConfig rack = spec.resolve<rack::RackConfig>("rack");
  const rack::McmPlan plan = rack::pack_rack(rack, mcm);

  std::vector<ResultRow> rows;
  for (const auto& p : plan.types) {
    ResultRow row;
    row.cells = {spec.at("mcm.fibers"),
                 spec.at("mcm.wavelengths_per_fiber"),
                 spec.at("mcm.gbps_per_wavelength"),
                 rack::to_string(p.type),
                 num_to_string(p.chips_per_mcm),
                 num_to_string(p.mcm_count),
                 num_to_string(p.per_chip_escape.value),
                 num_to_string(p.per_chip_share.value),
                 num_to_string(plan.total_mcms)};
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<Axis> table3_axes() {
  return {{"mcm.fibers", {"32"}},
          {"mcm.wavelengths_per_fiber", {"64"}},
          {"mcm.gbps_per_wavelength", {"25"}}};
}

// ---------------------------------------------------------------------------
// §VI-C: photonic power overhead per fabric choice.
// ---------------------------------------------------------------------------

const std::vector<std::string> kSec6cColumns = {
    "fabric",     "transceivers_w", "switches_w", "total_w",
    "baseline_w", "overhead",       "added_latency_ns"};

std::vector<ResultRow> eval_sec6c_point(const ScenarioSpec& spec) {
  const config::SystemParams sys = spec.resolve<config::SystemParams>("system");
  const core::RackSystem system(sys.fabric, spec.resolve<rack::RackConfig>("rack"),
                                spec.resolve<rack::McmConfig>("mcm"),
                                spec.resolve<phot::PhotonicPowerConfig>("phot"));
  const phot::PowerBreakdown power = system.power_overhead();
  const phot::BaselineRackPower baseline;
  ResultRow row;
  row.cells = {spec.at("system.fabric"),
               num_to_string(power.transceivers.value),
               num_to_string(power.switches.value),
               num_to_string(power.total.value),
               num_to_string(baseline.total().value),
               num_to_string(power.overhead_vs_baseline),
               num_to_string(system.added_memory_latency_ns())};
  return {std::move(row)};
}

std::vector<Axis> sec6c_axes() { return {{"system.fabric", {"awgr"}}}; }

// ---------------------------------------------------------------------------
// Rack co-simulation campaigns: the closed loop of jobs × fabric × power
// evaluated together (§II-A telemetry, §IV routing, §VI-C power).  Every
// evaluator is a pure function of its spec — the co-sim seeds itself from
// the spec, so sweeps stay bit-identical for any --jobs level.
// ---------------------------------------------------------------------------

/// Shared axis → CosimConfig resolution.  base_seed == 0 keeps the engine's
/// default seed (one canonical trajectory per grid point); any other value
/// re-seeds from the spec id for independent replications.
cosim::CosimConfig cosim_config_from(const ScenarioSpec& spec) {
  cosim::CosimConfig cfg = spec.resolve<cosim::CosimConfig>("cosim");
  cfg.fabric = spec.resolve<net::FabricSliceConfig>("net");
  cfg.fault = spec.resolve<fault::FaultConfig>("fault");
  cfg.ml = spec.resolve<collectives::MlConfig>("ml");
  if (spec.base_seed != 0) cfg.seed = spec.derived_seed();
  return cfg;
}

cosim::CosimReport eval_cosim(const ScenarioSpec& spec,
                              disagg::AllocationPolicy policy) {
  // Per-scenario observability bundle (null sinks unless --set obs.* turned
  // something on).  The recorders are discarded with the bundle: campaign
  // rows never carry obs data, and attaching them must leave every row
  // byte-identical — the contract test_obs pins at this exact seam.
  obs::ObsBundle obs_bundle(spec.resolve<obs::ObsConfig>("obs"));
  return cosim::run_rack_cosim(spec.resolve<rack::RackConfig>("rack"), policy,
                               workloads::UsageModel::cori(),
                               cosim_config_from(spec), obs_bundle.handles());
}

const std::vector<std::string> kCosimAcceptanceColumns = {
    "policy",        "arrivals_per_ms", "horizon_ms",       "offered",
    "accepted",      "acceptance",      "mean_cpu_util",    "mean_mem_util",
    "marooned_mem",  "mean_speed"};

std::vector<ResultRow> eval_cosim_acceptance(const ScenarioSpec& spec) {
  const auto report =
      eval_cosim(spec, disagg::allocation_policy_codec().parse(spec.at("policy")));
  ResultRow row;
  row.cells = {spec.at("policy"),
               spec.at("cosim.arrivals_per_ms"),
               spec.at("cosim.horizon_ms"),
               num_to_string(static_cast<double>(report.jobs.offered)),
               num_to_string(static_cast<double>(report.jobs.accepted)),
               num_to_string(report.jobs.acceptance()),
               num_to_string(report.jobs.mean_cpu_utilization),
               num_to_string(report.jobs.mean_memory_utilization),
               num_to_string(report.jobs.mean_marooned_memory),
               num_to_string(report.mean_speed_fraction)};
  return {std::move(row)};
}

std::vector<Axis> cosim_acceptance_axes() {
  return {{"policy", {"static", "disagg"}},
          {"cosim.arrivals_per_ms", {"2", "4", "8"}},
          {"cosim.horizon_ms", {"200"}}};
}

const std::vector<std::string> kCosimContentionColumns = {
    "feedback",       "arrivals_per_ms",    "horizon_ms",  "acceptance",
    "satisfied_frac", "indirect_frac",      "blocking",    "mean_speed",
    "mean_stretch",   "peak_fabric_util"};

std::vector<ResultRow> eval_cosim_contention(const ScenarioSpec& spec) {
  const auto report = eval_cosim(spec, disagg::AllocationPolicy::kDisaggregated);
  ResultRow row;
  row.cells = {spec.at("cosim.contention_feedback"),
               spec.at("cosim.arrivals_per_ms"),
               spec.at("cosim.horizon_ms"),
               num_to_string(report.jobs.acceptance()),
               num_to_string(report.flows.satisfied_fraction),
               num_to_string(report.flows.indirect_fraction),
               num_to_string(report.flows.blocking_probability()),
               num_to_string(report.mean_speed_fraction),
               num_to_string(report.mean_stretch),
               num_to_string(report.flows.peak_utilization)};
  return {std::move(row)};
}

std::vector<Axis> cosim_contention_axes() {
  return {{"cosim.contention_feedback", {"open", "closed"}},
          {"cosim.arrivals_per_ms", {"2", "4", "8", "16"}},
          {"cosim.horizon_ms", {"200"}}};
}

const std::vector<std::string> kCosimEnergyColumns = {
    "policy",     "arrivals_per_ms", "horizon_ms",  "accepted",
    "energy_kj",  "mean_kw",         "peak_kw",     "photonic_kw",
    "kj_per_job"};

std::vector<ResultRow> eval_cosim_energy(const ScenarioSpec& spec) {
  const auto report =
      eval_cosim(spec, disagg::allocation_policy_codec().parse(spec.at("policy")));
  const double kj = report.energy_joules / 1e3;
  ResultRow row;
  row.cells = {spec.at("policy"),
               spec.at("cosim.arrivals_per_ms"),
               spec.at("cosim.horizon_ms"),
               num_to_string(static_cast<double>(report.jobs.accepted)),
               num_to_string(kj),
               num_to_string(report.mean_power_w / 1e3),
               num_to_string(report.peak_power_w / 1e3),
               num_to_string(report.photonic_power_w / 1e3),
               num_to_string(report.jobs.accepted
                                 ? kj / static_cast<double>(report.jobs.accepted)
                                 : 0.0)};
  return {std::move(row)};
}

std::vector<Axis> cosim_energy_axes() {
  return {{"policy", {"static", "disagg"}},
          {"cosim.arrivals_per_ms", {"2", "8"}},
          {"cosim.horizon_ms", {"200"}}};
}

const std::vector<std::string> kCosimTailsColumns = {
    "process",          "admission",      "arrivals_per_ms", "horizon_ms",
    "offered",          "accepted",       "acceptance",      "wait_p50_ms",
    "wait_p99_ms",      "wait_p999_ms",   "slowdown_p50",    "slowdown_p99",
    "slowdown_p999",    "fct_p50_ms",     "fct_p99_ms",      "fct_p999_ms",
    "censored_waiting", "censored_running"};

std::vector<ResultRow> eval_cosim_tails(const ScenarioSpec& spec) {
  const auto report = eval_cosim(spec, disagg::AllocationPolicy::kDisaggregated);
  const auto& jobs = report.jobs;
  ResultRow row;
  row.cells = {spec.at("cosim.arrival.process"),
               spec.at("cosim.admission"),
               spec.at("cosim.arrivals_per_ms"),
               spec.at("cosim.horizon_ms"),
               num_to_string(static_cast<double>(jobs.offered)),
               num_to_string(static_cast<double>(jobs.accepted)),
               num_to_string(jobs.acceptance()),
               num_to_string(jobs.wait_ms.p50),
               num_to_string(jobs.wait_ms.p99),
               num_to_string(jobs.wait_ms.p999),
               num_to_string(jobs.slowdown.p50),
               num_to_string(jobs.slowdown.p99),
               num_to_string(jobs.slowdown.p999),
               num_to_string(jobs.fct_ms.p50),
               num_to_string(jobs.fct_ms.p99),
               num_to_string(jobs.fct_ms.p999),
               num_to_string(static_cast<double>(jobs.censored_waiting)),
               num_to_string(static_cast<double>(jobs.censored_running))};
  return {std::move(row)};
}

std::vector<Axis> cosim_tails_axes() {
  return {{"cosim.arrival.process", {"poisson", "mmpp", "diurnal"}},
          {"cosim.admission", {"queue"}},
          {"cosim.arrivals_per_ms", {"4", "12"}},
          {"cosim.horizon_ms", {"200"}}};
}

const std::vector<std::string> kCosimAvailabilityColumns = {
    "admission",    "resilience",   "mcm_mtbf_ms", "horizon_ms",
    "offered",      "accepted",     "faults",      "repairs",
    "interrupted",  "requeued",     "degraded",    "killed",
    "goodput",      "availability", "work_lost_ms", "mttr_ms"};

std::vector<ResultRow> eval_cosim_availability(const ScenarioSpec& spec) {
  const auto report = eval_cosim(spec, disagg::AllocationPolicy::kDisaggregated);
  const auto& f = report.fault;
  ResultRow row;
  row.cells = {spec.at("cosim.admission"),
               spec.at("fault.policy"),
               spec.at("fault.mcm_mtbf_ms"),
               spec.at("cosim.horizon_ms"),
               num_to_string(static_cast<double>(report.jobs.offered)),
               num_to_string(static_cast<double>(report.jobs.accepted)),
               num_to_string(static_cast<double>(f.faults)),
               num_to_string(static_cast<double>(f.repairs)),
               num_to_string(static_cast<double>(f.interrupted)),
               num_to_string(static_cast<double>(f.requeued)),
               num_to_string(static_cast<double>(f.degraded)),
               num_to_string(static_cast<double>(f.killed)),
               num_to_string(static_cast<double>(f.goodput_jobs)),
               num_to_string(f.availability),
               num_to_string(f.work_lost_ms),
               num_to_string(f.mean_mttr_ms)};
  return {std::move(row)};
}

std::vector<Axis> cosim_availability_axes() {
  return {{"cosim.admission", {"drop", "queue"}},
          {"fault.policy", {"kill", "requeue", "degrade"}},
          {"fault.enabled", {"true"}},
          {"fault.mcm_mtbf_ms", {"40", "160", "640"}},
          {"fault.node_mtbf_ms", {"320"}},
          {"cosim.horizon_ms", {"200"}}};
}

const std::vector<std::string> kCosimBlastRadiusColumns = {
    "policy",       "mcm_mtbf_ms",  "offered",     "accepted",
    "faults",       "interrupted",  "requeued",    "killed",
    "goodput",      "availability", "work_lost_ms"};

std::vector<ResultRow> eval_cosim_blast_radius(const ScenarioSpec& spec) {
  const auto report =
      eval_cosim(spec, disagg::allocation_policy_codec().parse(spec.at("policy")));
  const auto& f = report.fault;
  ResultRow row;
  row.cells = {spec.at("policy"),
               spec.at("fault.mcm_mtbf_ms"),
               num_to_string(static_cast<double>(report.jobs.offered)),
               num_to_string(static_cast<double>(report.jobs.accepted)),
               num_to_string(static_cast<double>(f.faults)),
               num_to_string(static_cast<double>(f.interrupted)),
               num_to_string(static_cast<double>(f.requeued)),
               num_to_string(static_cast<double>(f.killed)),
               num_to_string(static_cast<double>(f.goodput_jobs)),
               num_to_string(f.availability),
               num_to_string(f.work_lost_ms)};
  return {std::move(row)};
}

std::vector<Axis> cosim_blast_radius_axes() {
  return {{"policy", {"static", "disagg"}},
          {"fault.enabled", {"true"}},
          {"fault.mcm_mtbf_ms", {"60", "240"}},
          {"fault.node_mtbf_ms", {"240"}},
          {"fault.policy", {"requeue"}},
          {"cosim.admission", {"queue"}},
          {"cosim.horizon_ms", {"200"}}};
}

// ---------------------------------------------------------------------------
// ML collective campaigns (src/collectives): training jobs whose step time
// is gated by the slowest collective flow, on the photonic fabric vs an
// electronic baseline (fig12-style framing via Kumar et al., PAPERS.md).
// The "fabric" axis is free: the evaluator maps electronic onto the
// unregistered MlConfig::electronic switch so the comparison is one row
// pair per pattern/gradient point.
// ---------------------------------------------------------------------------

const std::vector<std::string> kMlCollectivesColumns = {
    "fabric",       "pattern",       "gradient_mb",  "accelerators",
    "compute_ms",   "offered",       "accepted",     "completed",
    "steps",        "step_p50_ms",   "step_p99_ms",  "coll_frac_p50",
    "straggler_p99", "ideal_coll_ms"};

std::vector<ResultRow> eval_ml_collectives(const ScenarioSpec& spec) {
  obs::ObsBundle obs_bundle(spec.resolve<obs::ObsConfig>("obs"));
  cosim::CosimConfig cfg = cosim_config_from(spec);
  const std::string fabric = spec.at("fabric");
  if (fabric == "electronic")
    cfg.ml.electronic = true;
  else if (fabric != "photonic")
    throw std::invalid_argument("unknown fabric '" + fabric +
                                "' (want photonic|electronic)");
  const auto report = cosim::run_rack_cosim(
      spec.resolve<rack::RackConfig>("rack"), disagg::AllocationPolicy::kDisaggregated,
      workloads::UsageModel::cori(), cfg, obs_bundle.handles());
  // Closed-form uncontended collective time at the effective per-flow rate:
  // the lower bound the measured step times are judged against.
  const double effective_gbps =
      cfg.ml.demand_gbps * (cfg.ml.electronic ? cfg.ml.electronic_derate : 1.0);
  const double ideal_coll_ms =
      1e3 * collectives::lower_bound_seconds(cfg.ml.pattern, cfg.ml.accelerators,
                                             cfg.ml.gradient_mb * 1e6,
                                             effective_gbps);
  const auto& ml = report.ml;
  ResultRow row;
  row.cells = {fabric,
               spec.at("ml.pattern"),
               spec.at("ml.gradient_mb"),
               num_to_string(static_cast<double>(cfg.ml.accelerators)),
               num_to_string(cfg.ml.compute_ms),
               num_to_string(static_cast<double>(ml.jobs_offered)),
               num_to_string(static_cast<double>(ml.jobs_accepted)),
               num_to_string(static_cast<double>(ml.jobs_completed)),
               num_to_string(static_cast<double>(ml.steps)),
               num_to_string(ml.step_ms.p50),
               num_to_string(ml.step_ms.p99),
               num_to_string(ml.coll_frac.p50),
               num_to_string(ml.straggler.p99),
               num_to_string(ideal_coll_ms)};
  return {std::move(row)};
}

std::vector<Axis> ml_collectives_axes() {
  return {{"fabric", {"photonic", "electronic"}},
          {"ml.pattern", {"ring", "alltoall", "ps", "broadcast"}},
          {"ml.gradient_mb", {"8", "64"}},
          {"ml.enabled", {"true"}},
          {"cosim.arrivals_per_ms", {"0.05"}},
          {"cosim.horizon_ms", {"120"}}};
}

const std::vector<std::string> kMlVsHpcColumns = {
    "workload",     "arrivals_per_ms", "offered",      "accepted",
    "acceptance",   "wait_p99_ms",     "slowdown_p99", "step_p99_ms",
    "satisfied_frac", "energy_kj"};

std::vector<ResultRow> eval_ml_vs_hpc(const ScenarioSpec& spec) {
  obs::ObsBundle obs_bundle(spec.resolve<obs::ObsConfig>("obs"));
  cosim::CosimConfig cfg = cosim_config_from(spec);
  const std::string workload = spec.at("workload");
  if (workload == "ml") {
    cfg.ml.enabled = true;
    cfg.ml.mix_fraction = 1.0;
  } else if (workload != "hpc") {
    throw std::invalid_argument("unknown workload '" + workload +
                                "' (want hpc|ml)");
  }
  const auto report = cosim::run_rack_cosim(
      spec.resolve<rack::RackConfig>("rack"), disagg::AllocationPolicy::kDisaggregated,
      workloads::UsageModel::cori(), cfg, obs_bundle.handles());
  ResultRow row;
  row.cells = {workload,
               spec.at("cosim.arrivals_per_ms"),
               num_to_string(static_cast<double>(report.jobs.offered)),
               num_to_string(static_cast<double>(report.jobs.accepted)),
               num_to_string(report.jobs.acceptance()),
               num_to_string(report.jobs.wait_ms.p99),
               num_to_string(report.jobs.slowdown.p99),
               num_to_string(report.ml.step_ms.p99),
               num_to_string(report.flows.satisfied_fraction),
               num_to_string(report.energy_joules / 1e3)};
  return {std::move(row)};
}

std::vector<Axis> ml_vs_hpc_axes() {
  return {{"workload", {"hpc", "ml"}},
          {"cosim.arrivals_per_ms", {"1", "4"}},
          {"cosim.admission", {"queue"}},
          {"cosim.horizon_ms", {"120"}}};
}

const std::vector<std::string> kMlMixedRackColumns = {
    "mix_fraction", "arrivals_per_ms", "offered",       "ml_offered",
    "accepted",     "ml_accepted",     "wait_p99_ms",   "step_p50_ms",
    "step_p99_ms",  "straggler_p99",   "mean_stretch",  "energy_kj"};

std::vector<ResultRow> eval_ml_mixed_rack(const ScenarioSpec& spec) {
  obs::ObsBundle obs_bundle(spec.resolve<obs::ObsConfig>("obs"));
  const auto report = cosim::run_rack_cosim(
      spec.resolve<rack::RackConfig>("rack"), disagg::AllocationPolicy::kDisaggregated,
      workloads::UsageModel::cori(), cosim_config_from(spec),
      obs_bundle.handles());
  const auto& ml = report.ml;
  ResultRow row;
  row.cells = {spec.at("ml.mix_fraction"),
               spec.at("cosim.arrivals_per_ms"),
               num_to_string(static_cast<double>(report.jobs.offered)),
               num_to_string(static_cast<double>(ml.jobs_offered)),
               num_to_string(static_cast<double>(report.jobs.accepted)),
               num_to_string(static_cast<double>(ml.jobs_accepted)),
               num_to_string(report.jobs.wait_ms.p99),
               num_to_string(ml.step_ms.p50),
               num_to_string(ml.step_ms.p99),
               num_to_string(ml.straggler.p99),
               num_to_string(report.mean_stretch),
               num_to_string(report.energy_joules / 1e3)};
  return {std::move(row)};
}

std::vector<Axis> ml_mixed_rack_axes() {
  return {{"ml.enabled", {"true"}},
          {"ml.mix_fraction", {"0.2", "0.5"}},
          {"cosim.arrivals_per_ms", {"4"}},
          {"cosim.admission", {"queue"}},
          {"cosim.horizon_ms", {"120"}}};
}

// ---------------------------------------------------------------------------
// Cluster co-simulation: rack-scale vs cluster-scale disaggregation (Ajibola
// et al. framing from PAPERS.md).  spill=none keeps every rack an island —
// overflow is lost but the inter-rack uplinks stay dark; next/least light
// the uplinks and trade interconnect watts for cluster-wide acceptance.
// Rows are deterministic at any --jobs level AND any cluster worker count
// (the conservative-window loop; byte-compared in CI's cluster smoke step).
// ---------------------------------------------------------------------------

const std::vector<std::string> kClusterEnergyColumns = {
    "policy",          "spill",        "racks",        "arrivals_per_ms",
    "offered",         "accepted",     "acceptance",   "spilled",
    "spill_failed",    "energy_kj",    "interconnect_kw", "kj_per_job",
    "barriers"};

std::vector<ResultRow> eval_cluster_energy(const ScenarioSpec& spec) {
  const auto report = cluster::run_cluster_cosim(
      spec.resolve<rack::RackConfig>("rack"),
      disagg::allocation_policy_codec().parse(spec.at("policy")),
      workloads::UsageModel::cori(), spec.resolve<cluster::ClusterConfig>("cluster"),
      cosim_config_from(spec));
  const auto& jobs = report.total.jobs;
  const double kj = report.total.energy_joules / 1e3;
  ResultRow row;
  row.cells = {spec.at("policy"),
               spec.at("cluster.spill"),
               spec.at("cluster.racks"),
               spec.at("cosim.arrivals_per_ms"),
               num_to_string(static_cast<double>(jobs.offered)),
               num_to_string(static_cast<double>(jobs.accepted)),
               num_to_string(jobs.acceptance()),
               num_to_string(static_cast<double>(report.spilled)),
               num_to_string(static_cast<double>(report.spill_failed)),
               num_to_string(kj),
               num_to_string(report.interconnect_power_w / 1e3),
               num_to_string(jobs.accepted
                                 ? kj / static_cast<double>(jobs.accepted)
                                 : 0.0),
               num_to_string(static_cast<double>(report.barriers))};
  return {std::move(row)};
}

std::vector<Axis> cluster_energy_axes() {
  return {{"policy", {"disagg"}},
          {"cluster.spill", {"none", "next", "least"}},
          {"cluster.racks", {"4"}},
          {"cosim.arrivals_per_ms", {"6", "12"}},
          {"cosim.horizon_ms", {"120"}}};
}

std::vector<Campaign> make_campaigns() {
  std::vector<Campaign> all;

  all.push_back(Campaign{
      "fig6",
      "CPU slowdown per benchmark at +35 ns LLC<->memory latency",
      "Fig 6 (Section VI-B1)",
      kCpuColumns,
      cpu_axes({"inorder", "ooo"}, {35.0}),
      eval_cpu_point,
      cpu_work_key});

  all.push_back(Campaign{
      "fig8",
      "CPU slowdown sensitivity to +25/30/35 ns added latency",
      "Fig 8 (Section VI-B2)",
      kCpuColumns,
      cpu_axes({"inorder"}, {25.0, 30.0, 35.0}),
      eval_cpu_point,
      cpu_work_key});

  all.push_back(Campaign{
      "fig9",
      "GPU slowdown per application at +25/30/35 ns LLC<->HBM latency",
      "Fig 9 (Section VI-B3)",
      kGpuColumns,
      gpu_axes({25.0, 30.0, 35.0}, {1.0}),
      eval_gpu_point,
      gpu_work_key});

  all.push_back(Campaign{
      "table1",
      "Links and transceiver power per technology for the MCM escape budget",
      "Table I (Section III)",
      kTable1Columns,
      table1_axes(),
      eval_table1_point});

  all.push_back(Campaign{
      "table3",
      "MCM packing of the Perlmutter-like rack per chip type",
      "Table III (Section V-A)",
      kTable3Columns,
      table3_axes(),
      eval_table3_point});

  all.push_back(Campaign{
      "sec6c",
      "Photonic fabric power overhead vs the baseline rack",
      "Section VI-C",
      kSec6cColumns,
      sec6c_axes(),
      eval_sec6c_point});

  all.push_back(Campaign{
      "cosim_acceptance",
      "Closed-loop job acceptance per policy under rising load",
      "Sections II-A and VI (co-simulation)",
      kCosimAcceptanceColumns,
      cosim_acceptance_axes(),
      eval_cosim_acceptance});

  all.push_back(Campaign{
      "cosim_contention",
      "Contention feedback: open vs closed loop on the shared fabric",
      "Section IV-A (co-simulation)",
      kCosimContentionColumns,
      cosim_contention_axes(),
      eval_cosim_contention});

  all.push_back(Campaign{
      "cosim_energy",
      "Time-integrated rack energy under the live job stream",
      "Section VI-C (co-simulation)",
      kCosimEnergyColumns,
      cosim_energy_axes(),
      eval_cosim_energy});

  all.push_back(Campaign{
      "cosim_tails",
      "Tail latency (wait/slowdown/FCT p50/p99/p999) per arrival process",
      "production traffic engine (open-loop arrivals, queued admission)",
      kCosimTailsColumns,
      cosim_tails_axes(),
      eval_cosim_tails});

  all.push_back(Campaign{
      "cosim_availability",
      "Availability and goodput under the seed-derived fault timeline",
      "fault injection & resilience engine (deterministic MTBF sweep)",
      kCosimAvailabilityColumns,
      cosim_availability_axes(),
      eval_cosim_availability});

  all.push_back(Campaign{
      "cosim_blast_radius",
      "Fault blast radius: static node-local vs disaggregated fabric-bound",
      "fault injection & resilience engine (identical timeline per policy)",
      kCosimBlastRadiusColumns,
      cosim_blast_radius_axes(),
      eval_cosim_blast_radius});

  all.push_back(Campaign{
      "ml_collectives",
      "Training-step time per collective pattern: photonic vs electronic fabric",
      "ML collectives on the wavelength fabric (Kumar et al., fig12-style)",
      kMlCollectivesColumns,
      ml_collectives_axes(),
      eval_ml_collectives});

  all.push_back(Campaign{
      "ml_vs_hpc",
      "Pure ML job streams vs the paper's HPC mix on one rack",
      "ML collectives on the wavelength fabric (workload comparison)",
      kMlVsHpcColumns,
      ml_vs_hpc_axes(),
      eval_ml_vs_hpc});

  all.push_back(Campaign{
      "ml_mixed_rack",
      "HPC+ML sharing one rack: interference at rising ML mix fractions",
      "ML collectives on the wavelength fabric (mixed tenancy)",
      kMlMixedRackColumns,
      ml_mixed_rack_axes(),
      eval_ml_mixed_rack});

  all.push_back(Campaign{
      "cluster_energy",
      "Rack-scale vs cluster-scale disaggregation: acceptance and energy",
      "multi-rack cluster co-simulation (deterministic parallel event loop)",
      kClusterEnergyColumns,
      cluster_energy_axes(),
      eval_cluster_energy});

  return all;
}

}  // namespace

const std::vector<Campaign>& campaigns() {
  static const std::vector<Campaign> registry = make_campaigns();
  return registry;
}

const Campaign& campaign_by_name(const std::string& name) {
  for (const auto& campaign : campaigns())
    if (campaign.name == name) return campaign;
  std::string known;
  for (const auto& campaign : campaigns()) {
    if (!known.empty()) known += ", ";
    known += campaign.name;
  }
  throw std::out_of_range("unknown campaign '" + name + "' (known: " + known + ")");
}

}  // namespace photorack::scenario
