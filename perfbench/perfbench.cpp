// photorack_perfbench — the measuring half of the photorack benchmark.
//
//   photorack_perfbench --mode rack|cluster|sweep --seed N --seconds S
//                       --trace 0|1 [--spans FILE] [--workers N]
//                       [--benches a,b,...] [--set path=value]...
//
// Runs one workload through the layers' public C++ API and checks every
// repetition's outputs.  Co-simulations use disaggregated allocation.  All
// timed work runs on one thread (one cluster worker, one sweep job) on one
// CPU, the highest-numbered one the process may use (the lowest usually
// takes the most interrupts), so that a cluster worker hand-off is a
// switch on that CPU rather than a wake-up of another one.
//
// rack, cluster: repeats the co-simulation in this process until about
// --seconds of host time are spent.  With --trace 1 it then makes one
// separate traced run: a span around each call this program makes into a
// layer, plus the obs::Profiler scopes read through the obs::Obs handle.
// A cluster then also compares one worker with --workers N on every CPU
// the process started with (cluster.speedup).
//
// sweep: runs the fig8 campaign once, on the campaign's registry seeds as
// `photorack_sweep --campaign fig8` does, so the process-wide profile
// caches start cold; --seconds and --seed are not used.  run.py starts one
// process per repetition.  With --trace 1 the one sweep is the traced run,
// followed by direct cpusim calls on the campaign's inputs.
//
// The last stdout line is one JSON object of raw measurements; run.py (next
// to this file) turns it into the benchmark's named metrics.
//
// Nothing here changes a simulation: the checks use public accessors only,
// and the profiler never feeds back into the model.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_cosim.hpp"
#include "config/bindings.hpp"
#include "config/param_registry.hpp"
#include "cosim/rack_cosim.hpp"
#include "cpusim/miss_profile.hpp"
#include "obs/profile.hpp"
#include "scenario/campaigns.hpp"
#include "scenario/sweep_grid.hpp"
#include "scenario/sweep_runner.hpp"
#include "workloads/cpu_profiles.hpp"
#include "workloads/generators.hpp"

namespace {

using namespace photorack;
using Clock = std::chrono::steady_clock;

/// Set-up is timed this many times back to back before each repetition, so
/// the samples span the whole run; run.py reports their upper quartile.
constexpr int kSetupsPerRep = 21;
/// Pairs of alternating N-worker and 1-worker runs behind cluster.speedup.
constexpr int kSpeedupPairs = 3;
constexpr disagg::AllocationPolicy kPolicy = disagg::AllocationPolicy::kDisaggregated;
constexpr const char* kCampaign = "fig8";
/// Cluster workers and sweep jobs of every run but the speedup comparison.
constexpr int kTimedWorkers = 1;
constexpr std::size_t kSweepJobs = 1;
/// Fabric utilization left after finish() that counts as a leak.  The
/// floating-point residue of a drained fabric is around 1e-13.
constexpr double kResidueLeak = 1e-9;

const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - kEpoch)
      .count();
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

struct Options {
  std::string mode;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  int workers = 1;  // compared with kTimedWorkers for cluster.speedup
  std::vector<std::string> benches;
  std::vector<std::pair<std::string, std::string>> sets;
};

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--mode") {
      o.mode = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--spans") {
      o.spans_path = value();
    } else if (arg == "--workers") {
      o.workers = std::stoi(value());
    } else if (arg == "--benches") {
      o.benches = split_commas(value());
    } else if (arg == "--set") {
      const std::string kv = value();
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0)
        throw std::invalid_argument("--set wants path=value, got '" + kv + "'");
      o.sets.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    } else {
      throw std::invalid_argument("unknown option '" + arg + "'");
    }
  }
  if (o.mode != "rack" && o.mode != "cluster" && o.mode != "sweep")
    throw std::invalid_argument("--mode must be rack, cluster or sweep");
  if (o.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  if (o.workers < 1) throw std::invalid_argument("--workers must be >= 1");
  return o;
}

// ---------------------------------------------------------------------------
// CPU affinity (of the calling thread and of the threads it starts later)
// ---------------------------------------------------------------------------

cpu_set_t g_start_cpus;

void set_cpus(const cpu_set_t& cpus) {
  if (sched_setaffinity(0, sizeof cpus, &cpus) != 0)
    throw std::runtime_error(std::string("sched_setaffinity: ") + std::strerror(errno));
}

/// Remembers the CPUs the process started with and narrows them to the
/// highest-numbered one.
void pin_to_one_cpu() {
  if (sched_getaffinity(0, sizeof g_start_cpus, &g_start_cpus) != 0)
    throw std::runtime_error(std::string("sched_getaffinity: ") + std::strerror(errno));
  int cpu = CPU_SETSIZE - 1;
  while (cpu > 0 && !CPU_ISSET(cpu, &g_start_cpus)) --cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  set_cpus(one);
}

// ---------------------------------------------------------------------------
// JSON output (numbers keep all 17 significant digits; non-finite -> null)
// ---------------------------------------------------------------------------

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Ordered JSON object assembled from already-encoded values.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, std::string encoded) {
    fields_.emplace_back(key, std::move(encoded));
    return *this;
  }
  JsonObject& num(const std::string& key, double v) { return raw(key, jnum(v)); }
  JsonObject& opt(const std::string& key, std::optional<double> v) {
    return raw(key, v ? jnum(*v) : "null");
  }
  JsonObject& str(const std::string& key, const std::string& v) { return raw(key, jstr(v)); }
  [[nodiscard]] std::string encode() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i) out += ',';
      out += jstr(fields_[i].first) + ':' + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string jarray(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += jnum(values[i]);
  }
  return out + "]";
}

std::string jstrings(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += jstr(values[i]);
  }
  return out + "]";
}

/// A percentile read from a repository sketch, with the sample count
/// run.py needs to decide whether the percentile is reportable.
std::string jtail(double q, double value, std::uint64_t count) {
  return JsonObject().num("q", q).num("value", value).num("count", static_cast<double>(count))
      .encode();
}

/// A percentile run.py computes from raw host-time samples.
std::string jsamples(double q, const std::vector<double>& samples) {
  return JsonObject().num("q", q).raw("samples", jarray(samples)).encode();
}

// ---------------------------------------------------------------------------
// Spans: this program's own calls into each layer, kept in memory
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;
  int parent = -1;
  int run = 0;
};

class SpanLog {
 public:
  int open(const std::string& name, int parent, int run) {
    spans_.push_back(Span{name, now_ns(), -1, parent, run});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_.at(static_cast<std::size_t>(id)).end_ns = now_ns(); }

  void write_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open spans file '" + path + "'");
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << JsonObject()
                 .num("id", static_cast<double>(i))
                 .str("name", s.name)
                 .num("start_ns", static_cast<double>(s.start_ns))
                 .num("end_ns", static_cast<double>(s.end_ns))
                 .num("parent", s.parent)
                 .num("run", s.run)
                 .encode()
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    if (!out) throw std::runtime_error("error writing spans file '" + path + "'");
  }

 private:
  std::vector<Span> spans_;
};

/// Where one run's calls are recorded.  The default (untraced) records
/// nothing and attaches no profiler.
struct Tracer {
  SpanLog* log = nullptr;
  obs::Profiler* profiler = nullptr;
  int run = 0;
  int parent = -1;

  [[nodiscard]] obs::Obs obs() const { return obs::Obs{nullptr, nullptr, profiler}; }

  /// Calls `f` inside a span named `name`; returns the call's host time.
  template <typename F>
  std::int64_t call(const std::string& name, F&& f) const {
    const int id = log ? log->open(name, parent, run) : -1;
    const std::int64_t t0 = now_ns();
    f();
    const std::int64_t dt = now_ns() - t0;
    if (log) log->close(id);
    return dt;
  }

  /// A tracer whose spans nest under a new span `name` (close it with end()).
  [[nodiscard]] Tracer child(const std::string& name, int run_id) const {
    Tracer t = *this;
    t.run = run_id;
    t.parent = log ? log->open(name, parent, run_id) : -1;
    return t;
  }
  void end() const {
    if (log && parent >= 0) log->close(parent);
  }
};

// ---------------------------------------------------------------------------
// Digest over a full simulated report (FNV-1a over exact bit patterns)
// ---------------------------------------------------------------------------

class Digest {
 public:
  void add(std::uint64_t v) { bytes(&v, sizeof v); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    bytes(s.data(), s.size());
  }
  void add(const disagg::TailStats& t) {
    add(t.count);
    add(t.p50);
    add(t.p99);
    add(t.p999);
  }
  void add(const cosim::CosimReport& r) {
    const auto& j = r.jobs;
    for (const std::uint64_t v : {j.offered, j.accepted, j.censored_waiting, j.censored_running,
                                  j.events.scheduled, j.events.dispatched, j.events.cancelled,
                                  j.events.pending_peak})
      add(v);
    for (const double v : {j.mean_cpu_utilization, j.mean_gpu_utilization,
                           j.mean_memory_utilization, j.mean_marooned_cpu,
                           j.mean_marooned_memory})
      add(v);
    add(j.wait_ms);
    add(j.slowdown);
    add(j.fct_ms);
    const auto& f = r.flows;
    for (const std::uint64_t v : {f.flows, f.fully_satisfied, f.stale_mispicks, f.second_hops})
      add(v);
    for (const double v : {f.offered_gbps_mean, f.satisfied_fraction, f.direct_fraction,
                           f.indirect_fraction, f.mean_intermediates, f.peak_utilization})
      add(v);
    for (const double v : {r.mean_speed_fraction, r.mean_stretch, r.max_stretch,
                           r.energy_joules, r.mean_power_w, r.peak_power_w,
                           r.photonic_power_w})
      add(v);
    add(static_cast<std::uint64_t>(r.completed_at));
    const auto& ft = r.fault;
    for (const std::uint64_t v : {std::uint64_t{ft.enabled}, ft.faults, ft.repairs,
                                  ft.interrupted, ft.requeued, ft.degraded, ft.killed,
                                  ft.goodput_jobs})
      add(v);
    for (const double v : {ft.work_lost_ms, ft.availability, ft.mean_mttr_ms}) add(v);
    const auto& ml = r.ml;
    for (const std::uint64_t v : {std::uint64_t{ml.enabled}, ml.jobs_offered, ml.jobs_accepted,
                                  ml.jobs_completed, ml.steps, ml.collective_phases})
      add(v);
    add(ml.step_ms);
    add(ml.coll_frac);
    add(ml.straggler);
  }

  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ULL;
    }
  }
  std::uint64_t h_ = 14695981039346656037ULL;
};

// ---------------------------------------------------------------------------
// Checks and failure accounting
// ---------------------------------------------------------------------------

struct Checks {
  std::uint64_t passed = 0;
  std::vector<std::string> failed;

  void expect(bool ok, const std::string& what) {
    if (ok)
      ++passed;
    else
      failed.push_back(what);
  }
};

/// One repetition of a workload: its operations (offered simulated jobs, or
/// campaign rows), the host time of the measured calls, and the digest of
/// everything it simulated.
struct Rep {
  std::uint64_t ops = 0;
  double host_s = 0.0;
  std::string digest;
};

/// Operations attempted and failed over the whole process.  A repetition
/// that throws or fails any check counts all of its operations as failed;
/// jobs the modelled rack drops are outcomes, not failures.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Checks checks;

  /// Runs `once(checks)` and books its operations.  `want_digest`, when
  /// non-empty, is the digest the repetition must reproduce.  `expected_ops`
  /// is booked as failed when the repetition throws before reporting.
  template <typename F>
  std::optional<Rep> book(const std::string& label, std::uint64_t expected_ops,
                          const std::string& want_digest, F&& once) {
    const std::size_t before = checks.failed.size();
    try {
      Rep r = once(checks);
      if (!want_digest.empty())
        checks.expect(r.digest == want_digest,
                      label + ": digest " + r.digest + " differs from " + want_digest);
      attempted += r.ops;
      if (checks.failed.size() != before) failed += r.ops;
      return r;
    } catch (const std::exception& e) {
      checks.failed.push_back(label + " threw: " + e.what());
      attempted += expected_ops;
      failed += expected_ops;
      return std::nullopt;
    }
  }
};

void check_ordered(const disagg::TailStats& t, const std::string& what, Checks& c) {
  c.expect(t.count == 0 || t.p99 >= t.p50, what + " p99 >= p50");
}

/// Conservation after finish(): a drained rack holds nothing.
void check_drained(const cosim::RackCosim& sim, const cosim::CosimReport& rep,
                   const std::string& who, Checks& c) {
  const auto& ev = rep.jobs.events;
  c.expect(ev.scheduled == ev.dispatched + ev.cancelled,
           who + "events scheduled == dispatched + cancelled");
  c.expect(sim.allocator().live_allocations() == 0, who + "no live allocations");
  const auto& pools = sim.allocator().pools();
  c.expect(pools.cpus_used == 0 && pools.gpus_used == 0, who + "CPU and GPU pools at 0");
  c.expect(sim.live_jobs() == 0 && sim.queued_jobs() == 0, who + "no live or queued jobs");
  c.expect(sim.fabric_utilization() <= kResidueLeak,
           who + "fabric drained (residue " + jnum(sim.fabric_utilization()) + ")");
}

void check_outcomes(const cosim::CosimReport& rep, const cosim::CosimConfig& cfg, Checks& c) {
  const double acc = rep.jobs.acceptance();
  c.expect(acc >= 0.0 && acc <= 1.0, "acceptance in [0,1]");
  check_ordered(rep.jobs.wait_ms, "wait", c);
  check_ordered(rep.jobs.slowdown, "slowdown", c);
  check_ordered(rep.jobs.fct_ms, "fct", c);
  check_ordered(rep.ml.step_ms, "ml step", c);
  check_ordered(rep.ml.coll_frac, "ml collective fraction", c);
  check_ordered(rep.ml.straggler, "ml straggler", c);
  if (cfg.ml.enabled && cfg.ml.mix_fraction > 0.0) {
    c.expect(rep.ml.steps > 0 && rep.ml.step_ms.p50 >= cfg.ml.compute_ms,
             "ml step time >= compute time");
    c.expect(rep.ml.collective_phases > 0, "collectives.phases > 0");
  }
}

// ---------------------------------------------------------------------------
// Workload inputs
// ---------------------------------------------------------------------------

config::ConfigTree make_tree(const Options& o) {
  config::ConfigTree tree{config::registry()};
  for (const auto& [path, v] : o.sets) tree.set(path, v);
  tree.set("cosim.seed", std::to_string(o.seed));
  return tree;
}

struct CosimInputs {
  rack::RackConfig rack;
  cosim::CosimConfig cfg;
  cluster::ClusterConfig cluster;
  workloads::UsageModel usage = workloads::UsageModel::cori();
};

CosimInputs resolve_cosim(const Options& o) {
  const config::ConfigTree tree = make_tree(o);
  CosimInputs in;
  in.cfg = tree.build<cosim::CosimConfig>("cosim");
  in.cfg.fabric = tree.build<net::FabricSliceConfig>("net");
  in.cfg.fault = tree.build<fault::FaultConfig>("fault");
  in.cfg.ml = tree.build<collectives::MlConfig>("ml");
  in.rack = tree.build<rack::RackConfig>("rack");
  in.cluster = tree.build<cluster::ClusterConfig>("cluster");
  in.cluster.workers = kTimedWorkers;
  return in;
}

/// Offered jobs a cosim repetition is expected to have (booked as failed if
/// it throws before reporting its own count).
std::uint64_t expected_jobs(const CosimInputs& in, int racks) {
  return static_cast<std::uint64_t>(std::llround(
      in.cfg.arrivals_per_ms * sim::to_s(in.cfg.sim_time) * 1e3 * racks));
}

/// Fields of the per-run record shared by every mode.
struct Record {
  std::vector<double> ops, host_s, setup_s;
  std::string digest;
  JsonObject outcomes;
  std::optional<JsonObject> traced;
};

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// Times `setup()` kSetupsPerRep times back to back.
template <typename Setup>
void time_setups(Record& rec, Setup&& setup) {
  for (int i = 0; i < kSetupsPerRep; ++i) {
    const std::int64_t t0 = now_ns();
    setup();
    rec.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
}

/// Repeats `once(checks)` until about `seconds` of host time are spent (at
/// least twice), timing set-up before each repetition.  Every repetition
/// runs the same input and must reproduce the first one's digest.
template <typename Setup, typename F>
void timed_loop(const Options& o, Tally& tally, Record& rec, std::uint64_t expected_ops,
                Setup&& setup, F&& once) {
  const std::int64_t start = now_ns();
  for (int k = 0;; ++k) {
    time_setups(rec, setup);
    const auto r = tally.book("rep " + std::to_string(k), expected_ops, rec.digest, once);
    if (r) {
      if (rec.digest.empty()) rec.digest = r->digest;
      rec.ops.push_back(static_cast<double>(r->ops));
      rec.host_s.push_back(r->host_s);
    }
    const double spent = static_cast<double>(now_ns() - start) * 1e-9;
    const double per_rep = spent / (k + 1);
    if (k >= 1 && spent + per_rep > o.seconds) break;
  }
}

// ---------------------------------------------------------------------------
// Profiler scopes (read through the obs handle the run was given)
// ---------------------------------------------------------------------------

struct Scope {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  [[nodiscard]] std::optional<double> ns_per_op() const {
    if (count == 0) return std::nullopt;
    return static_cast<double>(total_ns) / static_cast<double>(count);
  }
};

Scope scope_of(const obs::Profiler& p, const std::string& name) {
  for (const auto& e : p.entries())
    if (e.name == name) return Scope{e.count, e.total_ns};
  return {};
}

std::optional<double> ratio(double num, double den) {
  if (den == 0.0) return std::nullopt;
  return num / den;
}

/// Modelled outcomes of a co-simulation (deterministic per seed).  Like the
/// per-layer metrics, an outcome that does not apply is left out, and
/// run.py prints it as n/a.
JsonObject cosim_outcomes(const cosim::CosimReport& rep, const cosim::CosimConfig& cfg) {
  JsonObject out;
  out.num("acceptance", rep.jobs.acceptance());
  if (cfg.admission == cosim::AdmissionPolicy::kQueue)
    out.raw("wait_p99_ms", jtail(0.99, rep.jobs.wait_ms.p99, rep.jobs.wait_ms.count));
  out.raw("slowdown_p99", jtail(0.99, rep.jobs.slowdown.p99, rep.jobs.slowdown.count));
  out.opt("energy_j_per_job",
          ratio(rep.energy_joules, static_cast<double>(rep.jobs.accepted)));
  if (cfg.ml.enabled && cfg.ml.mix_fraction > 0.0)
    out.raw("ml_step_p99_ms", jtail(0.99, rep.ml.step_ms.p99, rep.ml.step_ms.count));
  return out;
}

void fault_and_ml_layers(JsonObject& layers, const cosim::CosimReport& rep,
                         const cosim::CosimConfig& cfg, const obs::Profiler* prof) {
  if (cfg.fault.enabled) {
    layers.num("fault.availability", rep.fault.availability);
    if (prof) {
      // The scope wraps every fault-timeline event (fails and repairs).
      const Scope inject = scope_of(*prof, "fault.inject");
      layers.num("fault.inject.count", static_cast<double>(inject.count));
      layers.opt("fault.inject.ns_per_op", inject.ns_per_op());
    }
  }
  if (cfg.ml.enabled && cfg.ml.mix_fraction > 0.0) {
    layers.num("collectives.steps", static_cast<double>(rep.ml.steps));
    layers.num("collectives.phases", static_cast<double>(rep.ml.collective_phases));
    layers.raw("collectives.straggler_p99",
               jtail(0.99, rep.ml.straggler.p99, rep.ml.straggler.count));
    layers.raw("collectives.coll_frac_p50",
               jtail(0.5, rep.ml.coll_frac.p50, rep.ml.coll_frac.count));
  }
}

// ---------------------------------------------------------------------------
// rack: one RackCosim driven in 1 ms advance_to slices
// ---------------------------------------------------------------------------

struct RackRun {
  cosim::CosimReport report;
  disagg::AllocatorCounters counters;
  double residue = 0.0;
  std::int64_t loop_ns = 0;  // advance_to slices + finish
  std::int64_t finish_ns = 0, report_ns = 0;
  std::vector<double> slice_ms;
};

RackRun run_rack(const CosimInputs& in, const Tracer& tr, Checks& c) {
  RackRun out;
  std::unique_ptr<cosim::RackCosim> sim;
  tr.call("cosim.RackCosim", [&] {
    sim = std::make_unique<cosim::RackCosim>(in.rack, kPolicy, in.usage, in.cfg, tr.obs());
  });
  for (sim::TimePs t = sim::kPsPerMs; t <= in.cfg.sim_time; t += sim::kPsPerMs) {
    const std::int64_t ns = tr.call("cosim.advance_to", [&] { sim->advance_to(t); });
    out.loop_ns += ns;
    if (tr.log) out.slice_ms.push_back(static_cast<double>(ns) * 1e-6);
  }
  out.finish_ns = tr.call("cosim.finish", [&] { sim->finish(); });
  out.loop_ns += out.finish_ns;
  out.report_ns = tr.call("cosim.report", [&] { out.report = sim->report(); });
  out.residue = sim->fabric_utilization();
  out.counters = sim->allocator().counters();
  check_drained(*sim, out.report, "", c);
  check_outcomes(out.report, in.cfg, c);
  return out;
}

Rep rack_rep(const RackRun& r) {
  Digest d;
  d.add(r.report);
  return Rep{r.report.jobs.offered, static_cast<double>(r.loop_ns + r.report_ns) * 1e-9,
             d.hex()};
}

void bench_rack(const Options& o, Tally& tally, Record& rec) {
  const CosimInputs in = resolve_cosim(o);
  const std::uint64_t expected = expected_jobs(in, 1);
  const auto setup = [&] {
    const CosimInputs fresh = resolve_cosim(o);
    const cosim::RackCosim sim(fresh.rack, kPolicy, fresh.usage, fresh.cfg);
  };
  std::optional<RackRun> first;
  timed_loop(o, tally, rec, expected, setup, [&](Checks& c) {
    RackRun r = run_rack(in, Tracer{}, c);
    if (!first) first = r;
    return rack_rep(r);
  });
  if (!first) return;
  rec.outcomes = cosim_outcomes(first->report, in.cfg);
  if (!o.trace) return;

  SpanLog log;
  obs::Profiler prof;
  const Tracer root = Tracer{&log, &prof}.child("perfbench.traced_run", 1);
  std::optional<RackRun> traced;
  const auto rep = tally.book("traced run", expected, rec.digest, [&](Checks& c) {
    traced = run_rack(in, root, c);
    return rack_rep(*traced);
  });
  root.end();
  if (!rep) return;

  const RackRun& t = *traced;
  const cosim::CosimReport& r = t.report;
  const Scope open = scope_of(prof, "net.flow_open");
  const Scope refresh = scope_of(prof, "net.view_refresh");
  const Scope arrival = scope_of(prof, "cosim.arrival");
  JsonObject layers;
  layers.num("cosim.events", static_cast<double>(r.jobs.events.dispatched))
      .num("cosim.pending_peak", static_cast<double>(r.jobs.events.pending_peak))
      .opt("cosim.ns_per_event", ratio(static_cast<double>(t.loop_ns),
                                       static_cast<double>(r.jobs.events.dispatched)))
      .raw("cosim.slice_ms_p50", jsamples(0.5, t.slice_ms))
      .raw("cosim.slice_ms_p99", jsamples(0.99, t.slice_ms))
      .num("cosim.arrival.count", static_cast<double>(arrival.count))
      .opt("cosim.arrival.ns_per_op", arrival.ns_per_op())
      .num("cosim.finish_ms", static_cast<double>(t.finish_ns) * 1e-6)
      .num("cosim.report_ms", static_cast<double>(t.report_ns) * 1e-6)
      .num("net.flow_open.count", static_cast<double>(open.count))
      .opt("net.flow_open.ns_per_op", open.ns_per_op())
      .num("net.view_refresh.count", static_cast<double>(refresh.count))
      .opt("net.view_refresh.ns_per_op", refresh.ns_per_op())
      .opt("net.self_share", ratio(static_cast<double>(open.total_ns + refresh.total_ns),
                                   static_cast<double>(t.loop_ns)))
      .num("net.satisfied_fraction", r.flows.satisfied_fraction)
      .num("net.indirect_fraction", r.flows.indirect_fraction)
      .num("net.drain_residue", t.residue)
      .num("disagg.allocate.count", static_cast<double>(t.counters.attempts))
      .opt("disagg.allocate.ns_per_op", scope_of(prof, "disagg.allocate").ns_per_op())
      .opt("disagg.release.ns_per_op", scope_of(prof, "disagg.release").ns_per_op())
      .num("disagg.revocations", static_cast<double>(t.counters.revocations))
      .opt("disagg.placement_ratio", ratio(static_cast<double>(t.counters.placements),
                                           static_cast<double>(t.counters.attempts)))
      .opt("stats.sketch_insert.ns_per_op", scope_of(prof, "stats.sketch_insert").ns_per_op());
  fault_and_ml_layers(layers, r, in.cfg, &prof);
  rec.traced = JsonObject()
                   .num("ops", static_cast<double>(rep->ops))
                   .num("host_s", rep->host_s)
                   .raw("layers", layers.encode());
  if (!o.spans_path.empty()) log.write_json(o.spans_path);
}

// ---------------------------------------------------------------------------
// cluster: ClusterCosim::run over coupled racks
// ---------------------------------------------------------------------------

struct ClusterRun {
  cluster::ClusterReport report;
  disagg::AllocatorCounters counters;  // summed over racks
  double residue = 0.0;                // worst rack
  std::int64_t run_ns = 0, report_ns = 0;
};

ClusterRun run_cluster(const CosimInputs& in, int workers, const Tracer& tr, Checks& c) {
  ClusterRun out;
  cluster::ClusterConfig cc = in.cluster;
  cc.workers = workers;
  std::unique_ptr<cluster::ClusterCosim> cl;
  tr.call("cluster.ClusterCosim", [&] {
    cl = std::make_unique<cluster::ClusterCosim>(in.rack, kPolicy, in.usage, cc, in.cfg,
                                                 tr.obs());
  });
  out.run_ns = tr.call("cluster.run", [&] { cl->run(); });
  out.report_ns = tr.call("cluster.report", [&] { out.report = cl->report(); });
  for (int r = 0; r < cl->racks(); ++r) {
    const cosim::RackCosim& rack = cl->rack(r);
    check_drained(rack, out.report.racks.at(static_cast<std::size_t>(r)),
                  "rack " + std::to_string(r) + ": ", c);
    out.residue = std::max(out.residue, rack.fabric_utilization());
    const auto& k = rack.allocator().counters();
    out.counters.attempts += k.attempts;
    out.counters.placements += k.placements;
    out.counters.releases += k.releases;
    out.counters.revocations += k.revocations;
  }
  c.expect(out.report.spill_failed <= out.report.spilled, "spill_failed <= spilled");
  check_outcomes(out.report.total, in.cfg, c);
  return out;
}

Rep cluster_rep(const ClusterRun& r) {
  Digest d;
  for (const auto& rack : r.report.racks) d.add(rack);
  d.add(r.report.total);
  d.add(r.report.spilled);
  d.add(r.report.spill_failed);
  d.add(r.report.barriers);
  d.add(r.report.interconnect_power_w);
  d.add(r.report.interconnect_energy_j);
  d.add(r.report.interconnect_utilization);
  return Rep{r.report.total.jobs.offered,
             static_cast<double>(r.run_ns + r.report_ns) * 1e-9, d.hex()};
}

void bench_cluster(const Options& o, Tally& tally, Record& rec) {
  const CosimInputs in = resolve_cosim(o);
  const std::uint64_t expected = expected_jobs(in, in.cluster.racks);
  const auto setup = [&] {
    const CosimInputs fresh = resolve_cosim(o);
    const cluster::ClusterCosim cl(fresh.rack, kPolicy, fresh.usage, fresh.cluster,
                                   fresh.cfg);
  };
  std::optional<cluster::ClusterReport> first;
  timed_loop(o, tally, rec, expected, setup, [&](Checks& c) {
    const ClusterRun r = run_cluster(in, kTimedWorkers, Tracer{}, c);
    if (!first) first = r.report;
    return cluster_rep(r);
  });
  if (!first) return;
  rec.outcomes = cosim_outcomes(first->total, in.cfg);
  if (!o.trace) return;

  // The profiler scopes see rack 0 only (the layers attach it there), so
  // the traced run reports cluster-wide counts from the report and leaves
  // every profiler-derived metric n/a.
  SpanLog log;
  obs::Profiler prof;
  const Tracer traced_root = Tracer{&log, &prof}.child("perfbench.traced_run", 1);
  std::optional<ClusterRun> traced;
  const auto rep = tally.book("traced run", expected, rec.digest, [&](Checks& c) {
    traced = run_cluster(in, kTimedWorkers, traced_root, c);
    return cluster_rep(*traced);
  });
  traced_root.end();

  // Alternating N-worker and 1-worker runs on every CPU the process started
  // with, untraced by the profiler: each must reproduce the digest, and the
  // ratio of their median ClusterCosim::run times is the speedup.
  // Alternating keeps a drift of the host's speed out of the ratio.
  set_cpus(g_start_cpus);
  std::vector<double> run_s[2];  // [0]: N workers, [1]: one worker
  for (int k = 0; k < kSpeedupPairs; ++k) {
    for (const int one : {0, 1}) {
      const int workers = one ? kTimedWorkers : o.workers;
      const Tracer root = Tracer{&log}.child(
          one ? "perfbench.one_worker_run" : "perfbench.n_worker_run", 2 + 2 * k + one);
      tally.book(std::to_string(workers) + "-worker run", expected, rec.digest, [&](Checks& c) {
        const ClusterRun r = run_cluster(in, workers, root, c);
        run_s[one].push_back(static_cast<double>(r.run_ns) * 1e-9);
        return cluster_rep(r);
      });
      root.end();
    }
  }
  if (!rep) return;

  const ClusterRun& t = *traced;
  const cosim::CosimReport& r = t.report.total;
  const double events = static_cast<double>(r.jobs.events.dispatched);
  JsonObject layers;
  layers.num("cosim.events", events)
      .num("cosim.pending_peak", static_cast<double>(r.jobs.events.pending_peak))
      .opt("cosim.ns_per_event", ratio(static_cast<double>(t.run_ns), events))
      .num("cosim.arrival.count", static_cast<double>(r.jobs.offered))
      .num("cosim.report_ms", static_cast<double>(t.report_ns) * 1e-6)
      .num("net.flow_open.count", static_cast<double>(r.flows.flows))
      .num("net.satisfied_fraction", r.flows.satisfied_fraction)
      .num("net.indirect_fraction", r.flows.indirect_fraction)
      .num("net.drain_residue", t.residue)
      .num("disagg.allocate.count", static_cast<double>(t.counters.attempts))
      .num("disagg.revocations", static_cast<double>(t.counters.revocations))
      .opt("disagg.placement_ratio", ratio(static_cast<double>(t.counters.placements),
                                           static_cast<double>(t.counters.attempts)));
  fault_and_ml_layers(layers, r, in.cfg, nullptr);
  const double spilled = static_cast<double>(t.report.spilled);
  layers.num("cluster.barriers", static_cast<double>(t.report.barriers))
      .opt("cluster.barriers_per_event",
           ratio(static_cast<double>(t.report.barriers), events))
      .opt("cluster.speedup",
           run_s[0].empty() || run_s[1].empty()
               ? std::nullopt
               : ratio(median_of(run_s[1]), median_of(run_s[0])))
      .num("cluster.spilled", spilled)
      .opt("cluster.spill_success_ratio",
           ratio(spilled - static_cast<double>(t.report.spill_failed), spilled));
  rec.traced = JsonObject()
                   .num("ops", static_cast<double>(rep->ops))
                   .num("host_s", rep->host_s)
                   .raw("layers", layers.encode());
  if (!o.spans_path.empty()) log.write_json(o.spans_path);
}

// ---------------------------------------------------------------------------
// sweep: a CPU latency campaign through scenario::SweepRunner
// ---------------------------------------------------------------------------

struct SweepInputs {
  const scenario::Campaign* campaign = nullptr;
  scenario::SweepGrid grid;
};

SweepInputs resolve_sweep(const Options& o) {
  SweepInputs in;
  in.campaign = &scenario::campaign_by_name(kCampaign);
  in.grid = in.campaign->default_grid();
  if (!o.benches.empty()) in.grid.set("bench", o.benches);
  for (const auto& [path, v] : o.sets) in.grid.override_axis(path, {v});
  return in;
}

/// The campaign at base seed 0 (the registry's trace seeds), as the CLI
/// runs it: the latency rows of one bench share one recorded profile.
scenario::SweepResult run_sweep(const SweepInputs& in, const Tracer& tr,
                                Checks& c, std::int64_t& run_ns) {
  const scenario::SweepRunner runner(scenario::SweepOptions{kSweepJobs, 0});
  scenario::SweepResult res;
  run_ns = tr.call("scenario.SweepRunner::run",
                   [&] { res = runner.run(*in.campaign, in.grid); });
  c.expect(res.rows.size() == in.grid.size(),
           "rows " + std::to_string(res.rows.size()) + " == grid size " +
               std::to_string(in.grid.size()));
  std::size_t bad = 0;
  for (const auto& row : res.rows) {
    const double s = res.num(row, "slowdown");
    if (!std::isfinite(s) || s < 0.0) ++bad;
  }
  c.expect(bad == 0, std::to_string(bad) + " rows with a slowdown that is not finite and >= 0");
  return res;
}

Rep sweep_rep(const scenario::SweepResult& res, std::int64_t run_ns) {
  Digest d;
  for (const auto& col : res.columns) d.add(col);
  for (const auto& row : res.rows)
    for (const auto& cell : row.cells) d.add(cell);
  return Rep{res.rows.size(), static_cast<double>(run_ns) * 1e-9, d.hex()};
}

/// Times record_miss_profile and replay_profile on the campaign's own inputs
/// (what each scenario evaluates), serially, and checks that they reproduce
/// the sweep's rows exactly.  Every row records its profile, so there are
/// enough samples for a median; `total_s` counts only the calls the sweep
/// itself makes (one recording per run of rows with the same input, one
/// replay for a row without added latency).
struct CpusimCalls {
  std::vector<double> record_ms, replay_us;
  double total_s = 0.0;
};

CpusimCalls time_cpusim(const SweepInputs& in, const scenario::SweepResult& rows,
                        const Tracer& tr, Checks& c) {
  CpusimCalls out;
  const auto specs = in.grid.expand(in.campaign->name, 0);
  std::string last_input;
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const scenario::ScenarioSpec& spec = specs[i];
    const auto& all = workloads::cpu_benchmarks();
    const auto bench = std::find_if(all.begin(), all.end(), [&](const auto& b) {
      return b.full_name() == spec.at("bench");
    });
    if (bench == all.end()) throw std::out_of_range("unknown bench " + spec.at("bench"));
    cpusim::SimConfig cfg = spec.resolve<cpusim::SimConfig>("cpusim");
    const double extra = cfg.dram.extra_ns;
    cfg.dram.extra_ns = 0.0;
    // Base seed 0: the bench's registry trace seed, as in the sweep.
    workloads::SyntheticTrace trace(bench->trace);
    const std::string input = bench->full_name() + "|" + config::registry().snapshot("cpusim", cfg);

    std::optional<cpusim::MissProfile> profile;
    const std::int64_t rec_ns = tr.call("cpusim.record_miss_profile", [&] {
      profile = cpusim::record_miss_profile(trace, cfg);
    });
    cpusim::SimResult base, result;
    const std::int64_t base_ns =
        tr.call("cpusim.replay_profile", [&] { base = cpusim::replay_profile(*profile, 0.0); });
    std::int64_t extra_ns = 0;
    result = base;
    if (extra != 0.0) {
      extra_ns = tr.call("cpusim.replay_profile",
                         [&] { result = cpusim::replay_profile(*profile, extra); });
      out.replay_us.push_back(static_cast<double>(extra_ns) * 1e-3);
    }
    out.record_ms.push_back(static_cast<double>(rec_ns) * 1e-6);
    out.replay_us.push_back(static_cast<double>(base_ns) * 1e-3);
    out.total_s += static_cast<double>((input != last_input ? rec_ns : 0) + base_ns + extra_ns) *
                   1e-9;
    last_input = input;

    const auto& row = rows.rows.at(i);
    if (rows.cell(row, "baseline_ns") != scenario::num_to_string(base.time_ns) ||
        rows.cell(row, "time_ns") != scenario::num_to_string(result.time_ns))
      ++mismatched;
  }
  c.expect(mismatched == 0, std::to_string(mismatched) +
                                " rows differ from direct record/replay calls");
  return out;
}

/// One sweep in a fresh process, so every profile cache starts cold; run.py
/// starts one process per repetition and compares their digests.
void bench_sweep(const Options& o, Tally& tally, Record& rec) {
  const SweepInputs in = resolve_sweep(o);
  const std::uint64_t expected = in.grid.size();
  time_setups(rec, [&] {
    const SweepInputs fresh = resolve_sweep(o);
    if (fresh.grid.expand(fresh.campaign->name, 0).size() != expected)
      throw std::logic_error("grid expansion size");
  });
  if (!o.trace) {
    const auto r = tally.book("sweep", expected, "", [&](Checks& c) {
      std::int64_t ns = 0;
      const scenario::SweepResult res = run_sweep(in, Tracer{}, c, ns);
      return sweep_rep(res, ns);
    });
    if (r) {
      rec.digest = r->digest;
      rec.ops.push_back(static_cast<double>(r->ops));
      rec.host_s.push_back(r->host_s);
    }
    return;
  }

  SpanLog log;
  const Tracer sweep_root = Tracer{&log}.child("perfbench.traced_run", 1);
  scenario::SweepResult traced;
  std::int64_t traced_ns = 0;
  const auto rep = tally.book("traced run", expected, "", [&](Checks& c) {
    traced = run_sweep(in, sweep_root, c, traced_ns);
    return sweep_rep(traced, traced_ns);
  });
  sweep_root.end();
  if (!rep) return;
  rec.digest = rep->digest;

  const Tracer calls_root = Tracer{&log}.child("perfbench.cpusim_calls", 2);
  std::optional<CpusimCalls> calls;
  tally.book("direct cpusim calls", expected, "", [&](Checks& c) {
    calls = time_cpusim(in, traced, calls_root, c);
    return Rep{traced.rows.size(), calls->total_s, ""};
  });
  calls_root.end();

  JsonObject layers;
  layers.num("scenario.rows", static_cast<double>(traced.rows.size()));
  if (calls) {
    layers.raw("cpusim.record_ms_p50", jsamples(0.5, calls->record_ms))
        .raw("cpusim.replay_us_p50", jsamples(0.5, calls->replay_us))
        .opt("scenario.parallel_efficiency",
             ratio(calls->total_s,
                   static_cast<double>(kSweepJobs) * static_cast<double>(traced_ns) * 1e-9));
  }
  rec.traced = JsonObject()
                   .num("ops", static_cast<double>(rep->ops))
                   .num("host_s", rep->host_s)
                   .raw("layers", layers.encode());
  if (!o.spans_path.empty()) log.write_json(o.spans_path);
}

double peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);  // kilobytes on Linux
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "photorack_perfbench: " << e.what() << "\n";
    return 2;
  }
  try {
    pin_to_one_cpu();
    Tally tally;
    Record rec;
    if (o.mode == "rack")
      bench_rack(o, tally, rec);
    else if (o.mode == "cluster")
      bench_cluster(o, tally, rec);
    else
      bench_sweep(o, tally, rec);

    JsonObject out;
    out.str("mode", o.mode)
        .raw("ops", jarray(rec.ops))
        .raw("host_s", jarray(rec.host_s))
        .raw("setup_s", jarray(rec.setup_s))
        .num("peak_rss_kb", peak_rss_kb())
        .str("digest", rec.digest)
        .num("attempted", static_cast<double>(tally.attempted))
        .num("failed", static_cast<double>(tally.failed))
        .num("checks_passed", static_cast<double>(tally.checks.passed))
        .raw("checks_failed", jstrings(tally.checks.failed))
        .raw("outcomes", rec.outcomes.encode())
        .raw("traced", rec.traced ? rec.traced->encode() : "null");
    std::cout << out.encode() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "photorack_perfbench: " << e.what() << "\n";
    return 1;
  }
}
