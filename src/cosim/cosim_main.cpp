// photorack_cosim — closed-loop rack co-simulation (jobs × fabric × power).
//
//   photorack_cosim [--policy static|disagg] [--rate R] [--duration-ms D]
//                   [--horizon-ms H] [--seed S] [--mcms N] [--open-loop]
//                   [--traffic-scale X] [--racks N] [--spill P]
//                   [--set path=value] [--manifest file.json] [--quiet]
//
// Runs one co-simulation and prints the coupled report: acceptance and
// utilization from the allocator, satisfaction/indirection from the fabric,
// stretch from the contention feedback, and the integrated energy trace.
// --racks/--spill switch to the multi-rack cluster co-simulation (the same
// report, aggregated across racks, plus spill/interconnect telemetry).
//
// Configuration goes through the config registry: the named flags are sugar
// for `--set` on the corresponding paths (--rate = cosim.arrivals_per_ms,
// --mcms = net.mcms, ...), and `--set` reaches ANY registered cosim/net/rack
// knob (`photorack_sweep --params` lists them); unknown paths and
// out-of-range values are rejected with suggestions before the run starts.
// --manifest writes the resolved parameter tree as a reproducibility
// sidecar.  For design-space sweeps over these knobs use the scenario
// engine: `photorack_sweep --campaign cosim_acceptance|...`.
#include <cstdint>
#include <exception>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <string>

#include "cluster/cluster_cosim.hpp"
#include "collectives/collective.hpp"
#include "config/bindings.hpp"
#include "config/manifest.hpp"
#include "cosim/rack_cosim.hpp"
#include "obs/obs.hpp"
#include "scenario/result_sink.hpp"
#include "sim/table.hpp"

namespace {

using namespace photorack;

void print_usage(std::ostream& os) {
  os << "usage: photorack_cosim [options]\n"
        "\n"
        "options:\n"
        "  --policy static|disagg  allocation policy (default: disagg)\n"
        "  --rate <R>              job arrivals per ms (default: 4)\n"
        "  --duration-ms <D>       mean job duration in ms (default: 20)\n"
        "  --horizon-ms <H>        arrival horizon in ms (default: 400)\n"
        "  --seed <S>              base seed (default: 7)\n"
        "  --mcms <N>              co-sim fabric endpoints (default: 24)\n"
        "  --traffic-scale <X>     scale on per-flow demand (default: 1)\n"
        "  --open-loop             disable contention feedback (no stretch)\n"
        "  --arrival <process>     arrival process: poisson|mmpp|diurnal|trace\n"
        "                          (shape knobs: --set cosim.arrival.*)\n"
        "  --queue [cap]           FIFO-queue unplaceable jobs instead of\n"
        "                          dropping (optional backlog cap, default 64)\n"
        "  --racks <N>             cluster mode: N rack event domains run in\n"
        "                          parallel under barrier synchronization\n"
        "  --spill none|next|least cluster mode: where overflow jobs go\n"
        "                          (interconnect knobs: --set cluster.*)\n"
        "  --faults                arm the seed-derived fault timeline\n"
        "                          (rates/policy via --set fault.*)\n"
        "  --ml                    admit ML training jobs (collective-gated\n"
        "                          steps; shape knobs: --set ml.*)\n"
        "  --collective <P>        ML collective pattern, implies --ml:\n"
        "                          ring|alltoall|ps|broadcast\n"
        "  --mtbf-ms <M>           arm faults with MCM and node MTBF = M ms\n"
        "  --resilience <P>        victim policy: kill|requeue|degrade\n"
        "  --set <path>=<value>    set any registered cosim/net/rack/obs knob\n"
        "                          (repeatable; photorack_sweep --params lists)\n"
        "  --manifest <file>       write the resolved config tree as JSON\n"
        "  --trace <file>          record a Chrome-trace-event timeline (sim-time\n"
        "                          keyed; open in Perfetto / chrome://tracing;\n"
        "                          ring mode via --set obs.trace.ring=N;\n"
        "                          cluster mode: rack 0 only)\n"
        "  --metrics <file>        write sampled time-series metrics rows\n"
        "                          (.jsonl for JSON lines, anything else CSV;\n"
        "                          period via --set obs.metrics.interval_ms=T;\n"
        "                          cluster mode: rack 0 only)\n"
        "  --profile               print the wall-clock self-profile table\n"
        "                          (cluster mode: summed over every rack)\n"
        "  --profile-json <file>   write the self-profile in the\n"
        "                          BENCH_results.json schema\n"
        "  --quiet                 print only the one-line summary\n"
        "  --help                  this message\n";
}

struct CliOptions {
  disagg::AllocationPolicy policy = disagg::AllocationPolicy::kDisaggregated;
  config::ConfigTree tree{config::registry()};
  std::string manifest_path;
  std::string trace_path;
  std::string metrics_path;
  std::string profile_json_path;
  bool profile_table = false;
  bool quiet = false;
  bool cluster = false;  // --racks/--spill given: run ClusterCosim
};

CliOptions parse_cli(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    // Errors name the flag the user typed in front of the parser's own
    // message ("--spill: unknown spill policy 'ring' (want none|next|least)").
    auto flagged = [&](auto&& parse) {
      try {
        parse();
      } catch (const std::exception& e) {
        throw std::invalid_argument(arg + ": " + e.what());
      }
    };
    auto set = [&](const std::string& path, const std::string& v) {
      flagged([&] { opt.tree.set(path, v); });
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      std::exit(0);
    } else if (arg == "--policy") {
      flagged([&, v = value()] { opt.policy = disagg::allocation_policy_codec().parse(v); });
    } else if (arg == "--rate") {
      set("cosim.arrivals_per_ms", value());
    } else if (arg == "--duration-ms") {
      set("cosim.duration_ms", value());
    } else if (arg == "--horizon-ms") {
      set("cosim.horizon_ms", value());
    } else if (arg == "--seed") {
      set("cosim.seed", value());
    } else if (arg == "--mcms") {
      set("net.mcms", value());
    } else if (arg == "--traffic-scale") {
      set("cosim.traffic_scale", value());
    } else if (arg == "--open-loop") {
      set("cosim.contention_feedback", "open");
    } else if (arg == "--arrival") {
      set("cosim.arrival.process", value());
    } else if (arg == "--queue") {
      set("cosim.admission", "queue");
      // Optional cap: consume the next token only when it looks like one.
      if (i + 1 < argc && argv[i + 1][0] != '-') set("cosim.queue_cap", argv[++i]);
    } else if (arg == "--racks") {
      opt.cluster = true;
      set("cluster.racks", value());
    } else if (arg == "--spill") {
      opt.cluster = true;
      set("cluster.spill", value());
    } else if (arg == "--faults") {
      set("fault.enabled", "true");
    } else if (arg == "--mtbf-ms") {
      // Sugar for the common symmetric case; per-class rates stay reachable
      // through --set fault.{mcm,node,link,laser}_mtbf_ms.
      const std::string v = value();
      set("fault.enabled", "true");
      set("fault.mcm_mtbf_ms", v);
      set("fault.node_mtbf_ms", v);
    } else if (arg == "--ml") {
      set("ml.enabled", "true");
    } else if (arg == "--collective") {
      set("ml.enabled", "true");
      set("ml.pattern", value());
    } else if (arg == "--resilience") {
      set("fault.policy", value());
    } else if (arg == "--set") {
      const std::string kv = value();
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == kv.size())
        throw std::invalid_argument("--set wants path=value, got '" + kv + "'");
      opt.tree.set(kv.substr(0, eq), kv.substr(eq + 1));
    } else if (arg == "--manifest") {
      opt.manifest_path = value();
    } else if (arg == "--trace") {
      opt.trace_path = value();
    } else if (arg == "--metrics") {
      opt.metrics_path = value();
    } else if (arg == "--profile") {
      opt.profile_table = true;
    } else if (arg == "--profile-json") {
      opt.profile_json_path = value();
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else {
      throw std::invalid_argument("unknown option '" + arg + "'");
    }
  }
  return opt;
}

/// One table cell of tail quantiles, joined by " / ", or "n/a" when the
/// stream recorded nothing: the report's 0.0 sentinel keeps sweep
/// aggregation NaN-free but must not read as a measured zero here.
std::string tail_cell(const disagg::TailStats& tail,
                      std::initializer_list<double disagg::TailStats::*> quantiles,
                      bool pct = false) {
  if (tail.count == 0) return "n/a";
  std::string cell;
  for (const auto q : quantiles) {
    if (!cell.empty()) cell += " / ";
    cell += pct ? sim::fmt_pct(tail.*q) : sim::fmt_fixed(tail.*q, 3);
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  try {
    opt = parse_cli(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "photorack_cosim: " << e.what() << "\n\n";
    print_usage(std::cerr);
    return 2;
  }

  try {
    cosim::CosimConfig cfg = opt.tree.build<cosim::CosimConfig>("cosim");
    cfg.fabric = opt.tree.build<net::FabricSliceConfig>("net");
    cfg.fault = opt.tree.build<fault::FaultConfig>("fault");
    cfg.ml = opt.tree.build<collectives::MlConfig>("ml");
    const rack::RackConfig rack = opt.tree.build<rack::RackConfig>("rack");

    if (!opt.manifest_path.empty()) {
      config::Manifest manifest;
      manifest.tool = "photorack_cosim";
      manifest.campaign = "cosim";
      // The policy is a CLI argument, not a registry knob — record it as a
      // free axis so two runs differing only in --policy differ here too.
      manifest.axes.emplace_back(
          "policy",
          std::vector<std::string>{disagg::allocation_policy_codec().name(opt.policy)});
      for (const auto& [path, v] : opt.tree.overrides())
        manifest.overrides.emplace_back(path, std::vector<std::string>{v});
      // Single-valued overrides resolve into the params map too.
      for (const auto& ov : manifest.overrides) manifest.axes.push_back(ov);
      std::ofstream out(opt.manifest_path);
      if (!out)
        throw std::runtime_error("cannot open " + opt.manifest_path);
      out << manifest.to_json(config::registry()) << "\n";
    }

    // Observability: --trace/--metrics/--profile* are sugar that force the
    // matching obs.* enable; the shape knobs (ring size, sample period)
    // stay addressable through --set obs.*.
    obs::ObsConfig obs_cfg = opt.tree.build<obs::ObsConfig>("obs");
    if (!opt.trace_path.empty()) obs_cfg.trace_enabled = true;
    if (!opt.metrics_path.empty()) obs_cfg.metrics_enabled = true;
    if (opt.profile_table || !opt.profile_json_path.empty())
      obs_cfg.profile_enabled = true;
    obs::ObsBundle obs_bundle(obs_cfg);

    // Cluster mode reuses the rack report printer on the aggregated total;
    // the cluster-only telemetry (spill, barriers, interconnect) is appended
    // below.  Cluster traces and metrics cover rack 0, profiles every rack.
    cosim::CosimReport report;
    cluster::ClusterReport cluster_report;
    if (opt.cluster) {
      const auto ccfg = opt.tree.build<cluster::ClusterConfig>("cluster");
      cluster_report = cluster::run_cluster_cosim(rack, opt.policy,
                                                  workloads::UsageModel::cori(),
                                                  ccfg, cfg, obs_bundle.handles());
      report = cluster_report.total;
    } else {
      report = cosim::run_rack_cosim(rack, opt.policy, workloads::UsageModel::cori(),
                                     cfg, obs_bundle.handles());
    }

    if (!opt.trace_path.empty())
      obs_bundle.trace()->write_json_file(opt.trace_path);

    if (!opt.metrics_path.empty()) {
      std::ofstream out(opt.metrics_path, std::ios::binary);
      if (!out)
        throw std::runtime_error("cannot open metrics file '" + opt.metrics_path +
                                 "' for writing");
      // Same cell dialect as every campaign artifact: .jsonl gets JSON
      // lines, anything else RFC-4180 CSV.
      const bool jsonl = opt.metrics_path.size() >= 6 &&
                         opt.metrics_path.compare(opt.metrics_path.size() - 6, 6,
                                                  ".jsonl") == 0;
      std::unique_ptr<scenario::ResultSink> sink;
      if (jsonl)
        sink = std::make_unique<scenario::JsonlSink>(out);
      else
        sink = std::make_unique<scenario::CsvSink>(out);
      sink->open(obs_bundle.metrics()->columns());
      for (auto& cells : obs_bundle.metrics()->string_rows())
        sink->write(scenario::ResultRow{std::move(cells)});
      sink->close();
      out.flush();
      if (!out)
        throw std::runtime_error("error writing metrics file '" + opt.metrics_path +
                                 "'");
    }

    if (!opt.profile_json_path.empty())
      obs_bundle.profiler()->write_bench_json_file(opt.profile_json_path);

    const bool hpc_placed = report.jobs.accepted > report.ml.jobs_accepted;
    if (!opt.quiet) {
      sim::Table table({"metric", "value"});
      table.add_row({"offered jobs", sim::fmt_int(static_cast<long long>(report.jobs.offered))});
      table.add_row({"accepted jobs",
                     sim::fmt_int(static_cast<long long>(report.jobs.accepted))});
      table.add_row({"acceptance", sim::fmt_pct(report.jobs.acceptance())});
      table.add_row({"mean CPU utilization", sim::fmt_pct(report.jobs.mean_cpu_utilization)});
      table.add_row(
          {"mean memory utilization", sim::fmt_pct(report.jobs.mean_memory_utilization)});
      table.add_row(
          {"marooned memory (mean)", sim::fmt_pct(report.jobs.mean_marooned_memory)});
      table.add_row({"flows routed", sim::fmt_int(static_cast<long long>(report.flows.flows))});
      table.add_row({"bandwidth satisfied", sim::fmt_pct(report.flows.satisfied_fraction)});
      table.add_row({"indirect share", sim::fmt_pct(report.flows.indirect_fraction)});
      table.add_row({"peak fabric utilization", sim::fmt_pct(report.flows.peak_utilization)});
      // Speed and stretch are admission-time quantities of HPC jobs only;
      // training jobs run at live collective rates (see the ML rows).
      const auto hpc_cell = [hpc_placed](std::string cell) {
        return hpc_placed ? cell : std::string("n/a");
      };
      table.add_row({"mean job speed (HPC jobs)",
                     hpc_cell(sim::fmt_pct(report.mean_speed_fraction))});
      table.add_row({"mean stretch (HPC jobs)",
                     hpc_cell(sim::fmt_fixed(report.mean_stretch, 3))});
      table.add_row({"max stretch (HPC jobs)",
                     hpc_cell(sim::fmt_fixed(report.max_stretch, 3))});
      using disagg::TailStats;
      constexpr auto kP50 = &TailStats::p50, kP99 = &TailStats::p99,
                     kP999 = &TailStats::p999;
      table.add_row({"wait p50/p99/p999 (ms)",
                     tail_cell(report.jobs.wait_ms, {kP50, kP99, kP999})});
      table.add_row({"slowdown p50/p99/p999",
                     tail_cell(report.jobs.slowdown, {kP50, kP99, kP999})});
      table.add_row({"fct p50/p99/p999 (ms)",
                     tail_cell(report.jobs.fct_ms, {kP50, kP99, kP999})});
      table.add_row({"censored (waiting/running)",
                     sim::fmt_int(static_cast<long long>(report.jobs.censored_waiting)) +
                         " / " +
                         sim::fmt_int(static_cast<long long>(report.jobs.censored_running))});
      if (report.fault.enabled) {
        const auto& f = report.fault;
        table.add_row({"availability", sim::fmt_pct(f.availability)});
        table.add_row({"faults / repairs",
                       sim::fmt_int(static_cast<long long>(f.faults)) + " / " +
                           sim::fmt_int(static_cast<long long>(f.repairs))});
        table.add_row({"interrupted (requeued/degraded/killed)",
                       sim::fmt_int(static_cast<long long>(f.interrupted)) + " (" +
                           sim::fmt_int(static_cast<long long>(f.requeued)) + "/" +
                           sim::fmt_int(static_cast<long long>(f.degraded)) + "/" +
                           sim::fmt_int(static_cast<long long>(f.killed)) + ")"});
        table.add_row({"goodput jobs",
                       sim::fmt_int(static_cast<long long>(f.goodput_jobs))});
        table.add_row({"work lost (ms)", sim::fmt_fixed(f.work_lost_ms, 2)});
        table.add_row({"mean MTTR (ms)",
                       f.repairs ? sim::fmt_fixed(f.mean_mttr_ms, 2) : "n/a"});
      }
      if (report.ml.enabled) {
        const auto& ml = report.ml;
        table.add_row({"ML jobs offered/accepted/completed",
                       sim::fmt_int(static_cast<long long>(ml.jobs_offered)) + " / " +
                           sim::fmt_int(static_cast<long long>(ml.jobs_accepted)) +
                           " / " +
                           sim::fmt_int(static_cast<long long>(ml.jobs_completed))});
        table.add_row({"training steps",
                       sim::fmt_int(static_cast<long long>(ml.steps)) + " (" +
                           sim::fmt_int(static_cast<long long>(ml.collective_phases)) +
                           " collective phases)"});
        table.add_row({"step p50/p99 (ms)", tail_cell(ml.step_ms, {kP50, kP99})});
        table.add_row({"collective fraction p50",
                       tail_cell(ml.coll_frac, {kP50}, /*pct=*/true)});
        table.add_row({"straggler stretch p99", tail_cell(ml.straggler, {kP99})});
      }
      if (opt.cluster) {
        table.add_row({"racks",
                       sim::fmt_int(static_cast<long long>(cluster_report.racks.size()))});
        std::string acceptance;
        for (const auto& rr : cluster_report.racks) {
          if (!acceptance.empty()) acceptance += " / ";
          acceptance += sim::fmt_pct(rr.jobs.acceptance());
        }
        table.add_row({"per-rack acceptance", acceptance});
        table.add_row({"spilled (failed)",
                       sim::fmt_int(static_cast<long long>(cluster_report.spilled)) +
                           " (" +
                           sim::fmt_int(static_cast<long long>(cluster_report.spill_failed)) +
                           ")"});
        table.add_row({"sync barriers",
                       sim::fmt_int(static_cast<long long>(cluster_report.barriers))});
        table.add_row({"interconnect power (kW)",
                       sim::fmt_fixed(cluster_report.interconnect_power_w / 1e3, 2)});
        table.add_row({"interconnect utilization",
                       sim::fmt_pct(cluster_report.interconnect_utilization)});
      }
      table.add_row({"energy (kJ)", sim::fmt_fixed(report.energy_joules / 1e3, 2)});
      table.add_row({"mean power (kW)", sim::fmt_fixed(report.mean_power_w / 1e3, 2)});
      table.add_row({"peak power (kW)", sim::fmt_fixed(report.peak_power_w / 1e3, 2)});
      table.add_row({"photonic power (kW)", sim::fmt_fixed(report.photonic_power_w / 1e3, 2)});
      const auto& ev = report.jobs.events;
      table.add_row({"events sched/disp/cancel",
                     sim::fmt_int(static_cast<long long>(ev.scheduled)) + " / " +
                         sim::fmt_int(static_cast<long long>(ev.dispatched)) + " / " +
                         sim::fmt_int(static_cast<long long>(ev.cancelled))});
      table.add_row({"pending events (peak)",
                     sim::fmt_int(static_cast<long long>(ev.pending_peak))});
      if (obs_bundle.trace())
        table.add_row(
            {"trace events (dropped)",
             sim::fmt_int(static_cast<long long>(obs_bundle.trace()->recorded())) +
                 " (" +
                 sim::fmt_int(static_cast<long long>(obs_bundle.trace()->dropped())) +
                 ")"});
      if (obs_bundle.metrics())
        table.add_row({"metrics rows sampled",
                       sim::fmt_int(static_cast<long long>(
                           obs_bundle.metrics()->rows().size()))});
      table.print(std::cout);
    }

    if (opt.profile_table && obs_bundle.profiler()) {
      sim::Table prof({"scope", "count", "ns/op", "ops/s"});
      for (const auto& e : obs_bundle.profiler()->entries()) {
        if (e.count == 0) continue;
        prof.add_row({e.name, sim::fmt_int(static_cast<long long>(e.count)),
                      sim::fmt_fixed(e.ns_per_op(), 1),
                      sim::fmt_fixed(e.items_per_sec(), 0)});
      }
      std::cout << "\nself-profile (wall clock; observation only, never fed back):\n";
      prof.print(std::cout);
    }

    std::cerr << "photorack_cosim: " << report.jobs.offered << " jobs offered, "
              << report.jobs.accepted << " accepted, ";
    if (opt.cluster)
      std::cerr << cluster_report.racks.size() << " racks, "
                << cluster_report.spilled << " spilled, ";
    std::cerr << "mean stretch (HPC jobs) "
              << (hpc_placed ? sim::fmt_fixed(report.mean_stretch, 3) : "n/a") << ", "
              << sim::fmt_fixed(report.energy_joules / 1e3, 1) << " kJ over "
              << sim::fmt_fixed(sim::to_s(report.completed_at) * 1e3, 1) << " ms\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "photorack_cosim: " << e.what() << "\n";
    return 1;
  }
}
