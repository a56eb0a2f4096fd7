// dtp_place: command-line timing-driven placer.
//
//   dtp_place --lib <file.lib> --netlist <file.v> [--sdc <file.sdc>]
//             [--mode wl|nw|dt] [--density 0.7] [--out <dir>]
//             [--report <file>] [--svg <file>] [--max-iters N] [--seed N]
//             [--legalize] [--detailed] [--verbose]
//             [--trace-out <file>] [--metrics-out <file>] [--log-level L]
//
//   dtp_place --demo <cells>   # self-generate a design instead of reading files
//
// Reads a Liberty-subset library, a structural-Verilog netlist and optional
// SDC constraints; floorplans (square core at the requested utilization, IO
// pads ringed); runs global placement in the chosen mode (wl = wirelength
// only, nw = momentum net weighting [24], dt = differentiable timing, the
// default); optionally legalizes and detail-places; writes Bookshelf
// placement, a timing report and a slack-colored SVG.
#include <cctype>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "robust/checkpoint.h"

#include "common/cli.h"
#include "common/logger.h"
#include "common/rng.h"
#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "obs/prof/sampling_profiler.h"
#include "obs/trace.h"
#include "io/bookshelf.h"
#include "io/sdc.h"
#include "io/svg_plot.h"
#include "io/verilog.h"
#include "liberty/liberty_io.h"
#include "liberty/synth_library.h"
#include "placer/global_placer.h"
#include "placer/legalizer.h"
#include "placer/run_report.h"
#include "robust/recovery.h"
#include "robust/validate.h"
#include "sta/report.h"
#include "workload/circuit_gen.h"

namespace {

using dtp::cli::arg_double;
using dtp::cli::arg_flag;
using dtp::cli::arg_int;
using dtp::cli::arg_opt_int;
using dtp::cli::arg_str;

// SIGINT/SIGTERM land here: request a cooperative cancel so the run loop
// stops between iterations, the requested artifacts (metrics/activity/trace
// JSONL, final checkpoint) are flushed through the normal exit paths, and the
// process still reports what happened.  atomic fetch_or is async-signal-safe.
dtp::placer::PlacerControl g_control;

void on_signal(int) { g_control.request_cancel(); }

void usage() {
  std::fprintf(stderr,
               "usage: dtp_place --lib F --netlist F [--sdc F] [--mode wl|nw|dt]\n"
               "                 [--density D] [--out DIR] [--report F] [--svg F]\n"
               "                 [--max-iters N] [--seed N] [--legalize]\n"
               "                 [--timing-dp [--tns-weight W]]\n"
               "                 [--detailed] [--verbose]\n"
               "                 [--trace-out F.trace.json]  # Chrome trace "
               "(chrome://tracing, Perfetto)\n"
               "                 [--metrics-out F.jsonl]     # per-iteration "
               "stream + F.summary.json\n"
               "                 [--profile-out F.folded]    # sampling "
               "profiler: collapsed stacks (flamegraph.pl/speedscope)\n"
               "                                             # + "
               "F.folded.summary.json (dtp.profile.v1)\n"
               "                 [--profile-hz HZ]      # sampling rate "
               "(default 997)\n"
               "                 [--paths-out F.jsonl]       # introspection "
               "stream: path / grad_attrib / kernel_profile records\n"
               "                 [--paths-topk K]       # paths per sample "
               "(default 10)\n"
               "                 [--introspect-every N] # sample period "
               "(default 25 iterations)\n"
               "                 [--attrib-top M]       # cells per "
               "attribution record (default 10)\n"
               "                 [--activity-out F.jsonl]  # timing-activity "
               "stream: activity / activity_summary records\n"
               "                 [--activity-every N]   # activity sample "
               "period (default 25; with --paths-out and no --activity-out,\n"
               "                                        # records share the "
               "introspection stream)\n"
               "                 [--progress [N]]       # stderr heartbeat "
               "every N iters (default 50), ignores --log-level\n"
               "                 [--log-level debug|info|warn|error|silent]\n"
               "                 [--max-recoveries N]   # rollback budget "
               "(default 5)\n"
               "                 [--no-timing-fallback] # fail instead of "
               "degrading to wirelength forces\n"
               "                 [--no-guards]          # disable the "
               "fault-tolerance layer entirely\n"
               "                 [--fault SPEC] [--fault-seed N]  # inject "
               "faults, e.g. timing_grad@120+3\n"
               "                 [--ckpt-out F.ckpt]    # seal the final "
               "optimizer state to a resumable checkpoint\n"
               "                 [--resume F.ckpt]      # continue the "
               "descent from a checkpoint (same design + seed)\n"
               "                 [--time-budget SEC]    # wall-clock watchdog:"
               " degrade, then stop with a valid placement\n"
               "       dtp_place --demo CELLS [same output options]\n"
               "SIGINT/SIGTERM stop the run between iterations and still "
               "flush every requested artifact.\n"
               "exit codes: 0 ok, 1 usage/IO error, 2 invalid design, "
               "3 placement failed (recovery budget exhausted)\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dtp;
  if (argc < 2 || arg_flag(argc, argv, "--help")) {
    usage();
    return argc < 2 ? 1 : 0;
  }
  if (arg_flag(argc, argv, "--verbose"))
    Logger::instance().set_level(LogLevel::Debug);
  if (const char* level_name = arg_str(argc, argv, "--log-level", nullptr)) {
    const auto level = parse_log_level(level_name);
    if (!level) {
      std::fprintf(stderr, "unknown --log-level %s\n", level_name);
      return 1;
    }
    Logger::instance().set_level(*level);
    Logger::instance().set_timestamps(true);
  }
  const char* trace_path = arg_str(argc, argv, "--trace-out", nullptr);
  const char* metrics_path = arg_str(argc, argv, "--metrics-out", nullptr);
  const char* paths_path = arg_str(argc, argv, "--paths-out", nullptr);
  if (trace_path != nullptr) obs::Tracer::instance().enable();

  // Sampling profiler (DESIGN.md §14): attached for the whole run, stopped
  // and flushed on every exit path so a failed run still yields its profile.
  const char* profile_path = arg_str(argc, argv, "--profile-out", nullptr);
  obs::prof::SamplingProfiler::Options prof_opts;
  prof_opts.hz = arg_double(argc, argv, "--profile-hz", prof_opts.hz);
  obs::prof::SamplingProfiler profiler(prof_opts);
  if (profile_path != nullptr) profiler.start();

  // Abnormal-exit artifact flushing: whatever was requested with --trace-out /
  // --metrics-out / --paths-out must hold everything recorded up to the abort
  // — a failed run is exactly the one worth analyzing.  The introspection
  // stream is line-flushed and needs no action beyond closing.
  std::string run_design = "?";
  std::string run_mode = "?";
  obs::IntrospectionSink introspect_sink;
  obs::IntrospectionSink activity_sink;
  // Points at whichever sink carries activity records: the dedicated
  // --activity-out stream, or the shared --paths-out stream.
  obs::IntrospectionSink* act_sink = nullptr;
  auto flush_trace_quiet = [&] {
    if (trace_path == nullptr) return;
    obs::Tracer::instance().disable();
    obs::Tracer::instance().write_json(trace_path);
  };
  auto flush_profile_quiet = [&] {
    if (profile_path == nullptr) return;
    profiler.stop();
    profiler.write_collapsed(profile_path);
    profiler.write_summary(std::string(profile_path) + ".summary.json");
  };
  // Abort record only (no placement result exists yet).
  auto flush_abort = [&](const std::string& stage, const std::string& error,
                         int code) {
    if (metrics_path != nullptr) {
      obs::JsonlWriter jsonl;
      if (jsonl.open(metrics_path)) {
        placer::append_abort_record(jsonl, {run_design, run_mode}, stage, error,
                                    code);
        placer::write_summary_json(placer::summary_path_for(metrics_path), {},
                                   {});
      }
    }
    // The activity stream ends with an explicit abort marker (PR 3 contract):
    // a crashed run's trajectory stays parseable and self-describing.
    if (act_sink != nullptr && act_sink->is_open())
      act_sink->write_abort(stage, error, code);
    flush_trace_quiet();
    flush_profile_quiet();
    introspect_sink.close();
    activity_sink.close();
  };

  try {
    // ---- inputs ----
    liberty::CellLibrary lib;
    std::unique_ptr<netlist::Design> design;
    const int demo_cells = arg_int(argc, argv, "--demo", 0);
    if (demo_cells > 0) {
      lib = liberty::make_synthetic_library();
      workload::WorkloadOptions wopts;
      wopts.num_cells = demo_cells;
      wopts.seed = static_cast<uint64_t>(arg_int(argc, argv, "--seed", 1));
      design = std::make_unique<netlist::Design>(
          workload::generate_design(lib, wopts, "demo"));
    } else {
      const char* lib_path = arg_str(argc, argv, "--lib", nullptr);
      const char* v_path = arg_str(argc, argv, "--netlist", nullptr);
      if (!lib_path || !v_path) {
        usage();
        return 1;
      }
      // Input parsing gets its own containment: malformed files are invalid
      // input (exit 2, with an abort record in the artifacts), never a crash
      // and never conflated with internal errors (exit 1).
      try {
        lib = liberty::parse_liberty_file(lib_path);
        design = std::make_unique<netlist::Design>(
            io::read_verilog_file(lib, v_path));
        if (const char* sdc = arg_str(argc, argv, "--sdc", nullptr))
          io::read_sdc_file(sdc, design->constraints);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "dtp_place: invalid input: %s\n", e.what());
        flush_abort("input", e.what(), 2);
        return 2;
      }

      // Floorplan: square core at the requested utilization, pads ringed.
      const double density = arg_double(argc, argv, "--density", 0.7);
      double area = 0.0;
      double row_h = 2.0;
      for (size_t c = 0; c < design->netlist.num_cells(); ++c) {
        const auto& m = design->netlist.lib_cell_of(static_cast<int>(c));
        area += m.width * m.height;
        if (!m.is_port()) row_h = m.height;
      }
      const double side = std::ceil(std::sqrt(area / density) / row_h) * row_h;
      design->floorplan.core = Rect(0, 0, side, side);
      design->floorplan.row_height = row_h;
      design->floorplan.site_width = 0.5;
      Rng rng(static_cast<uint64_t>(arg_int(argc, argv, "--seed", 1)));
      size_t pad_i = 0, pad_n = 0;
      for (size_t c = 0; c < design->netlist.num_cells(); ++c)
        if (design->netlist.cell(static_cast<int>(c)).fixed) ++pad_n;
      for (size_t c = 0; c < design->netlist.num_cells(); ++c) {
        if (design->netlist.cell(static_cast<int>(c)).fixed) {
          const double t = 4.0 * static_cast<double>(pad_i++) /
                           static_cast<double>(std::max<size_t>(1, pad_n));
          design->cell_x[c] =
              t < 1 ? t * side : (t < 2 ? side : (t < 3 ? (3 - t) * side : 0.0));
          design->cell_y[c] =
              t < 1 ? 0.0 : (t < 2 ? (t - 1) * side : (t < 3 ? side : (4 - t) * side));
        } else {
          design->cell_x[c] =
              std::clamp(side * 0.5 + rng.normal(0, side * 0.06), 0.0, side - 2);
          design->cell_y[c] =
              std::clamp(side * 0.5 + rng.normal(0, side * 0.06), 0.0, side - 2);
        }
      }
    }

    const auto stats = design->netlist.stats();
    run_design = design->name;
    std::printf("design %s: %zu std cells, %zu nets, %zu pins, clock %.4f ns\n",
                design->name.c_str(), stats.num_std_cells, stats.num_nets,
                stats.num_pins, design->constraints.clock_period);

    // Pre-flight validation (DESIGN.md §7): refuse broken input with a clean
    // diagnostic instead of asserting deep inside a placement kernel.
    const bool guards = !arg_flag(argc, argv, "--no-guards");
    if (guards) {
      const robust::ValidationReport report = robust::validate(*design);
      if (!report.ok()) {
        std::fprintf(stderr, "dtp_place: invalid design (%zu fatal):\n%s",
                     report.num_fatal, report.to_string().c_str());
        flush_abort("validate", "invalid design: " + report.to_string(), 2);
        return 2;
      }
      if (report.num_warnings() > 0)
        DTP_LOG_WARN("design validation: %zu warning(s)\n%s",
                     report.num_warnings(), report.to_string().c_str());
    }

    // ---- placement ----
    sta::TimingGraph graph(design->netlist);
    placer::GlobalPlacerOptions popts;
    const std::string mode = arg_str(argc, argv, "--mode", "dt");
    if (mode == "wl")
      popts.mode = placer::PlacerMode::WirelengthOnly;
    else if (mode == "nw")
      popts.mode = placer::PlacerMode::NetWeighting;
    else if (mode == "dt")
      popts.mode = placer::PlacerMode::DiffTiming;
    else {
      std::fprintf(stderr, "unknown --mode %s\n", mode.c_str());
      return 1;
    }
    run_mode = mode;
    popts.max_iters = arg_int(argc, argv, "--max-iters", popts.max_iters);
    popts.progress_every = arg_opt_int(argc, argv, "--progress", 50);
    if (paths_path != nullptr) {
      if (!introspect_sink.open(paths_path)) {
        std::fprintf(stderr, "dtp_place: cannot write %s\n", paths_path);
        return 1;
      }
      popts.introspect_sink = &introspect_sink;
      popts.introspect.paths_topk = arg_int(argc, argv, "--paths-topk", 10);
      popts.introspect.sample_period =
          arg_int(argc, argv, "--introspect-every", 25);
      popts.introspect.top_m_cells = arg_int(argc, argv, "--attrib-top", 10);
    }
    // Timing-activity telemetry (DESIGN.md §11): its own stream, or piggyback
    // on the introspection stream when only a cadence was requested.
    const char* activity_path = arg_str(argc, argv, "--activity-out", nullptr);
    const int activity_every = arg_int(argc, argv, "--activity-every", 25);
    if (activity_path != nullptr) {
      if (!activity_sink.open(activity_path)) {
        std::fprintf(stderr, "dtp_place: cannot write %s\n", activity_path);
        return 1;
      }
      activity_sink.set_meta(design->name, mode);
      act_sink = &activity_sink;
    } else if (cli::arg_str(argc, argv, "--activity-every", nullptr) != nullptr) {
      if (paths_path == nullptr) {
        std::fprintf(stderr,
                     "dtp_place: --activity-every needs --activity-out or "
                     "--paths-out for a stream\n");
        return 1;
      }
      act_sink = &introspect_sink;
    }
    if (act_sink != nullptr) {
      popts.activity_sink = act_sink;
      popts.activity.sample_period = activity_every;
    }
    popts.verbose = arg_flag(argc, argv, "--verbose");
    popts.robust.enabled = guards;
    popts.robust.max_recoveries =
        arg_int(argc, argv, "--max-recoveries", popts.robust.max_recoveries);
    popts.robust.timing_fallback = !arg_flag(argc, argv, "--no-timing-fallback");
    popts.robust.fault_spec = arg_str(argc, argv, "--fault", "");
    popts.robust.fault_seed = static_cast<uint64_t>(
        arg_int(argc, argv, "--fault-seed",
                static_cast<int>(popts.robust.fault_seed)));

    // Control plane (DESIGN.md §12): wall-clock budget, resume, checkpoint
    // out, and a cooperative SIGINT/SIGTERM cancel.
    popts.time_budget_sec = arg_double(argc, argv, "--time-budget", 0.0);
    popts.control = &g_control;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    robust::Checkpoint resume_ckpt;
    if (const char* resume_path = arg_str(argc, argv, "--resume", nullptr)) {
      std::string err;
      if (!resume_ckpt.load_file(resume_path, &err)) {
        std::fprintf(stderr, "dtp_place: cannot resume: %s\n", err.c_str());
        flush_abort("resume", err, 2);
        return 2;
      }
      if (!resume_ckpt.verify()) {
        std::fprintf(stderr,
                     "dtp_place: cannot resume: %s failed checksum "
                     "verification (corrupt or tampered checkpoint)\n",
                     resume_path);
        flush_abort("resume", "checkpoint checksum mismatch", 2);
        return 2;
      }
      if (resume_ckpt.num_cells() != design->netlist.num_cells()) {
        std::fprintf(stderr,
                     "dtp_place: cannot resume: checkpoint holds %zu cells, "
                     "design has %zu (wrong design or seed)\n",
                     resume_ckpt.num_cells(), design->netlist.num_cells());
        flush_abort("resume", "checkpoint/design size mismatch", 2);
        return 2;
      }
      popts.resume_from = &resume_ckpt;
      std::printf("resuming from %s (iteration %d)\n", resume_path,
                  resume_ckpt.iter());
    }
    robust::Checkpoint final_ckpt;
    const char* ckpt_out_path = arg_str(argc, argv, "--ckpt-out", nullptr);
    if (ckpt_out_path != nullptr) popts.checkpoint_out = &final_ckpt;

    placer::GlobalPlacer gp(*design, graph, popts);
    const auto res = gp.run();
    if (res.stop_reason == placer::StopReason::Cancelled)
      std::fprintf(stderr,
                   "dtp_place: interrupted at iteration %d; flushing "
                   "artifacts\n",
                   res.iterations);
    if (res.stop_reason == placer::StopReason::TimeBudget)
      std::fprintf(stderr,
                   "dtp_place: wall-clock budget exhausted at iteration %d; "
                   "placement is valid\n",
                   res.iterations);
    if (ckpt_out_path != nullptr) {
      if (final_ckpt.valid() && final_ckpt.save_file(ckpt_out_path))
        std::printf("wrote %s (checkpoint at iteration %d)\n", ckpt_out_path,
                    final_ckpt.iter());
      else
        std::fprintf(stderr, "dtp_place: cannot write %s\n", ckpt_out_path);
    }
    std::printf("global placement: %d iterations, HPWL %.6g um, overflow %.3f, "
                "%.1f s (timing engine %.1f s)\n",
                res.iterations, res.hpwl, res.overflow, res.runtime_sec,
                res.sta_runtime_sec);
    if (res.health != robust::RunHealth::Ok)
      std::printf("run health: %s (%d rollback(s), %d timing fallback(s))\n",
                  robust::run_health_name(res.health), res.rollbacks,
                  res.timing_fallbacks);
    // Run artifacts are written before the failure exit below: a run that
    // exhausted its recovery budget is exactly the one worth analyzing.
    const bool run_failed = res.health == robust::RunHealth::Failed;
    if (act_sink != nullptr && run_failed)
      act_sink->write_abort("placement", "recovery budget exhausted", 3);
    if (paths_path != nullptr) {
      std::printf("wrote %s (%zu introspection records)\n", paths_path,
                  introspect_sink.records_written());
      introspect_sink.close();
    }
    if (activity_sink.is_open()) {
      std::printf("wrote %s (%zu activity-stream records)\n",
                  arg_str(argc, argv, "--activity-out", "?"),
                  activity_sink.records_written());
      activity_sink.close();
    }
    if (metrics_path != nullptr) {
      const placer::RunMeta meta{design->name, mode};
      obs::JsonlWriter jsonl;
      if (!jsonl.open(metrics_path)) {
        std::fprintf(stderr, "dtp_place: cannot write %s\n", metrics_path);
        return 1;
      }
      placer::append_run_jsonl(jsonl, res, meta);
      if (run_failed)
        placer::append_abort_record(jsonl, meta, "placement",
                                    "recovery budget exhausted", 3);
      const std::string summary = placer::summary_path_for(metrics_path);
      placer::write_summary_json(summary, {res}, {meta});
      std::printf("wrote %s and %s\n", metrics_path, summary.c_str());
    }
    if (run_failed) {
      std::fprintf(stderr,
                   "dtp_place: placement failed: recovery budget exhausted "
                   "after %d rollback(s); positions hold the best-known "
                   "checkpoint\n",
                   res.rollbacks);
      flush_trace_quiet();
      flush_profile_quiet();
      return 3;
    }

    if (arg_flag(argc, argv, "--legalize") || arg_flag(argc, argv, "--detailed")) {
      const auto lg = placer::legalize(*design, design->cell_x, design->cell_y);
      std::printf("legalization: %zu unplaced, avg displacement %.3f um\n",
                  lg.failed_cells,
                  lg.total_displacement / std::max<size_t>(1, stats.num_std_cells));
      if (arg_flag(argc, argv, "--detailed")) {
        placer::WirelengthModel wl(*design);
        const double gain = placer::detailed_place_swaps(*design, wl,
                                                         design->cell_x,
                                                         design->cell_y);
        std::printf("detailed placement: HPWL gain %.1f um\n", gain);
      }
      if (arg_flag(argc, argv, "--timing-dp")) {
        placer::WirelengthModel wl(*design);
        sta::Timer dp_timer(*design, graph);
        dp_timer.evaluate(design->cell_x, design->cell_y);
        const auto dp = placer::timing_driven_swaps(
            *design, wl, dp_timer, design->cell_x, design->cell_y,
            arg_double(argc, argv, "--tns-weight", 50.0));
        std::printf("timing-driven DP: TNS gain %.3f ns, HPWL delta %+.1f um, "
                    "%zu/%zu swaps\n",
                    dp.tns_gain, dp.hpwl_delta, dp.swaps_accepted,
                    dp.swaps_tried);
      }
    }

    // ---- reporting ----
    sta::TimerOptions topts;
    topts.enable_early = true;
    sta::Timer timer(*design, graph, topts);
    const auto m = timer.evaluate(design->cell_x, design->cell_y);
    std::printf("signoff: setup WNS %.4f ns  TNS %.3f ns  |  hold WNS %.4f ns\n",
                m.wns, m.tns, m.hold_wns);

    if (const char* report_path = arg_str(argc, argv, "--report", nullptr)) {
      std::ofstream rf(report_path);
      sta::ReportOptions ropts;
      ropts.max_paths = 5;
      sta::write_timing_report(timer, ropts, rf);
      std::printf("wrote %s\n", report_path);
    }
    if (const char* svg_path = arg_str(argc, argv, "--svg", nullptr)) {
      io::write_slack_svg(*design, timer, svg_path);
      std::printf("wrote %s\n", svg_path);
    }
    if (const char* out_dir = arg_str(argc, argv, "--out", nullptr)) {
      std::filesystem::create_directories(out_dir);
      io::write_bookshelf(*design, out_dir);
      std::printf("wrote %s/%s.{aux,nodes,nets,pl,scl}\n", out_dir,
                  design->name.c_str());
    }
    if (trace_path != nullptr) {
      obs::Tracer::instance().disable();
      if (!obs::Tracer::instance().write_json(trace_path)) {
        std::fprintf(stderr, "dtp_place: cannot write %s\n", trace_path);
        return 1;
      }
      std::printf("wrote %s (%zu spans; open in chrome://tracing or "
                  "ui.perfetto.dev)\n",
                  trace_path, obs::Tracer::instance().num_events());
    }
    if (profile_path != nullptr) {
      profiler.stop();
      if (!profiler.write_collapsed(profile_path)) {
        std::fprintf(stderr, "dtp_place: cannot write %s\n", profile_path);
        return 1;
      }
      const std::string summary_path =
          std::string(profile_path) + ".summary.json";
      profiler.write_summary(summary_path);
      std::printf("wrote %s and %s (%llu samples at %.0f Hz; feed the "
                  "collapsed stacks to flamegraph.pl or speedscope)\n",
                  profile_path, summary_path.c_str(),
                  static_cast<unsigned long long>(profiler.samples()),
                  prof_opts.hz);
    }
    return 0;
  } catch (const robust::ValidationError& e) {
    std::fprintf(stderr, "dtp_place: invalid design: %s\n", e.what());
    flush_abort("validate", e.what(), 2);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dtp_place: error: %s\n", e.what());
    flush_abort("run", e.what(), 1);
    return 1;
  } catch (...) {
    std::fprintf(stderr, "dtp_place: error: unknown exception\n");
    flush_abort("run", "unknown exception", 1);
    return 1;
  }
}
