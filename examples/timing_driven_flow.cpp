// Full flow with file interchange: synthesize a library to .lib, a design to
// .v/.sdc, read everything back (exercising the parsers exactly as an
// external user with real files would), then run GP -> LG -> DP and write the
// placement as Bookshelf.
//
//   ./timing_driven_flow [work_dir]
#include <cstdio>
#include <filesystem>

#include "common/rng.h"
#include "io/bookshelf.h"
#include "io/sdc.h"
#include "io/verilog.h"
#include "liberty/liberty_io.h"
#include "liberty/synth_library.h"
#include "placer/global_placer.h"
#include "placer/legalizer.h"
#include "sta/timer.h"
#include "workload/circuit_gen.h"

int main(int argc, char** argv) {
  using namespace dtp;
  const std::string dir = argc > 1 ? argv[1] : "flow_out";
  std::filesystem::create_directories(dir);

  // --- produce the input files (the "PDK + design" hand-off) ---
  {
    const liberty::CellLibrary lib = liberty::make_synthetic_library();
    workload::WorkloadOptions wopts;
    wopts.num_cells = 2500;
    wopts.seed = 77;
    netlist::Design d = workload::generate_design(lib, wopts, "demo");
    liberty::write_liberty_file(lib, dir + "/demo.lib");
    io::write_verilog_file(d, dir + "/demo.v");
    io::write_sdc_file(d.constraints, dir + "/demo.sdc");
    std::printf("wrote %s/demo.{lib,v,sdc}\n", dir.c_str());
  }

  // --- consume them from scratch, as an external flow would ---
  const liberty::CellLibrary lib = liberty::parse_liberty_file(dir + "/demo.lib");
  netlist::Design design = io::read_verilog_file(lib, dir + "/demo.v");
  const auto sdc = io::read_sdc_file(dir + "/demo.sdc", design.constraints);
  std::printf("parsed library (%zu cells), netlist (%zu cells, %zu nets), "
              "sdc (%zu commands)\n",
              lib.size(), design.netlist.num_cells(), design.netlist.num_nets(),
              sdc.commands);

  // Floorplan + initial placement (the .v carries no geometry).
  {
    double area = 0.0;
    for (size_t c = 0; c < design.netlist.num_cells(); ++c) {
      const auto& m = design.netlist.lib_cell_of(static_cast<int>(c));
      area += m.width * m.height;
    }
    const double side =
        std::ceil(std::sqrt(area / 0.7) / 2.0) * 2.0;  // rows of height 2
    design.floorplan.core = Rect(0, 0, side, side);
    design.floorplan.row_height = 2.0;
    design.floorplan.site_width = 0.5;
    Rng rng(1);
    size_t pads = 0;
    for (size_t c = 0; c < design.netlist.num_cells(); ++c) {
      if (design.netlist.cell(static_cast<int>(c)).fixed) {
        // Pads around the boundary.
        const double t = rng.uniform(0.0, 4.0);
        design.cell_x[c] = t < 1 ? t * side : (t < 2 ? side : (t < 3 ? (3 - t) * side : 0.0));
        design.cell_y[c] = t < 1 ? 0.0 : (t < 2 ? (t - 1) * side : (t < 3 ? side : (4 - t) * side));
        ++pads;
      } else {
        design.cell_x[c] = side * 0.5 + rng.normal(0, side * 0.05);
        design.cell_y[c] = side * 0.5 + rng.normal(0, side * 0.05);
      }
    }
    std::printf("floorplan: %.0f x %.0f um, %zu pads fixed on the ring\n", side,
                side, pads);
  }

  sta::TimingGraph graph(design.netlist);
  sta::Timer timer(design, graph);
  auto m = timer.evaluate(design.cell_x, design.cell_y);
  std::printf("initial : WNS %8.4f  TNS %10.3f\n", m.wns, m.tns);

  placer::GlobalPlacerOptions popts;
  popts.mode = placer::PlacerMode::DiffTiming;
  popts.timing_start_iter = 50;
  placer::GlobalPlacer gp(design, graph, popts);
  const auto res = gp.run();
  m = timer.evaluate(design.cell_x, design.cell_y);
  std::printf("post GP : WNS %8.4f  TNS %10.3f  HPWL %.4g  (%d iters)\n", m.wns,
              m.tns, res.hpwl, res.iterations);
  std::printf("GP phase breakdown (of %.1f s): wirelength %.2f s, density "
              "%.2f s, rsmt %.2f s, sta fwd %.2f s, sta bwd %.2f s, "
              "step %.2f s, less %.2f s of overlap, unattributed %.2f s\n",
              res.runtime_sec, res.phases.wirelength_sec,
              res.phases.density_sec, res.phases.rsmt_sec,
              res.phases.sta_forward_sec, res.phases.sta_backward_sec,
              res.phases.step_sec, res.phases.overlap_sec,
              res.phases.unattributed_sec);

  const auto lg = placer::legalize(design, design.cell_x, design.cell_y);
  std::printf("post LG : %zu unplaced, max disp %.2f um\n", lg.failed_cells,
              lg.max_displacement);

  placer::WirelengthModel wl(design);
  const double gain =
      placer::detailed_place_swaps(design, wl, design.cell_x, design.cell_y);
  m = timer.evaluate(design.cell_x, design.cell_y);
  std::printf("post DP : WNS %8.4f  TNS %10.3f  HPWL %.4g (swap gain %.1f um)\n",
              m.wns, m.tns, wl.hpwl_unweighted(design.cell_x, design.cell_y),
              gain);

  io::write_bookshelf(design, dir);
  std::printf("wrote %s/demo.{aux,nodes,nets,pl,scl}\n", dir.c_str());
  return 0;
}
