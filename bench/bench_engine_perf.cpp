// Engine micro-benchmarks (google-benchmark): the cost centres of the
// circuit simulator that all reproduction experiments stand on.
#include <benchmark/benchmark.h>

#include <iostream>
#include <sstream>
#include <string>

#include "src/exec/exec.hpp"
#include "src/fault/plant.hpp"
#include "src/linalg/lu.hpp"
#include "src/obs/report.hpp"
#include "src/magnetics/coil_design.hpp"
#include "src/magnetics/coupling.hpp"
#include "src/pm/rectifier.hpp"
#include "src/spice/devices_passive.hpp"
#include "src/spice/devices_sources.hpp"
#include "src/spice/engine.hpp"

using namespace ironic;
using namespace ironic::spice;

static void BM_LuSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::Matrix a(n, n);
  linalg::Vector b(n, 1.0);
  unsigned s = 7;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      s = s * 1103515245u + 12345u;
      a(r, c) = static_cast<double>((s >> 8) % 1000) / 1000.0;
    }
    a(r, r) += 4.0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::solve(a, b));
  }
}
BENCHMARK(BM_LuSolve)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// Fold the engine's per-run statistics into google-benchmark counters so
// the machine-readable output carries solver behaviour alongside timing.
static void report_transient_stats(benchmark::State& state,
                                   const TransientStats& stats) {
  state.counters["accepted_steps"] =
      benchmark::Counter(static_cast<double>(stats.accepted_steps),
                         benchmark::Counter::kAvgIterations);
  state.counters["newton_iters"] =
      benchmark::Counter(static_cast<double>(stats.newton_iterations),
                         benchmark::Counter::kAvgIterations);
  state.counters["factorizations"] =
      benchmark::Counter(static_cast<double>(stats.factorizations),
                         benchmark::Counter::kAvgIterations);
  state.counters["solves"] =
      benchmark::Counter(static_cast<double>(stats.solves),
                         benchmark::Counter::kAvgIterations);
  state.counters["breakpoint_hits"] =
      benchmark::Counter(static_cast<double>(stats.breakpoint_hits),
                         benchmark::Counter::kAvgIterations);
  state.counters["max_newton_iters"] =
      static_cast<double>(stats.max_newton_iterations);
  state.counters["steps_per_sec"] =
      benchmark::Counter(static_cast<double>(stats.accepted_steps),
                         benchmark::Counter::kIsRate);
}

// Build "<prefix><i>" without operator+(const char*, string&&); the
// inlined rope concat trips a GCC 12 -Wrestrict false positive
// (PR105329) at -O3 under -Werror.
static std::string tag(const char* prefix, int i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

static void BM_TransientRcLadder(benchmark::State& state) {
  // N-section RC ladder driven by the 5 MHz carrier: pure linear cost.
  const int sections = static_cast<int>(state.range(0));
  TransientStats stats;
  for (auto _ : state) {
    Circuit ckt;
    NodeId prev = ckt.node("in");
    ckt.add<VoltageSource>("V1", prev, kGround, Waveform::sine(1.0, 5e6));
    for (int i = 0; i < sections; ++i) {
      const NodeId next = ckt.node(tag("n", i));
      ckt.add<Resistor>(tag("R", i), prev, next, 100.0);
      ckt.add<Capacitor>(tag("C", i), next, kGround, 100e-12);
      prev = next;
    }
    TransientOptions opts;
    opts.t_stop = 2e-6;
    opts.dt_max = 2e-9;
    opts.record_every = 16;
    benchmark::DoNotOptimize(run_transient(ckt, opts, &stats));
  }
  report_transient_stats(state, stats);
}
BENCHMARK(BM_TransientRcLadder)->Arg(4)->Arg(12)->Arg(24);

static void BM_TransientRectifier(benchmark::State& state) {
  // The nonlinear workhorse: rectifier + clamps + switches at 5 MHz.
  TransientStats stats;
  for (auto _ : state) {
    Circuit ckt;
    const auto src = ckt.node("src");
    const auto vi = ckt.node("vi");
    ckt.add<VoltageSource>("Vs", src, kGround, Waveform::sine(3.5, 5e6));
    ckt.add<Resistor>("Rs", src, vi, 150.0);
    pm::RectifierOptions opt;
    opt.storage_capacitance = 10e-9;
    pm::build_rectifier(ckt, "r", vi, Waveform::dc(0.0), Waveform::dc(1.8), opt);
    TransientOptions opts;
    opts.t_stop = 4e-6;
    opts.dt_max = 5e-9;
    opts.record_every = 16;
    benchmark::DoNotOptimize(run_transient(ckt, opts, &stats));
  }
  report_transient_stats(state, stats);
}
BENCHMARK(BM_TransientRectifier);

static void BM_ChargeUp(benchmark::State& state) {
  // The fleet's shared charge-up (Fig. 11): the campaigns' rectifier
  // plant from rest to 270 us at the 10 ns step, 27,001 steps.
  TransientStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::capture_charged_checkpoint({}, &stats));
  }
  report_transient_stats(state, stats);
}
BENCHMARK(BM_ChargeUp)->Unit(benchmark::kMillisecond);

static void BM_CoilMutualInductance(benchmark::State& state) {
  const magnetics::Coil tx{magnetics::patch_coil_spec()};
  const magnetics::Coil rx{magnetics::implant_coil_spec()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(magnetics::mutual_inductance(tx, rx, 6e-3));
  }
}
BENCHMARK(BM_CoilMutualInductance);

static void BM_NeumannOffsetFilament(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        magnetics::mutual_filaments(25e-3, 5e-3, 6e-3, 8e-3, 64));
  }
}
BENCHMARK(BM_NeumannOffsetFilament);

// The whole production coil pair at a 5 mm lateral offset: 6 x 14 Neumann
// filament sums, the cost of one offset link power query.
static void BM_MutualInductanceOffsetCoil(benchmark::State& state) {
  const magnetics::Coil tx{magnetics::patch_coil_spec()};
  const magnetics::Coil rx{magnetics::implant_coil_spec()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(magnetics::mutual_inductance(tx, rx, 6e-3, 5e-3));
  }
}
BENCHMARK(BM_MutualInductanceOffsetCoil);

// Sweep-engine scaling: the coil design-space grid as an exec::Sweep at
// 1/2/4/8 worker threads. Emits BENCH_sweep_scaling.json with wall time,
// throughput, speedup vs the 1-thread pool, and worker utilization per
// thread count, and verifies every run's table is byte-identical to the
// serial rendering (the exec determinism contract). Speedup numbers are
// only meaningful on a machine with that many cores — the report records
// hardware_concurrency so downstream diffs can tell.
static void run_sweep_scaling() {
  using namespace ironic::exec;
  ironic::obs::RunReport report("sweep_scaling");
  report.note("workload", "coil design-space grid, 8x6x16 = 768 points");
  report.metric("hardware_concurrency",
                static_cast<double>(std::thread::hardware_concurrency()));

  const magnetics::CoilSpec base = magnetics::implant_coil_spec();
  magnetics::CoilDesignGoal goal;
  goal.target_inductance = 3.5e-6;
  goal.tolerance = 0.3;
  goal.frequency = 5e6;

  Sweep sweep("coil_scaling");
  sweep.axis(Axis::list("layers", {1, 2, 3, 4, 5, 6, 7, 8}))
      .axis(Axis::list("turns", {1, 2, 3, 4, 5, 6}))
      .axis(Axis::linear("width_um", 50.0, 200.0, 16));
  const exec::SweepRowFn row = [&](const SweepPoint& p) {
    magnetics::CoilSpec spec = base;
    spec.layers = static_cast<int>(p["layers"]);
    spec.turns_per_layer = static_cast<int>(p["turns"]);
    spec.trace_width = p["width_um"] * 1e-6;
    spec.turn_spacing = spec.trace_width;
    double l = 0.0, q = 0.0, srf = 0.0;
    try {
      const magnetics::Coil coil{spec};
      l = coil.inductance();
      q = coil.quality_factor(goal.frequency);
      srf = coil.self_resonance_frequency();
    } catch (const std::invalid_argument&) {
      // outside the outline; keep the zero row
    }
    return std::vector<std::string>{
        util::Table::cell(p["layers"], 2), util::Table::cell(p["turns"], 2),
        util::Table::cell(p["width_um"], 4), util::Table::cell(l * 1e6, 5),
        util::Table::cell(q, 5), util::Table::cell(srf / 1e6, 5)};
  };
  const std::vector<std::string> columns{"layers", "turns", "width_um",
                                         "L_uH", "Q", "SRF_MHz"};

  const auto render = [](const util::Table& t) {
    std::ostringstream os;
    t.print_csv(os);
    return os.str();
  };

  SweepOptions serial_opts;
  serial_opts.threads = 1;
  const auto serial = sweep.run(columns, row, serial_opts);
  const std::string golden = render(serial.table);

  std::cout << "\nsweep scaling (coil grid, " << serial.points << " points):\n";
  // One scoped registry per thread-count configuration: the cohort
  // aggregation across them lands in BENCH_engine_perf.json as
  // cohort.sweep_scaling.* gauges (count/sum/min/max/percentiles).
  auto& registry = ironic::obs::MetricsRegistry::instance();
  std::vector<std::shared_ptr<ironic::obs::MetricsRegistry>> cohort;
  double wall_1 = 0.0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    SweepOptions opts;
    opts.pool = &pool;
    opts.grain = 8;
    const auto result = sweep.run(columns, row, opts);
    if (render(result.table) != golden) {
      std::cerr << "FAIL: sweep at " << threads << " threads diverged from serial\n";
      std::exit(EXIT_FAILURE);
    }
    if (threads == 1) wall_1 = result.wall_seconds;
    const double per_s = static_cast<double>(result.points) / result.wall_seconds;
    const std::string tagname = "threads_" + std::to_string(threads);
    report.metric(tagname + "_wall_seconds", result.wall_seconds);
    report.metric(tagname + "_points_per_second", per_s);
    report.metric(tagname + "_speedup", wall_1 / result.wall_seconds);
    auto scoped = registry.scoped(
        {{"bench", "sweep_scaling"}, {"threads", std::to_string(threads)}});
    scoped->histogram("sweep.wall_seconds").observe(result.wall_seconds);
    scoped->gauge("sweep.points_per_second").set(per_s);
    scoped->gauge("sweep.speedup").set(wall_1 / result.wall_seconds);
    cohort.push_back(std::move(scoped));
    std::cout << "  " << threads << " thread(s): "
              << util::Table::cell(result.wall_seconds * 1e3, 4) << " ms, "
              << util::Table::cell(per_s, 5) << " points/s, speedup "
              << util::Table::cell(wall_1 / result.wall_seconds, 3) << "\n";
  }
  registry.publish_cohorts("cohort.sweep_scaling");
  report.metric("serial_wall_seconds", serial.wall_seconds);
  report.note("determinism", "all thread counts byte-identical to serial CSV");
}

// Hand-rolled main (instead of BENCHMARK_MAIN) so the run is wrapped in a
// RunReport: BENCH_engine_perf.json gets the registry snapshot the
// transient benchmarks populate, next to google-benchmark's own output.
int main(int argc, char** argv) {
  ironic::obs::RunReport run_report("engine_perf");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_sweep_scaling();
  return 0;
}
