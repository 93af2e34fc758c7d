#include "src/fault/bioz.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/spice/devices_passive.hpp"
#include "src/spice/devices_sources.hpp"

namespace ironic::fault {
namespace {

// Cascaded Fricke cells, as in examples/netlists/tissue_ladder.cir.
constexpr int kLadderCells = 60;
// Per segment, the ionic resistances tissue drift scales.
constexpr double kReOhms = 820.0;
constexpr double kRiOhms = 390.0;
// The signal BioZPlant::measure reads.
constexpr const char* kSenseTap = "v(t5)";

void check_ladder_inputs(double amplitude, double tissue_scale) {
  if (!std::isfinite(amplitude)) {
    throw std::invalid_argument("build_tissue_ladder: amplitude must be finite");
  }
  if (!std::isfinite(tissue_scale) || tissue_scale <= 0.0) {
    throw std::invalid_argument(
        "build_tissue_ladder: tissue scale must be finite and positive");
  }
}

// The biphasic-style stimulation pulse with high level `amplitude`.
spice::Waveform ladder_drive(double amplitude) {
  return spice::Waveform::pulse(0.0, amplitude, 1e-6, 100e-9, 100e-9, 20e-6,
                                50e-6);
}

// The ladder and the devices its two inputs reach.
struct Ladder {
  std::unique_ptr<spice::Circuit> circuit;
  spice::VoltageSource* drive = nullptr;
  std::vector<spice::Resistor*> re, ri;
};

Ladder make_ladder(double amplitude, double tissue_scale) {
  check_ladder_inputs(amplitude, tissue_scale);
  // Mirrors examples/netlists/tissue_ladder.cir: per segment a 47 ohm
  // access resistance into a Fricke cell (Re 820 shunted by Ri 390 +
  // Cm 33n), terminated in 1 kohm, driven by the biphasic-style pulse.
  Ladder ladder;
  ladder.circuit = std::make_unique<spice::Circuit>();
  spice::Circuit& ckt = *ladder.circuit;
  const auto in = ckt.node("in");
  ladder.drive = &ckt.add<spice::VoltageSource>("V1", in, spice::kGround,
                                                ladder_drive(amplitude));
  auto prev = in;
  for (int s = 1; s <= kLadderCells; ++s) {
    const std::string tag = std::to_string(s);
    const auto t = ckt.node("t" + tag);
    const auto m = ckt.node("m" + tag);
    ckt.add<spice::Resistor>("RS" + tag, prev, t, 47.0);
    ladder.re.push_back(&ckt.add<spice::Resistor>("RE" + tag, t, spice::kGround,
                                                  kReOhms * tissue_scale));
    ladder.ri.push_back(
        &ckt.add<spice::Resistor>("RI" + tag, t, m, kRiOhms * tissue_scale));
    ckt.add<spice::Capacitor>("CM" + tag, m, spice::kGround, 33e-9);
    prev = t;
  }
  ckt.add<spice::Resistor>("RL", prev, spice::kGround, 1e3);
  return ladder;
}

// Gives `ladder` the values make_ladder(amplitude, tissue_scale) builds.
void revalue(Ladder& ladder, double amplitude, double tissue_scale) {
  check_ladder_inputs(amplitude, tissue_scale);
  ladder.drive->set_waveform(ladder_drive(amplitude));
  for (spice::Resistor* re : ladder.re) re->set_resistance(kReOhms * tissue_scale);
  for (spice::Resistor* ri : ladder.ri) ri->set_resistance(kRiOhms * tissue_scale);
}

}  // namespace

std::unique_ptr<spice::Circuit> build_tissue_ladder(double amplitude,
                                                    double tissue_scale) {
  return make_ladder(amplitude, tissue_scale).circuit;
}

double BioZPlant::simulate(double amplitude, double tissue_scale) {
  // One ladder per thread, re-valued in place before every run. Its
  // solver keeps the pattern and stamp sequence between measures, and
  // every run picks its pivots afresh (spice/engine.hpp), so a measure
  // has the bits of a freshly built ladder whatever ran on the thread
  // before it.
  thread_local Ladder ladder = make_ladder(0.0, 1.0);
  revalue(ladder, amplitude, tissue_scale);
  spice::TransientOptions opts;
  opts.t_stop = 20e-6;
  opts.dt_max = 50e-9;
  opts.record_every = 4;
  opts.record_signals = {kSenseTap};
  const auto res = spice::run_transient(*ladder.circuit, opts);
  // The pulse is high from ~1.1 us; average the settled back half.
  return res.mean_between(kSenseTap, 10e-6, 20e-6);
}

double BioZPlant::measure(double amplitude, double tissue_scale) {
  const double vo =
      memo == nullptr
          ? simulate(amplitude, tissue_scale)
          : memo->lookup({std::bit_cast<std::uint64_t>(amplitude),
                          std::bit_cast<std::uint64_t>(tissue_scale)},
                         nullptr,
                         [&] { return simulate(amplitude, tissue_scale); });
  ++measurements;
  return vo;
}

double bioz_tissue_scale(const std::optional<double>& thickness) {
  if (!thickness.has_value()) return 1.0;
  return std::clamp(*thickness / 10e-3, 0.5, 3.0);
}

}  // namespace ironic::fault
