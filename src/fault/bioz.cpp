#include "src/fault/bioz.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "src/spice/devices_passive.hpp"
#include "src/spice/devices_sources.hpp"

namespace ironic::fault {
namespace {

// Cascaded Fricke cells, as in examples/netlists/tissue_ladder.cir.
constexpr int kLadderCells = 60;
// The signal BioZPlant::measure reads.
constexpr const char* kSenseTap = "v(t5)";

}  // namespace

std::unique_ptr<spice::Circuit> build_tissue_ladder(double amplitude,
                                                    double tissue_scale) {
  if (!std::isfinite(amplitude)) {
    throw std::invalid_argument("build_tissue_ladder: amplitude must be finite");
  }
  if (!std::isfinite(tissue_scale) || tissue_scale <= 0.0) {
    throw std::invalid_argument(
        "build_tissue_ladder: tissue scale must be finite and positive");
  }
  // Mirrors examples/netlists/tissue_ladder.cir: per segment a 47 ohm
  // access resistance into a Fricke cell (Re 820 shunted by Ri 390 +
  // Cm 33n), terminated in 1 kohm, driven by the biphasic-style pulse.
  auto ckt = std::make_unique<spice::Circuit>();
  const auto in = ckt->node("in");
  ckt->add<spice::VoltageSource>(
      "V1", in, spice::kGround,
      spice::Waveform::pulse(0.0, amplitude, 1e-6, 100e-9, 100e-9, 20e-6,
                             50e-6));
  auto prev = in;
  for (int s = 1; s <= kLadderCells; ++s) {
    const std::string tag = std::to_string(s);
    const auto t = ckt->node("t" + tag);
    const auto m = ckt->node("m" + tag);
    ckt->add<spice::Resistor>("RS" + tag, prev, t, 47.0);
    ckt->add<spice::Resistor>("RE" + tag, t, spice::kGround,
                              820.0 * tissue_scale);
    ckt->add<spice::Resistor>("RI" + tag, t, m, 390.0 * tissue_scale);
    ckt->add<spice::Capacitor>("CM" + tag, m, spice::kGround, 33e-9);
    prev = t;
  }
  ckt->add<spice::Resistor>("RL", prev, spice::kGround, 1e3);
  return ckt;
}

double BioZPlant::simulate(double amplitude, double tissue_scale) {
  auto ckt = build_tissue_ladder(amplitude, tissue_scale);
  spice::TransientOptions opts;
  opts.t_stop = 20e-6;
  opts.dt_max = 50e-9;
  opts.record_every = 4;
  opts.record_signals = {kSenseTap};
  const auto res = spice::run_transient(*ckt, opts);
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
