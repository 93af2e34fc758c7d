// Bio-impedance sensing workload (arXiv 1507.03388): the implant
// energizes a pair of tissue electrodes and digitizes the voltage a few
// segments into the distributed Fricke-Morse ladder — the third
// workload beside the lactate potentiostat, sharing the session/fault/
// fleet machinery through the same per-measurement handler shape.
//
// The circuit is the programmatic twin of examples/netlists/
// tissue_ladder.cir (60 cascaded FRICKE cells, ~122 MNA unknowns, the
// canonical sparse-solver workload); tests/link_test.cpp pins the two
// against each other. Tissue-drift faults scale the ionic resistances
// (Re/Ri) — hydration and oedema move the electrolyte resistivity while
// the membrane capacitance and electrode access resistance stay put —
// so a kTissueDrift event shifts the measured code instead of (as on
// the inductive power link) collapsing the coupling.
//
// Unlike RectifierPlant there is no analog state carried between
// measurements: each sample is its own short stimulation transient
// (the electrodes are re-energized per measurement), so fleet sessions
// on this workload skip the charge-up checkpoint entirely, and a
// measure is a pure function of its inputs that BioZMemo can share.
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <optional>

#include "src/fault/memo.hpp"
#include "src/spice/circuit.hpp"
#include "src/spice/engine.hpp"

namespace ironic::fault {

// The tissue-ladder stimulation circuit: `amplitude` is the pulse high
// level (the implant's compensated drive rail), `tissue_scale`
// multiplies every segment's Re/Ri (1.0 = the shipped netlist's
// sirloin numbers), 60 cascaded cells. Throws
// std::invalid_argument on a non-finite amplitude or a tissue scale that
// is not finite and positive: the linear transient would otherwise
// carry the NaN through to the sensed voltage without complaint.
std::unique_ptr<spice::Circuit> build_tissue_ladder(double amplitude,
                                                    double tissue_scale);

// Every input BioZPlant::measure reads: the drive and tissue scale as
// their bit patterns.
struct BioZKey {
  std::uint64_t amplitude = 0;
  std::uint64_t tissue_scale = 0;

  auto operator<=>(const BioZKey&) const = default;
};

// An exact memo of BioZPlant::measure; the value is the sensed voltage.
// No entry pins anything: the key holds the whole input.
using BioZMemo = ExactMemo<BioZKey, double>;

struct BioZPlant {
  // Measures served, memoized or not (the `checkpoints` column).
  int measurements = 0;
  // When set, measure consults this memo before simulating (not owned).
  BioZMemo* memo = nullptr;

  // One measurement: a 20 us stimulation pulse into the ladder, the
  // voltage at v(t5) averaged over the settled back half of the pulse.
  // The tap sits a few cells past the near electrode: deep enough that
  // tissue drift moves the divider, shallow enough that the level stays
  // in the ADC's [0, 4] V window. Deterministic: a pure function of
  // (amplitude, tissue_scale).
  double measure(double amplitude, double tissue_scale);

 private:
  // The one physics path behind measure, memoized or not.
  double simulate(double amplitude, double tissue_scale);
};

// Maps an injected tissue-thickness fault onto the ladder's Re/Ri
// scale: the 10 mm baseline slab is scale 1.0, clamped to [0.5, 3.0]
// (an electrode path, not an open circuit). No fault -> 1.0.
double bioz_tissue_scale(const std::optional<double>& thickness);

}  // namespace ironic::fault
