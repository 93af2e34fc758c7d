#include "src/fault/plant.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "src/obs/profiler.hpp"
#include "src/spice/devices_passive.hpp"
#include "src/spice/devices_sources.hpp"

namespace ironic::fault {
namespace {

// Every rectifier run's recipe: one measure is a 10 us segment, and the
// segments and the charge-up step at 10 ns.
constexpr double kSegmentLength = 10e-6;
constexpr double kStep = 10e-9;
// The paper's charge-up time scale [s], and its trace decimation (the
// checkpointed state does not depend on it).
constexpr double kChargeUpDuration = 270e-6;
constexpr int kChargeUpRecordEvery = 64;

}  // namespace

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kLactateSpice: return "lactate";
    case Workload::kLactateBehavioural: return "lactate-behavioural";
    case Workload::kBioZ: return "bioz";
  }
  return "?";
}

bool parse_workload(const std::string& text, Workload& out) {
  if (text == "lactate") {
    out = Workload::kLactateSpice;
  } else if (text == "lactate-behavioural") {
    out = Workload::kLactateBehavioural;
  } else if (text == "bioz") {
    out = Workload::kBioZ;
  } else {
    return false;
  }
  return true;
}

pm::RectifierOptions fast_rect_options() {
  pm::RectifierOptions opt;
  opt.storage_capacitance = 10e-9;  // small Co keeps segments quick
  opt.diode_is = 1e-16;
  return opt;
}

std::uint16_t adc_code(double vo) {
  const double clamped = std::clamp(vo, 0.0, 4.0);
  return static_cast<std::uint16_t>(std::lround(clamped / 4.0 * 4095.0));
}

LinkBudget::LinkBudget() : LinkBudget(link::make_backend("inductive")) {}

LinkBudget::LinkBudget(const std::string& backend)
    : LinkBudget(link::make_backend(backend)) {}

LinkBudget::LinkBudget(std::unique_ptr<link::LinkPhy> backend)
    : phy(std::move(backend)) {
  p_nominal = phy->nominal_power();
}

namespace {

bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

// Bit-exact key equality: -0.0 and +0.0 differ, as do an engaged and an
// empty tissue thickness.
bool same_condition(const link::LinkCondition& x, const link::LinkCondition& y) {
  return same_bits(x.distance, y.distance) &&
         same_bits(x.lateral_offset, y.lateral_offset) &&
         x.tissue_thickness.has_value() == y.tissue_thickness.has_value() &&
         (!x.tissue_thickness.has_value() ||
          same_bits(*x.tissue_thickness, *y.tissue_thickness));
}

}  // namespace

double LinkBudget::power_now(const FaultInjector& injector) {
  link::LinkCondition condition = phy->nominal_condition();
  condition.distance = injector.distance(condition.distance);
  condition.lateral_offset = injector.lateral_offset(condition.lateral_offset);
  condition.tissue_thickness = injector.tissue_thickness();
  ++power_queries;
  if (last_condition_.has_value() && same_condition(*last_condition_, condition)) {
    ++power_hits;
    return last_power_;
  }
  {
    PROF_ZONE("link.power");
    last_power_ = phy->power_delivered(condition);
  }
  last_condition_ = condition;
  return last_power_;
}

double LinkBudget::drive_amplitude(double power,
                                   const FaultInjector& injector) const {
  return phy->drive_amplitude(power) * injector.drive_scale();
}

double LinkBudget::bit_error_rate(double power, double sensitivity,
                                  double rate) const {
  return phy->bit_error_rate(power, sensitivity, rate);
}

void tally_active(FaultInjector& injector, const FaultSchedule& schedule,
                  double t) {
  for (const auto kind :
       {FaultKind::kCouplingStep, FaultKind::kMisalignment,
        FaultKind::kTissueDrift, FaultKind::kOvervoltage,
        FaultKind::kLdoDropout}) {
    if (schedule.active(kind, t) != nullptr) injector.note_applied(kind);
  }
}

std::unique_ptr<spice::Circuit> RectifierPlant::build(double amplitude,
                                                      double carrier_hz) {
  auto ckt = std::make_unique<spice::Circuit>();
  const auto src = ckt->node("src");
  const auto vi = ckt->node("vi");
  ckt->add<spice::VoltageSource>("Vs", src, spice::kGround,
                                 spice::Waveform::sine(amplitude, carrier_hz));
  ckt->add<spice::Resistor>("Rs", src, vi, 50.0);
  const auto rect =
      pm::build_rectifier(*ckt, "r", vi, spice::Waveform::dc(0.0),
                          spice::Waveform::dc(1.8), fast_rect_options());
  // Light enough that the settled Vo clears the LDO's 2.1 V input
  // floor at the nominal drive; violations then come from faults.
  ckt->add<spice::Resistor>("Rl", rect.output, spice::kGround, 2.2e3);
  return ckt;
}

void RectifierPlant::fork_from(
    std::shared_ptr<const spice::TransientCheckpoint> base,
    double base_amplitude) {
  committed_ = std::move(base);
  committed_amplitude_ = base_amplitude;
}

const spice::TransientCheckpoint* RectifierPlant::committed() const {
  return committed_ != nullptr && committed_->valid() ? committed_.get()
                                                      : nullptr;
}

Segment RectifierPlant::simulate(double amplitude) {
  // A fresh circuit every segment: resume must carry ALL state through
  // the checkpoint blob, never through device object identity.
  auto ckt = build(amplitude, carrier_hz);
  const spice::TransientCheckpoint* from = committed();
  const double t0 = from != nullptr ? from->time : 0.0;
  auto scratch = std::make_shared<spice::TransientCheckpoint>();
  spice::TransientOptions opts;
  opts.t_stop = t0 + kSegmentLength;
  opts.dt_max = kStep;
  opts.record_every = 8;
  opts.record_signals = {"v(r.vo)"};
  opts.checkpoint = scratch.get();
  if (from != nullptr) opts.resume_from = from;
  const auto res = spice::run_transient(*ckt, opts);
  // Average the settled second half of the segment (the first half of
  // the very first segment is still charging Co).
  const double vo = res.mean_between("v(r.vo)", t0 + kSegmentLength / 2.0,
                                     t0 + kSegmentLength);
  return {std::move(scratch), vo};
}

SegmentKey RectifierPlant::key(double amplitude) const {
  return {reinterpret_cast<std::uintptr_t>(committed_.get()),
          std::bit_cast<std::uint64_t>(amplitude),
          std::bit_cast<std::uint64_t>(carrier_hz)};
}

double RectifierPlant::measure(double amplitude) {
  // A drive change lands while a segment at the old drive is in flight:
  // that segment is discarded, and the measurement restarts from the
  // committed node.
  const bool restart = committed() != nullptr && committed_amplitude_ >= 0.0 &&
                       amplitude != committed_amplitude_;
  const Segment segment =
      memo == nullptr ? simulate(amplitude)
                      : memo->lookup(key(amplitude), committed_,
                                     [&] { return simulate(amplitude); });
  if (restart) ++restarts;
  // Commit: the new node replaces the old one, which stays untouched for
  // any sibling (or memo entry) still holding it.
  committed_ = segment.committed;
  committed_amplitude_ = amplitude;
  ++checkpoints;
  return segment.vo;
}

spice::TransientCheckpoint capture_charged_checkpoint(
    const ChargeUpSpec& spec, spice::TransientStats* stats) {
  PROF_ZONE("fault.charge_up");
  auto ckt = RectifierPlant::build(spec.amplitude, spec.carrier_hz);
  spice::TransientOptions opts;
  opts.t_stop = kChargeUpDuration;
  opts.dt_max = kStep;
  opts.record_every = kChargeUpRecordEvery;
  opts.record_signals = {"v(r.vo)"};
  spice::TransientCheckpoint checkpoint;
  opts.checkpoint = &checkpoint;
  spice::run_transient(*ckt, opts, stats);
  return checkpoint;
}

}  // namespace ironic::fault
