// Transient checkpoint/restart: a resumed run must reproduce the tail of
// an uninterrupted run bit-for-bit (same accepted points, same solutions),
// because the fault campaigns splice segments at checkpoints and claim
// determinism across the splice.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "src/spice/circuit.hpp"
#include "src/spice/devices_nonlinear.hpp"
#include "src/spice/devices_passive.hpp"
#include "src/spice/devices_sources.hpp"
#include "src/spice/engine.hpp"
#include "src/spice/waveform.hpp"

namespace {

using namespace ironic::spice;

// Pulse-driven half-wave rectifier: nonlinear (diode limiting) plus two
// reactive state carriers (C and L), with stimulus breakpoints at every
// pulse edge so a segment boundary can land exactly on a step both runs
// take.
std::unique_ptr<Circuit> make_rectifier() {
  auto ckt = std::make_unique<Circuit>();
  const auto in = ckt->node("in");
  const auto mid = ckt->node("mid");
  const auto out = ckt->node("out");
  ckt->add<VoltageSource>(
      "V1", in, kGround,
      Waveform::pulse(0.0, 3.0, /*delay=*/0.0, /*rise=*/1e-6, /*fall=*/1e-6,
                      /*width=*/8e-6, /*period=*/20e-6));
  ckt->add<Resistor>("Rs", in, mid, 50.0);
  ckt->add<Diode>("D1", mid, out);
  ckt->add<Capacitor>("Co", out, kGround, 100e-9);
  ckt->add<Inductor>("Lf", out, kGround, 1e-3, /*series_resistance=*/5e3);
  return ckt;
}

TransientOptions base_options(double t_stop) {
  TransientOptions opts;
  opts.t_stop = t_stop;
  opts.dt_max = 100e-9;
  opts.record_every = 3;  // decimation phase must survive the splice
  return opts;
}

// Collect (t, all signals) rows with time strictly greater than `after`.
std::vector<std::vector<double>> tail_rows(const TransientResult& res, double after) {
  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i < res.num_points(); ++i) {
    const double t = res.time()[i];
    if (t <= after) continue;
    std::vector<double> row{t};
    for (const auto& name : res.names()) row.push_back(res.signal(name)[i]);
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(Checkpoint, ResumedTailIsBitExact) {
  // T1 = 40 us is a pulse-period breakpoint, so the uninterrupted run
  // steps exactly onto it too.
  const double kSplit = 40e-6;
  const double kStop = 100e-6;

  // Uninterrupted reference.
  auto full_ckt = make_rectifier();
  const auto full = run_transient(*full_ckt, base_options(kStop));

  // Leg 1: run to the split point, capturing the final checkpoint.
  TransientCheckpoint cp;
  auto leg1_ckt = make_rectifier();
  auto leg1_opts = base_options(kSplit);
  leg1_opts.checkpoint = &cp;
  const auto leg1 = run_transient(*leg1_ckt, leg1_opts);
  ASSERT_TRUE(cp.valid());
  EXPECT_DOUBLE_EQ(cp.time, kSplit);

  // Leg 2: a FRESH circuit resumed from the blob — nothing may leak
  // through device object identity.
  auto leg2_ckt = make_rectifier();
  auto leg2_opts = base_options(kStop);
  leg2_opts.resume_from = &cp;
  const auto leg2 = run_transient(*leg2_ckt, leg2_opts);

  const auto want = tail_rows(full, kSplit);
  const auto got = tail_rows(leg2, 0.0);  // resumed run records only t > split
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size());
    for (std::size_t j = 0; j < want[i].size(); ++j) {
      EXPECT_EQ(got[i][j], want[i][j])
          << "row " << i << " col " << j << " (t=" << want[i][0] << ")";
    }
  }
}

TEST(Checkpoint, CaptureLandsOnRecordedPoint) {
  // Captures land on breakpoint-snapped points (every pulse edge here)
  // and the final point, which record_every = 7 never decimates away.
  auto ckt = make_rectifier();
  TransientCheckpoint cp;
  auto opts = base_options(100e-6);
  opts.record_every = 7;
  opts.checkpoint = &cp;
  const auto res = run_transient(*ckt, opts);

  // The last capture is the final accepted point, and checkpointed points
  // carry the recording guarantee.
  ASSERT_TRUE(cp.valid());
  EXPECT_EQ(cp.time, res.time().back());
  const auto out = ckt->node("out");
  EXPECT_EQ(cp.x[static_cast<std::size_t>(out)], res.signal("v(out)").back());
  EXPECT_FALSE(cp.device_state.empty());
}

TEST(Checkpoint, ResumeValidatesShape) {
  auto ckt = make_rectifier();
  TransientCheckpoint cp;
  cp.time = 1e-6;
  cp.dt = 1e-7;
  cp.x.assign(2, 0.0);  // wrong unknown count for this circuit
  auto opts = base_options(10e-6);
  opts.resume_from = &cp;
  EXPECT_THROW(run_transient(*ckt, opts), std::invalid_argument);

  // Time at/after t_stop is rejected as well.
  auto ckt2 = make_rectifier();
  TransientCheckpoint cp2;
  auto capture_opts = base_options(10e-6);
  capture_opts.checkpoint = &cp2;
  run_transient(*ckt2, capture_opts);
  ASSERT_TRUE(cp2.valid());
  auto resume_opts = base_options(10e-6);  // == cp2.time
  resume_opts.resume_from = &cp2;
  auto ckt3 = make_rectifier();
  EXPECT_THROW(run_transient(*ckt3, resume_opts), std::invalid_argument);
}

TEST(Checkpoint, DeviceBlobRoundTripAndShortBlobThrows) {
  Capacitor c("C1", 0, kGround, 1e-6);
  std::vector<double> blob;
  c.save_state(blob);
  ASSERT_EQ(blob.size(), 3u);
  EXPECT_EQ(c.restore_state(blob), 3u);
  blob.pop_back();
  EXPECT_THROW(c.restore_state(blob), std::invalid_argument);

  Inductor l("L1", 0, kGround, 1e-3);
  std::vector<double> lb;
  l.save_state(lb);
  ASSERT_EQ(lb.size(), 3u);
  lb.clear();
  EXPECT_THROW(l.restore_state(lb), std::invalid_argument);

  CoupledInductors k("K1", 0, kGround, 1, kGround, 1e-6, 1e-6, 0.5);
  std::vector<double> kb;
  k.save_state(kb);
  ASSERT_EQ(kb.size(), 5u);
  EXPECT_EQ(k.restore_state(kb), 5u);
}

}  // namespace
