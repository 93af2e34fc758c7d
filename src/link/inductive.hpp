// Backend #1: the paper's 5 MHz inductive link with ASK downlink and
// LSK backscatter uplink, wrapped behind LinkPhy.
//
// Refactor-neutrality contract: this backend must reproduce the
// pre-LinkPhy fault::LinkBudget bit-for-bit — same drive_for_power /
// analyze call order in the constructor (which make_backend runs once
// per process, on its prototype), the same geometry in place before
// each analyze, same libm expression shapes in the BER and
// compensation laws. Every campaign and fleet fingerprint pinned before
// the refactor (tests/link_neutrality_test.cpp, the linkphy CI stage)
// rides on this file; change it only with those pins in hand.
#pragma once

#include "src/link/phy.hpp"
#include "src/magnetics/link.hpp"

namespace ironic::link {

// The nominal operating point of the inductive stack, owned by the
// backend so its BER model can never disagree with it.
inline constexpr NominalProfile kInductiveNominal{
    /*rate_bps=*/100e3, /*drive_v=*/3.5, /*load_ohms=*/150.0,
    /*cadence_s=*/0.25, /*carrier_hz=*/5e6};

class InductiveAskLsk final : public LinkPhy {
 public:
  // Tunes the stock patch/implant coil pair for the paper's 15 mW
  // delivered-power point (exactly what LinkBudget's constructor did).
  InductiveAskLsk();

  const char* name() const override { return "inductive"; }
  const NominalProfile& nominal() const override { return kInductiveNominal; }
  LinkCondition nominal_condition() const override;
  double nominal_power() const override { return p_nominal_; }

  double power_delivered(const LinkCondition& condition) override;
  double efficiency(const LinkCondition& condition) override;
  double bit_error_rate(double power, double sensitivity,
                        double rate) const override;
  double drive_amplitude(double power) const override;

  const char* downlink_modulation() const override { return "ASK"; }
  const char* uplink_modulation() const override { return "LSK"; }

  // The tuned transmit drive [V] (exposed for link_tuning and tests).
  double tx_drive() const { return drive_; }

 private:
  // Applies `condition` to the link geometry: the placement (distance and
  // lateral offset, one mutual-inductance solve), then the tissue slab.
  void apply(const LinkCondition& condition);

  magnetics::InductiveLink link_;
  double drive_ = 0.0;
  double p_nominal_ = 0.0;
};

}  // namespace ironic::link
