// Named fault-resilience campaigns: end-to-end scenarios that drive the
// whole stack through scripted or stochastic fault schedules and report
// recovery statistics. Every link scenario runs the patient pipeline
// (pipeline.hpp) that fleet sessions run too: magnetics link budget,
// ASK/LSK comms with the session layer, pm rectifier transients with
// checkpoint/restart. brownout_shedding drives the patch degradation
// ladder instead.
//
// Campaigns are deterministic by construction: every scenario owns a
// SimClock and util::Rng streams keyed by (seed, scenario), results land
// in slot-indexed storage, so `run_campaign` is bit-identical for any
// `threads` value and any two same-seed runs (the fingerprint in the
// result is the contract the ctest gate checks). The scenarios of one
// call share exact plant memos (fault::PlantMemos), so a rectifier
// segment or bio-impedance measure that two scenarios repeat runs once
// without changing a bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/fault/pipeline.hpp"
#include "src/fault/schedule.hpp"

namespace ironic::fault {

struct CampaignConfig {
  std::string name = "ask_burst_coupling_drop";
  std::uint64_t seed = 0x1badc0deULL;
  int scenarios = 3;
  int exchanges = 10;      // measurements attempted per scenario
  std::size_t threads = 1; // scenario-level parallelism (1 = serial)
  // LinkPhy backend the scenarios run on (see link::backend_names()).
  // Campaigns written for a specific physical layer (me_backscatter_soak)
  // override this; the rest dispatch through it, and "inductive" is
  // bit-identical to the pre-LinkPhy pipeline.
  std::string link = "inductive";
};

// One scenario: the patient pipeline's outcome (brownout_shedding, a
// patch mission with no link, fills the fields it has).
struct ScenarioResult : PatientOutcome {
  int index = 0;
  int brownouts = 0;
};

struct CampaignResult {
  std::string name;
  std::vector<ScenarioResult> scenarios;
  int total_exchanges = 0;
  int completed = 0;
  int lost_measurements = 0;
  int retries = 0;
  int restarts = 0;
  int checkpoints = 0;
  // recovered / (exchanges that needed >= 1 retry); 1.0 when none did.
  double recovery_rate = 1.0;
  double mean_time_to_recover = 0.0;  // [s] over recovered exchanges
  std::uint64_t faults_injected[kFaultKindCount] = {};
  // FNV-1a over every deterministic scenario field, in index order; equal
  // fingerprints mean bit-identical campaigns.
  std::uint64_t fingerprint = 0;
  // Plant memo traffic of this call, shared by all its scenarios: the
  // rectifier segment memo and the bio-impedance memo. Totals only, and
  // never fingerprinted; misses equal distinct inputs, so the totals do
  // not depend on the thread count.
  std::uint64_t segment_hits = 0;
  std::uint64_t segment_misses = 0;
  std::uint64_t bioz_hits = 0;
  std::uint64_t bioz_misses = 0;
};

// The registered campaign names:
//   ask_burst_coupling_drop  scripted: downlink burst errors, an
//                            overvoltage transient, then a permanent
//                            17 mm-sirloin coupling drop mid-session
//   stochastic_soak          every fault kind drawn from a seeded
//                            schedule; partial recovery allowed
//   brownout_shedding        battery brownouts against the patch
//                            degradation ladder
//   me_backscatter_soak      the magnetoelectric backend: a PWM chip
//                            burst, then a permanent field misalignment
//                            the rate ladder must buy back (always runs
//                            on --link me)
//   bioz_tissue_drift        bio-impedance workload: the Fricke ladder
//                            under a permanent Re/Ri drift plus comms
//                            and rail faults (runs on config.link)
std::vector<std::string> campaign_names();
bool is_campaign(const std::string& name);

// Run the named campaign. Throws std::invalid_argument on an unknown
// name, non-positive scenario/exchange counts, or a fault plan that
// fails static pre-validation (see validate.hpp): every scenario's
// schedule is checked against the run horizon, the per-kind magnitude
// domains, and — for the spice-plant campaign — the overvoltage
// reachability of the plant's static operating envelope, before any
// scenario executes.
CampaignResult run_campaign(const CampaignConfig& config);

}  // namespace ironic::fault
