#include "src/fault/pipeline.hpp"

#include <algorithm>
#include <utility>

#include "src/comms/protocol.hpp"
#include "src/fault/bioz.hpp"
#include "src/fault/injector.hpp"
#include "src/pm/regulator.hpp"

namespace ironic::fault {
namespace {

// The behavioural rectifier: the drive's peak minus a diode drop,
// clamped at the four-diode chain voltage. It is the lactate soak's
// front end and the rail under the bio-impedance ladder.
double behavioural_rectifier(double amplitude) {
  return std::clamp(amplitude - 0.75, 0.0, 3.0);
}

}  // namespace

PatientOutcome run_patient(const PatientInputs& inputs) {
  PatientOutcome result;

  SimClock clock;
  FaultInjector injector(&inputs.schedule, &clock, inputs.injector_rng);
  util::Rng channel_rng = inputs.channel_rng;
  LinkBudget budget(inputs.link);
  const double sensitivity = budget.p_nominal / 8.0;  // snr 8 when nominal
  const double cadence = budget.nominal().cadence_s;
  RectifierPlant plant;
  plant.carrier_hz = budget.nominal().carrier_hz;
  if (inputs.charged != nullptr) {
    plant.fork_from(inputs.charged, inputs.charged_amplitude);
  }
  BioZPlant bioz;
  if (inputs.memos != nullptr) {
    plant.memo = &inputs.memos->segments;
    bioz.memo = &inputs.memos->bioz;
  }
  const pm::LdoModel ldo;

  const auto make_factory = [&](LinkDirection direction) -> ChannelFactory {
    return [&, direction](double rate) -> comms::Channel {
      comms::Channel physical = [&, rate](const comms::Bits& bits) {
        const double ber = budget.bit_error_rate(budget.power_now(injector),
                                                 sensitivity, rate);
        comms::Bits out = bits;
        for (std::size_t i = 0; i < out.size(); ++i) {
          if (channel_rng.bernoulli(ber)) out[i] = !out[i];
        }
        return out;
      };
      // Fault wrapper inside, backend modulation outside: burst faults
      // corrupt the backend's channel symbols (PWM chips on the ME
      // uplink), and the codec gets to absorb what it can.
      comms::Channel faulted = injector.wrap(std::move(physical), direction);
      return direction == LinkDirection::kUplink
                 ? budget.phy->wrap_uplink(std::move(faulted))
                 : budget.phy->wrap_downlink(std::move(faulted));
    };
  };

  const auto handler = [&](const comms::Request& request) -> comms::Response {
    comms::Response response;
    response.ok = true;
    if (request.command == comms::Command::kMeasure) {
      tally_active(injector, inputs.schedule, clock.now());
      const double power = budget.power_now(injector);
      const double amplitude = budget.drive_amplitude(power, injector);
      double vo = 0.0;    // what the ADC digitizes
      double rail = 0.0;  // what the LDO regulates
      switch (inputs.workload) {
        case Workload::kLactateSpice:
          vo = plant.measure(amplitude);
          rail = vo;
          break;
        case Workload::kLactateBehavioural:
          vo = behavioural_rectifier(amplitude);
          rail = vo;
          break;
        case Workload::kBioZ:
          // The sense tap is a tissue voltage, not the supply: the rail
          // the LDO sees is the behavioural rectifier output.
          vo = bioz.measure(amplitude,
                            bioz_tissue_scale(injector.tissue_thickness()));
          rail = behavioural_rectifier(amplitude);
          break;
      }
      if (!ldo.in_regulation(rail * injector.rail_scale())) {
        ++result.ldo_violations;
      }
      const std::uint16_t code = adc_code(vo);
      response.payload = {static_cast<std::uint8_t>(code >> 8),
                          static_cast<std::uint8_t>(code & 0xff)};
    }
    return response;
  };

  Session session(make_factory(LinkDirection::kDownlink),
                  make_factory(LinkDirection::kUplink), handler, &clock,
                  inputs.session_rng, inputs.options);

  // Latencies are held back until the run completes, so a run the hook
  // abandons leaves nothing in the registry.
  const bool publish = obs::kEnabled && inputs.scoped != nullptr;
  std::vector<double> latencies;
  if (publish) latencies.reserve(static_cast<std::size_t>(inputs.exchanges));

  for (int i = 0; i < inputs.exchanges; ++i) {
    if (inputs.before_exchange) inputs.before_exchange(i);
    const auto outcome = session.exchange(comms::Command::kMeasure);
    ++result.exchanges;
    if (publish) latencies.push_back(outcome.elapsed);
    if (outcome.ok && outcome.response->payload.size() >= 2) {
      ++result.completed;
      result.adc_codes.push_back(static_cast<std::uint16_t>(
          (outcome.response->payload[0] << 8) | outcome.response->payload[1]));
    } else {
      ++result.lost;
    }
    clock.advance(cadence);
  }

  const auto& stats = session.stats();
  result.retries = stats.retries;
  result.recovered = stats.recovered;
  result.recover_seconds = stats.recover_seconds;
  result.backoff_seconds = stats.backoff_seconds;
  result.rate_fallbacks = stats.rate_fallbacks;
  result.rate_recoveries = stats.rate_recoveries;
  result.restarts = plant.restarts;
  result.checkpoints = inputs.workload == Workload::kBioZ ? bioz.measurements
                                                         : plant.checkpoints;
  result.power_queries = budget.power_queries;
  result.power_hits = budget.power_hits;
  result.final_rate = session.current_rate();
  result.sim_time = clock.now();
  for (int k = 0; k < kFaultKindCount; ++k) {
    result.faults_injected[static_cast<std::size_t>(k)] =
        injector.injected(static_cast<FaultKind>(k));
  }

  if (publish) {
    obs::MetricsRegistry& scoped = *inputs.scoped;
    const std::string& prefix = inputs.metric_prefix;
    auto& latency = scoped.histogram(prefix + ".exchange_latency_s");
    for (const double elapsed : latencies) latency.observe(elapsed);
    scoped.counter(prefix + ".retries")
        .add(static_cast<std::uint64_t>(result.retries));
    scoped.counter(prefix + ".lost")
        .add(static_cast<std::uint64_t>(result.lost));
    scoped.counter(prefix + ".restarts")
        .add(static_cast<std::uint64_t>(result.restarts));
    scoped.gauge(prefix + ".recover_s").set(result.recover_seconds);
    scoped.gauge(prefix + ".final_rate_bps").set(result.final_rate);
  }
  return result;
}

}  // namespace ironic::fault
