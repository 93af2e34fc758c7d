#include "src/fleet/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <utility>

#include "src/linalg/lu.hpp"
#include "src/obs/json.hpp"
#include "src/obs/telemetry.hpp"
#include "src/spice/engine.hpp"
#include "src/util/fingerprint.hpp"

namespace ironic::fleet {
namespace {

// Mixed into the fleet seed for the chaos stream, so chaos draws are
// decoupled from every session RNG lane.
constexpr std::uint64_t kChaosSalt = 0xc4a05f00dull;

constexpr const char* kCodeNames[kFailureCodeCount] = {
    "ok",         "solver-singular", "newton-nonconverge", "comms-exhausted",
    "validation", "deadline",        "chaos",              "unknown"};

std::string hex64(std::uint64_t value) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << value;
  return os.str();
}

std::uint64_t parse_hex64(const std::string& text) {
  return std::strtoull(text.c_str(), nullptr, 0);
}

}  // namespace

const char* failure_code_name(FailureCode code) {
  const auto i = static_cast<int>(code);
  if (i < 0 || i >= kFailureCodeCount) return "unknown";
  return kCodeNames[i];
}

FailureCode failure_code_from_name(const std::string& name) {
  for (int i = 0; i < kFailureCodeCount; ++i) {
    if (name == kCodeNames[i]) return static_cast<FailureCode>(i);
  }
  return FailureCode::kUnknown;
}

FailureCode classify_failure(const std::exception& error) {
  if (const auto* failure = dynamic_cast<const SessionFailure*>(&error)) {
    return failure->code;
  }
  if (dynamic_cast<const exec::TaskCancelled*>(&error) != nullptr) {
    return FailureCode::kDeadline;
  }
  if (dynamic_cast<const std::invalid_argument*>(&error) != nullptr) {
    return FailureCode::kValidation;
  }
  if (dynamic_cast<const linalg::SingularMatrixError*>(&error) != nullptr) {
    return FailureCode::kSolverSingular;
  }
  if (dynamic_cast<const spice::ConvergenceError*>(&error) != nullptr) {
    return FailureCode::kNewtonNonconverge;
  }
  return FailureCode::kUnknown;
}

ChaosPlan chaos_plan(const ChaosSpec& chaos, std::uint64_t seed,
                     std::uint64_t index, int exchanges) {
  ChaosPlan plan;
  if (!chaos.enabled()) return plan;
  // A private hashed stream keyed off (seed ^ kChaosSalt, index): chaos
  // draws never touch the session's schedule/injector/channel/backoff
  // lanes, so a session that chaos spares is bit-identical to a no-chaos
  // run.
  util::Rng rng = util::Rng::hashed_stream(seed ^ kChaosSalt, index);
  const double doom = rng.uniform();
  const double where = rng.uniform();  // always drawn: plan shape is fixed
  if (doom < chaos.throw_rate) {
    plan.action = ChaosAction::kThrow;
  } else if (doom < chaos.throw_rate + chaos.stall_rate) {
    plan.action = ChaosAction::kStall;
  } else {
    return plan;
  }
  plan.fail_attempts = chaos.fail_attempts;  // fleet::validate: >= 1
  plan.at_exchange = std::min(
      exchanges - 1, static_cast<int>(where * static_cast<double>(exchanges)));
  return plan;
}

std::uint64_t failure_fingerprint(const SessionHealth& health) {
  util::Fingerprint fp;
  fp.feed_i(static_cast<long long>(health.index));
  fp.feed(static_cast<std::uint64_t>(
      0xfa11ed5e5510full));  // domain-separates failures from results
  fp.feed_i(static_cast<int>(health.code));
  fp.feed_i(health.quarantined ? 1 : 0);
  return fp.value();
}

SupervisedSession run_supervised_session(
    const SessionSpec& spec,
    std::shared_ptr<const spice::TransientCheckpoint> charged,
    obs::MetricsRegistry* scoped, const SupervisorPolicy& policy,
    fault::PlantMemos* memos) {
  SupervisedSession out;
  out.health.index = spec.index;
  out.health.cohort = spec.cohort.name;

  const ChaosPlan plan =
      chaos_plan(policy.chaos, spec.seed, spec.index, spec.exchanges);
  const int max_attempts = 1 + std::max(0, policy.max_retries);
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    out.health.attempts = attempt + 1;
    SessionControls controls;
    if (policy.session_deadline_s > 0.0) {
      controls.token = exec::CancellationToken{}.with_timeout(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::duration<double>(policy.session_deadline_s)));
    }
    if (plan.action != ChaosAction::kNone && attempt < plan.fail_attempts) {
      controls.action = plan.action;
      controls.at_exchange = plan.at_exchange;
    }
    try {
      // Each attempt rebuilds the session from (seed, index) alone —
      // fresh RNG lanes, fresh SimClock, fresh plant fork — so a retry
      // that succeeds is bit-identical to a clean first-attempt run.
      out.result = run_patient_session(spec, charged, scoped, controls, memos);
      out.health.ok = true;
      out.health.code = FailureCode::kNone;
      out.health.message.clear();
      out.health.fingerprint = fingerprint_session(out.result);
      return out;
    } catch (const std::exception& error) {
      out.health.ok = false;
      out.health.code = classify_failure(error);
      out.health.message = error.what();
    }
  }
  // Every granted attempt failed: quarantine. The result slot stays
  // zeroed apart from identity, so aggregates never see phantom data.
  out.health.quarantined = policy.max_retries > 0;
  out.health.fingerprint = failure_fingerprint(out.health);
  out.result = SessionResult{};
  out.result.index = spec.index;
  out.result.cohort = spec.cohort.name;
  return out;
}

// ---------------------------------------------------------------- RunJournal

RunJournal::State RunJournal::load(const std::string& path) {
  State state;
  std::ifstream in(path);
  if (!in) return state;  // missing journal: nothing completed, no error
  std::string line;
  bool saw_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    obs::json::Value row;
    try {
      row = obs::json::Value::parse(line);
    } catch (const std::exception&) {
      continue;  // torn line (killed mid-write): those sessions re-run
    }
    if (!row.is_object() || !row.contains("event")) continue;
    const std::string& event = row.at("event").as_string();
    try {
      if (event == "begin") {
        state.seed = parse_hex64(row.at("seed").as_string());
        state.sessions = static_cast<std::size_t>(row.at("sessions").as_double());
        state.exchanges = static_cast<int>(row.at("exchanges").as_double());
        saw_header = true;
      } else if (event == "session") {
        Entry entry;
        auto& h = entry.health;
        h.index = static_cast<std::uint64_t>(row.at("session").as_double());
        h.cohort = row.at("cohort").as_string();
        h.ok = row.at("ok").as_bool();
        h.quarantined = row.at("quarantined").as_bool();
        h.code = failure_code_from_name(row.at("code").as_string());
        h.attempts = static_cast<int>(row.at("attempts").as_double());
        h.fingerprint = parse_hex64(row.at("fingerprint").as_string());
        if (row.contains("message")) h.message = row.at("message").as_string();
        h.resumed = true;
        auto& s = entry.summary;
        s.index = h.index;
        s.cohort = h.cohort;
        s.exchanges = static_cast<int>(row.at("exchanges").as_double());
        s.completed = static_cast<int>(row.at("completed").as_double());
        s.lost = static_cast<int>(row.at("lost").as_double());
        s.retries = static_cast<int>(row.at("retries").as_double());
        s.recovered = static_cast<int>(row.at("recovered").as_double());
        s.recover_seconds = row.at("recover_seconds").as_double();
        s.restarts = static_cast<int>(row.at("restarts").as_double());
        // Last record wins: a journal replayed through several resumes
        // may carry duplicates; the outcomes are deterministic, so any
        // copy is as good as another.
        state.completed[h.index] = std::move(entry);
      }
    } catch (const std::exception& e) {
      state.error = std::string("journal: malformed record: ") + e.what();
      return state;
    }
  }
  state.valid = saw_header;
  if (!saw_header) state.error = "journal: no begin header";
  return state;
}

bool RunJournal::open(const std::string& path, bool append) {
  close();
  std::FILE* out = std::fopen(path.c_str(), append ? "a+" : "w");
  if (out == nullptr) return false;
  // A producer killed mid-write can leave a torn final line with no
  // newline; appending straight after it would fuse two records into
  // one forever-corrupt line. Terminate the torn line first — load()
  // already skips it as unparseable.
  if (append && std::fseek(out, -1, SEEK_END) == 0 &&
      std::fgetc(out) != '\n') {
    std::fseek(out, 0, SEEK_END);  // a read must not run into a write
    std::fputc('\n', out);
    std::fflush(out);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  out_ = out;
  return true;
}

void RunJournal::close() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (out_ != nullptr) std::fclose(out_);
  out_ = nullptr;
}

void RunJournal::write(const std::string& event,
                       obs::json::Value::Object fields) {
  std::string line =
      obs::render_event("fleet.journal", event, std::move(fields));
  line += '\n';
  const std::lock_guard<std::mutex> lock(mutex_);
  std::fwrite(line.data(), 1, line.size(), out_);
  std::fflush(out_);
}

void RunJournal::begin(std::size_t sessions, std::uint64_t seed,
                       int exchanges) {
  obs::json::Value::Object fields;
  fields["sessions"] = static_cast<std::uint64_t>(sessions);
  fields["seed"] = hex64(seed);
  fields["exchanges"] = exchanges;
  write("begin", std::move(fields));
}

void RunJournal::record(const SessionHealth& health,
                        const SessionResult& result) {
  obs::json::Value::Object fields;
  fields["session"] = static_cast<std::uint64_t>(health.index);
  fields["cohort"] = health.cohort;
  fields["ok"] = health.ok;
  fields["quarantined"] = health.quarantined;
  fields["code"] = std::string(failure_code_name(health.code));
  fields["attempts"] = health.attempts;
  fields["fingerprint"] = hex64(health.fingerprint);
  if (!health.message.empty()) fields["message"] = health.message;
  fields["exchanges"] = result.exchanges;
  fields["completed"] = result.completed;
  fields["lost"] = result.lost;
  fields["retries"] = result.retries;
  fields["recovered"] = result.recovered;
  fields["recover_seconds"] = result.recover_seconds;
  fields["restarts"] = result.restarts;
  write("session", std::move(fields));
}

}  // namespace ironic::fleet
