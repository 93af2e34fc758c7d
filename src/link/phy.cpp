#include "src/link/phy.hpp"

#include <stdexcept>

#include "src/link/inductive.hpp"
#include "src/link/magnetoelectric.hpp"

namespace ironic::link {
namespace {

struct BackendEntry {
  const char* name;
  const NominalProfile* profile;
  std::unique_ptr<LinkPhy> (*make)();
  const char* summary;
};

// Each backend is a copy of one prototype built on first use, so its
// constructor (the inductive pair's tuning, say) runs once per process;
// C++ guarantees concurrent first callers see one fully built prototype.
template <typename Backend>
std::unique_ptr<LinkPhy> copy_prototype() {
  static const Backend prototype;
  return std::make_unique<Backend>(prototype);
}

constexpr BackendEntry kBackends[] = {
    {"inductive", &kInductiveNominal, copy_prototype<InductiveAskLsk>,
     "5 MHz inductive pair, ASK down / LSK backscatter up (the paper)"},
    {"me", &kMagnetoelectricNominal, copy_prototype<MagnetoelectricPwm>,
     "magnetoelectric laminate, OOK field down / PWM backscatter up"},
};

[[noreturn]] void throw_unknown(const std::string& name) {
  std::string known;
  for (const auto& entry : kBackends) {
    if (!known.empty()) known += ", ";
    known += entry.name;
  }
  throw std::invalid_argument("link: unknown backend '" + name + "' (want " +
                              known + ")");
}

}  // namespace

std::vector<std::string> backend_names() {
  std::vector<std::string> names;
  for (const auto& entry : kBackends) names.emplace_back(entry.name);
  return names;
}

bool is_backend(const std::string& name) {
  for (const auto& entry : kBackends) {
    if (name == entry.name) return true;
  }
  return false;
}

std::string backend_summary() {
  std::string out;
  for (const auto& entry : kBackends) {
    std::string row = entry.name;
    if (row.size() < 12) row.append(12 - row.size(), ' ');
    out += "  " + row + entry.summary + "\n";
  }
  return out;
}

std::unique_ptr<LinkPhy> make_backend(const std::string& name) {
  for (const auto& entry : kBackends) {
    if (name == entry.name) return entry.make();
  }
  throw_unknown(name);
}

const NominalProfile& nominal_profile(const std::string& name) {
  for (const auto& entry : kBackends) {
    if (name == entry.name) return *entry.profile;
  }
  throw_unknown(name);
}

}  // namespace ironic::link
