#include "src/spice/circuit.hpp"

namespace ironic::spice {

NodeId Circuit::node(const std::string& name) {
  if (name == "0" || name == "gnd" || name == "GND") return kGround;
  const auto it = node_ids_.find(name);
  if (it != node_ids_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(node_names_.size());
  node_ids_.emplace(name, id);
  node_names_.push_back(name);
  finalized_ = false;
  ++topology_revision_;
  return id;
}

NodeId Circuit::internal_node(const std::string& hint) {
  return node("__" + hint + "#" + std::to_string(internal_counter_++));
}

NodeId Circuit::find_node(const std::string& name) const {
  if (name == "0" || name == "gnd" || name == "GND") return kGround;
  const auto it = node_ids_.find(name);
  if (it == node_ids_.end()) {
    throw std::invalid_argument("Circuit::find_node: unknown node '" + name + "'");
  }
  return it->second;
}

bool Circuit::has_node(const std::string& name) const {
  if (name == "0" || name == "gnd" || name == "GND") return true;
  return node_ids_.count(name) > 0;
}

const std::string& Circuit::node_name(NodeId id) const {
  static const std::string kGroundName = "0";
  if (id == kGround) return kGroundName;
  return node_names_.at(static_cast<std::size_t>(id));
}

void Circuit::register_device(std::unique_ptr<Device> device) {
  if (device_index_.count(device->name()) > 0) {
    throw std::invalid_argument("Circuit: duplicate device name '" + device->name() + "'");
  }
  device_index_.emplace(device->name(), device.get());
  devices_.push_back(std::move(device));
  finalized_ = false;
  ++topology_revision_;
}

Device* Circuit::find_device(const std::string& name) {
  const auto it = device_index_.find(name);
  return it == device_index_.end() ? nullptr : it->second;
}

void Circuit::finalize() {
  branch_labels_.clear();
  linear_ = true;
  start_step_devices_.clear();
  accept_step_devices_.clear();
  rhs_stamp_devices_.clear();
  for (const auto& device : devices_) {
    device->setup(*this);
    linear_ = linear_ && !device->nonlinear();
    const StepHooks hooks = device->step_hooks();
    if (hooks.start_step) start_step_devices_.push_back(device.get());
    if (hooks.accept_step) accept_step_devices_.push_back(device.get());
    if (hooks.rhs_stamp) rhs_stamp_devices_.push_back(device.get());
  }
  finalized_ = true;
}

int Circuit::allocate_branch(const std::string& label) {
  const int index = static_cast<int>(num_nodes() + branch_labels_.size());
  branch_labels_.push_back(label);
  return index;
}

linalg::SparseSolver<double>& Circuit::acquire_solver() {
  const std::size_t n = num_unknowns();
  if (!solver_ || solver_->size() != n) {
    solver_ = std::make_unique<linalg::SparseSolver<double>>(n);
  }
  return *solver_;
}

linalg::SparseSolver<linalg::Complex>& Circuit::acquire_complex_solver() {
  const std::size_t n = num_unknowns();
  if (!complex_solver_ || complex_solver_->size() != n) {
    complex_solver_ = std::make_unique<linalg::SparseSolver<linalg::Complex>>(n);
  }
  return *complex_solver_;
}

std::vector<std::string> Circuit::signal_names() const {
  std::vector<std::string> names;
  names.reserve(num_unknowns());
  for (const auto& node : node_names_) names.push_back("v(" + node + ")");
  for (const auto& branch : branch_labels_) names.push_back("i(" + branch + ")");
  return names;
}

}  // namespace ironic::spice
