// Circuit: node registry plus device container — the netlist.
//
// Usage:
//   Circuit ckt;
//   auto in = ckt.node("in");
//   auto& vs = ckt.add<VoltageSource>("V1", in, kGround, Waveform::sine(1.0, 5e6));
//   ckt.add<Resistor>("R1", in, ckt.node("out"), 50.0);
//   ...
//   auto result = TransientSolver(spec).run(ckt);
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/spice/device.hpp"

namespace ironic::spice {

class Circuit {
 public:
  Circuit() = default;

  // Get or create a named node. "0" and "gnd" map to ground.
  NodeId node(const std::string& name);
  // Create a fresh unique internal node (for device macro expansion).
  NodeId internal_node(const std::string& hint);
  // Look up an existing node; throws if unknown.
  NodeId find_node(const std::string& name) const;
  bool has_node(const std::string& name) const;

  std::size_t num_nodes() const { return node_names_.size(); }
  const std::string& node_name(NodeId id) const;

  // Construct and register a device. Returns a reference that stays valid
  // for the lifetime of the circuit.
  template <typename T, typename... Args>
  T& add(Args&&... args) {
    auto device = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *device;
    register_device(std::move(device));
    return ref;
  }

  std::vector<std::unique_ptr<Device>>& devices() { return devices_; }
  const std::vector<std::unique_ptr<Device>>& devices() const { return devices_; }

  // Find a device by name; returns nullptr if absent.
  Device* find_device(const std::string& name);

  // --- engine interface ---------------------------------------------------

  // Assign branch indices and cache the per-hook device lists; called by
  // the engine before every analysis.
  void finalize();
  bool finalized() const { return finalized_; }
  // No device reports nonlinear() (see its linear-matrix contract), as
  // of the last finalize().
  bool linear() const { return linear_; }
  // The devices that declare each per-step hook (Device::step_hooks), in
  // device order, as of the last finalize(). The engine calls start_step,
  // accept_step and the held-matrix restamp through these lists only.
  const std::vector<Device*>& start_step_devices() const { return start_step_devices_; }
  const std::vector<Device*>& accept_step_devices() const { return accept_step_devices_; }
  const std::vector<Device*>& rhs_stamp_devices() const { return rhs_stamp_devices_; }

  // Allocate a branch unknown during Device::setup. `label` names the
  // current trace ("i(<label>)").
  int allocate_branch(const std::string& label);

  std::size_t num_branches() const { return branch_labels_.size(); }
  std::size_t num_unknowns() const { return num_nodes() + num_branches(); }
  const std::vector<std::string>& branch_labels() const { return branch_labels_; }

  // Signal names in unknown order: v(<node>) then i(<branch>).
  std::vector<std::string> signal_names() const;

  // Circuit-owned linear solvers, so the cached stamp slots, sparsity
  // pattern, and symbolic factorization survive across Newton iterations,
  // time steps, and whole runs (a checkpoint-resumed transient re-uses
  // the pattern its capturing run built). The solver is re-created when
  // the number of unknowns changed; topology growth at a constant size
  // is absorbed by the solver's own pattern merging. Call after
  // finalize().
  linalg::SparseSolver<double>& acquire_solver();
  linalg::SparseSolver<linalg::Complex>& acquire_complex_solver();

 private:
  void register_device(std::unique_ptr<Device> device);

  std::unordered_map<std::string, NodeId> node_ids_;
  std::vector<std::string> node_names_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::unordered_map<std::string, Device*> device_index_;
  std::vector<Device*> start_step_devices_;
  std::vector<Device*> accept_step_devices_;
  std::vector<Device*> rhs_stamp_devices_;
  std::vector<std::string> branch_labels_;
  bool finalized_ = false;
  bool linear_ = false;
  int internal_counter_ = 0;
  std::unique_ptr<linalg::SparseSolver<double>> solver_;
  std::unique_ptr<linalg::SparseSolver<linalg::Complex>> complex_solver_;
};

}  // namespace ironic::spice
