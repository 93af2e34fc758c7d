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

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/spice/device.hpp"

namespace ironic::spice {

// validate()'s memo of the topology lint rules' findings, complete only
// in src/spice/lint.cpp, which defines how it is deleted.
struct TopologyLint;
struct TopologyLintDelete {
  void operator()(const TopologyLint* topology) const;
};
using TopologyLintPtr = std::unique_ptr<const TopologyLint, TopologyLintDelete>;

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

  // Read-only, so the list grows only through add().
  const std::vector<std::unique_ptr<Device>>& devices() const { return devices_; }

  // Find a device by name; returns nullptr if absent.
  Device* find_device(const std::string& name);

  // Counts topology edits: every node and every device added bumps it
  // (the edits that also clear finalized()). A setter that re-values a
  // device leaves it alone, since Device::info()'s topology fields are
  // fixed at construction.
  std::uint64_t topology_revision() const { return topology_revision_; }

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

  // Circuit-owned linear solvers, so the cached stamp slots and sparsity
  // pattern survive across Newton iterations, time steps and whole runs
  // (a checkpoint-resumed transient re-uses the pattern its capturing run
  // built), and the pivot order across the iterations and steps of one
  // run (each run picks its own: engine.hpp). The solver is re-created when
  // the number of unknowns changed; topology growth at a constant size
  // is absorbed by the solver's own pattern merging. Call after
  // finalize().
  linalg::SparseSolver<double>& acquire_solver();
  linalg::SparseSolver<linalg::Complex>& acquire_complex_solver();

  // validate()'s memo of what the topology lint rules found, one slot
  // per LintOptions::dc_context (src/spice/lint.hpp). A cache like the
  // solvers, so it is kept through const access; nullptr until the
  // first validate() in that context.
  TopologyLintPtr& topology_lint(bool dc_context) const {
    return topology_lint_[dc_context ? 1 : 0];
  }

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
  std::uint64_t topology_revision_ = 0;
  std::unique_ptr<linalg::SparseSolver<double>> solver_;
  std::unique_ptr<linalg::SparseSolver<linalg::Complex>> complex_solver_;
  mutable TopologyLintPtr topology_lint_[2];
};

}  // namespace ironic::spice
