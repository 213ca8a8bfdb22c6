// Schedule visitors ("backends"): three interpretations of the same
// scheduler stream.
//
//  - CountBackend: op/MSV accounting only — no amplitudes, so it scales to
//    arbitrary qubit counts (used by the paper's 40-qubit experiments).
//  - SvBackend: real statevector execution with a checkpoint stack, outcome
//    sampling and histogram accumulation.
//  - TraceBackend: reconstructs the exact operator sequence each trial
//    experienced; the equivalence tests compare it against the trial's
//    definition.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "circuit/fusion.hpp"
#include "common/rng.hpp"
#include "obs/pauli_string.hpp"
#include "sched/plan.hpp"
#include "sim/buffer_pool.hpp"
#include "sim/measure.hpp"
#include "sim/statevector.hpp"

namespace rqsim {

// ---------------------------------------------------------------------------

/// Apply the gates of layers [from, to) to a state (shared by every
/// statevector-interpreting visitor), cache-blocked through apply_gates.
/// Returns the memory passes made ("sim.memory_passes"); the ops stay one
/// per gate.
std::uint64_t apply_layers(const CircuitContext& ctx, StateVector& state,
                           layer_index_t from, layer_index_t to);

/// Apply one error event (gate-attached Pauli / Pauli pair, or idle Pauli).
void apply_error_event(const CircuitContext& ctx, StateVector& state,
                       const ErrorEvent& event);

// ---------------------------------------------------------------------------

class CountBackend : public ScheduleVisitor {
 public:
  explicit CountBackend(const CircuitContext& ctx) : ctx_(ctx) {}

  void on_advance(std::size_t depth, layer_index_t from_layer,
                  layer_index_t to_layer) override;
  void on_fork(std::size_t depth) override;
  void on_error(std::size_t depth, const ErrorEvent& event) override;
  void on_finish(std::size_t depth, trial_index_t trial_index,
                 const Trial& trial) override;
  void on_drop(std::size_t depth) override;

  /// Matrix-vector operations performed (gates + injected errors).
  opcount_t ops() const { return ops_; }

  /// Maximum number of concurrently maintained state vectors.
  std::size_t max_live_states() const { return max_live_; }

  /// State-vector copies made (forks) — not counted as ops, reported as a
  /// secondary cost.
  std::uint64_t copies() const { return copies_; }

  std::uint64_t finished_trials() const { return finished_; }

 private:
  const CircuitContext& ctx_;
  opcount_t ops_ = 0;
  std::size_t live_ = 1;  // checkpoint 0 exists from the start
  std::size_t max_live_ = 1;
  std::uint64_t copies_ = 0;
  std::uint64_t finished_ = 0;
};

// ---------------------------------------------------------------------------

/// Result of a statevector run: outcome histogram plus optional per-trial
/// final states (tests only — memory grows with trial count).
struct SvRunResult {
  OutcomeHistogram histogram;
  std::vector<StateVector> final_states;  // filled only if recording enabled
  opcount_t ops = 0;
  std::size_t max_live_states = 0;

  /// Checkpoint copies made (fork count) — not matrix-vector ops, reported
  /// as the secondary cost of the prefix-sharing schedule.
  std::uint64_t fork_copies = 0;

  /// Σ over trials of ⟨ψ_trial|P_k|ψ_trial⟩, one entry per requested
  /// observable (divide by the trial count for the noisy expectation).
  std::vector<double> observable_sums;
};

class SvBackend : public ScheduleVisitor {
 public:
  /// `rng` drives outcome sampling. With `record_final_states`, every
  /// trial's final statevector is kept (indexed by trial position in the
  /// scheduled order's original vector). `observables` (optional, borrowed;
  /// must outlive the backend) are evaluated per trial — duplicate trials
  /// reuse one evaluation per shared final checkpoint. With `fuse_gates`,
  /// advances run through the gate-fusion engine (epsilon-equivalent to the
  /// unfused kernels; see circuit/fusion.hpp). With `use_trial_seeds`, each
  /// finish samples from a fresh Rng(trial.meas_seed) instead of the shared
  /// `rng` stream — outcome sampling becomes independent of finish order,
  /// the property the parallel tree executor's bitwise guarantee rests on
  /// (the default keeps the legacy shared-stream behavior for callers that
  /// construct backends directly with their own Rng).
  SvBackend(const CircuitContext& ctx, Rng& rng, bool record_final_states = false,
            const std::vector<PauliString>* observables = nullptr,
            bool fuse_gates = false, bool use_trial_seeds = false);

  /// Checkpoint allocation statistics (buffer-pool effectiveness).
  const StateBufferPool& buffer_pool() const { return pool_; }

  void on_advance(std::size_t depth, layer_index_t from_layer,
                  layer_index_t to_layer) override;
  void on_fork(std::size_t depth) override;
  void on_error(std::size_t depth, const ErrorEvent& event) override;
  void on_finish(std::size_t depth, trial_index_t trial_index,
                 const Trial& trial) override;
  void on_drop(std::size_t depth) override;

  SvRunResult take_result();

 private:
  const StateVector& state_at(std::size_t depth) const;

  const CircuitContext& ctx_;
  Rng& rng_;
  bool record_final_states_;
  bool use_trial_seeds_ = false;
  const std::vector<PauliString>* observables_;
  std::unique_ptr<FusionCache> fusion_;  // non-null when fusing
  StateBufferPool pool_;
  std::vector<StateVector> stack_;
  SvRunResult result_;
  // Caches for the current finish checkpoint — duplicate trials reuse one
  // distribution / one set of expectation values.
  std::optional<std::vector<double>> cached_probs_;
  std::optional<std::vector<double>> cached_expectations_;
};

// ---------------------------------------------------------------------------

/// One semantic operation a trial experienced: either a circuit gate or an
/// injected error event.
struct TraceOp {
  bool is_error = false;
  gate_index_t gate = 0;   // valid when !is_error
  ErrorEvent event;        // valid when is_error

  friend bool operator==(const TraceOp& a, const TraceOp& b) {
    if (a.is_error != b.is_error) {
      return false;
    }
    return a.is_error ? a.event == b.event : a.gate == b.gate;
  }
};

class TraceBackend : public ScheduleVisitor {
 public:
  TraceBackend(const CircuitContext& ctx, std::size_t num_trials);

  void on_advance(std::size_t depth, layer_index_t from_layer,
                  layer_index_t to_layer) override;
  void on_fork(std::size_t depth) override;
  void on_error(std::size_t depth, const ErrorEvent& event) override;
  void on_finish(std::size_t depth, trial_index_t trial_index,
                 const Trial& trial) override;
  void on_drop(std::size_t depth) override;

  const std::vector<std::vector<TraceOp>>& traces() const { return traces_; }

 private:
  const CircuitContext& ctx_;
  std::vector<std::vector<TraceOp>> stack_;
  std::vector<std::vector<TraceOp>> traces_;
  std::vector<bool> trace_set_;
};

/// The operator sequence a trial is *defined* to experience: layers in
/// order, each layer's gates followed by that layer's error events.
std::vector<TraceOp> expected_trace(const CircuitContext& ctx, const Trial& trial);

}  // namespace rqsim
