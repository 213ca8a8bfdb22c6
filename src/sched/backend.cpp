#include "sched/backend.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "linalg/pauli.hpp"
#include "sim/kernels.hpp"
#include "telemetry/telemetry.hpp"

namespace rqsim {

namespace {
// Mirrors every accumulation into SvRunResult::ops on this execution path,
// so the runtime-measured total ("sim.matvec_ops", shared with the baseline
// and tree executors by name) reconciles bitwise with the PlanVerifier
// proof and the reported op counts.
telemetry::Counter g_matvec_ops("sim.matvec_ops");
// Full sweeps of a state actually made for those ops: a cache-blocked run
// of gates is one pass, every other gate or error is one pass each.
telemetry::Counter g_memory_passes("sim.memory_passes");
}  // namespace

// --------------------------------------------------------------------------
// CountBackend

void CountBackend::on_advance(std::size_t depth, layer_index_t from_layer,
                              layer_index_t to_layer) {
  (void)depth;
  ops_ += ctx_.ops_in_layers(from_layer, to_layer);
}

void CountBackend::on_fork(std::size_t depth) {
  (void)depth;
  ++copies_;
  ++live_;
  max_live_ = std::max(max_live_, live_);
}

void CountBackend::on_error(std::size_t depth, const ErrorEvent& event) {
  (void)depth;
  (void)event;
  ops_ += 1;
}

void CountBackend::on_finish(std::size_t depth, trial_index_t trial_index,
                             const Trial& trial) {
  (void)depth;
  (void)trial_index;
  (void)trial;
  ++finished_;
}

void CountBackend::on_drop(std::size_t depth) {
  (void)depth;
  RQSIM_CHECK(live_ > 1, "CountBackend: drop below the root checkpoint");
  --live_;
}

// --------------------------------------------------------------------------
// SvBackend

std::uint64_t apply_layers(const CircuitContext& ctx, StateVector& state,
                           layer_index_t from, layer_index_t to) {
  // Reused per thread, so an advance over a few gates of a small state
  // does not pay an allocation for its gate list.
  thread_local std::vector<const Gate*> gates;
  gates.clear();
  for (layer_index_t l = from; l < to; ++l) {
    for (gate_index_t g : ctx.layering.layers[l]) {
      gates.push_back(&ctx.circuit.gates()[g]);
    }
  }
  return apply_gates(state, gates);
}

void apply_error_event(const CircuitContext& ctx, StateVector& state,
                       const ErrorEvent& event) {
  if (is_idle_position(ctx.circuit.num_gates(), event.position)) {
    RQSIM_CHECK(event.op >= 1 && event.op <= kNumSinglePaulis,
                "apply_error_event: bad idle op code");
    apply_pauli(state, static_cast<Pauli>(event.op),
                idle_qubit(ctx.circuit.num_gates(), event.position));
    return;
  }
  const Gate& gate = ctx.circuit.gates()[event.position];
  if (gate.arity() == 1) {
    RQSIM_CHECK(event.op >= 1 && event.op <= kNumSinglePaulis,
                "apply_error_event: bad single-qubit op code");
    apply_pauli(state, static_cast<Pauli>(event.op), gate.qubits[0]);
  } else {
    RQSIM_CHECK(gate.arity() == 2, "apply_error_event: unsupported gate arity");
    RQSIM_CHECK(event.op >= 1 && event.op <= kNumPairPaulis,
                "apply_error_event: bad two-qubit op code");
    apply_pauli_pair(state, pauli_pair_from_index(event.op), gate.qubits[0],
                     gate.qubits[1]);
  }
}

SvBackend::SvBackend(const CircuitContext& ctx, Rng& rng, bool record_final_states,
                     const std::vector<PauliString>* observables, bool fuse_gates,
                     bool use_trial_seeds)
    : ctx_(ctx),
      rng_(rng),
      record_final_states_(record_final_states),
      use_trial_seeds_(use_trial_seeds),
      observables_(observables) {
  if (fuse_gates) {
    fusion_ = std::make_unique<FusionCache>(ctx.circuit, ctx.layering);
  }
  stack_.emplace_back(ctx.circuit.num_qubits());
  result_.max_live_states = 1;
  if (observables_ != nullptr) {
    for (const PauliString& p : *observables_) {
      RQSIM_CHECK(p.min_qubits() <= ctx.circuit.num_qubits(),
                  "SvBackend: observable exceeds circuit size");
    }
    result_.observable_sums.assign(observables_->size(), 0.0);
  }
}

const StateVector& SvBackend::state_at(std::size_t depth) const {
  RQSIM_CHECK(depth < stack_.size(), "SvBackend: depth out of range");
  return stack_[depth];
}

void SvBackend::on_advance(std::size_t depth, layer_index_t from_layer,
                           layer_index_t to_layer) {
  RQSIM_CHECK(depth == stack_.size() - 1, "SvBackend: advance must target the top");
  if (fusion_ != nullptr) {
    const FusedProgram& program = fusion_->segment(from_layer, to_layer);
    apply_fused(stack_[depth], program);
    g_memory_passes.add(program.ops.size());
  } else {
    g_memory_passes.add(apply_layers(ctx_, stack_[depth], from_layer, to_layer));
  }
  const opcount_t advanced = ctx_.ops_in_layers(from_layer, to_layer);
  result_.ops += advanced;
  g_matvec_ops.add(advanced);
  cached_probs_.reset();
  cached_expectations_.reset();
}

void SvBackend::on_fork(std::size_t depth) {
  RQSIM_CHECK(depth == stack_.size() - 1, "SvBackend: fork must target the top");
  stack_.push_back(pool_.acquire_copy(stack_[depth]));
  ++result_.fork_copies;
  result_.max_live_states = std::max(result_.max_live_states, stack_.size());
  cached_probs_.reset();
  cached_expectations_.reset();
}

void SvBackend::on_error(std::size_t depth, const ErrorEvent& event) {
  RQSIM_CHECK(depth == stack_.size() - 1, "SvBackend: error must target the top");
  apply_error_event(ctx_, stack_[depth], event);
  result_.ops += 1;
  g_matvec_ops.increment();
  g_memory_passes.increment();
  cached_probs_.reset();
  cached_expectations_.reset();
}

void SvBackend::on_finish(std::size_t depth, trial_index_t trial_index,
                          const Trial& trial) {
  const StateVector& state = state_at(depth);
  if (record_final_states_) {
    if (result_.final_states.size() <= trial_index) {
      result_.final_states.resize(trial_index + 1);
    }
    result_.final_states[trial_index] = state;
  }
  if (!ctx_.circuit.measured_qubits().empty()) {
    if (!cached_probs_) {
      cached_probs_ = measurement_probabilities(state, ctx_.circuit.measured_qubits());
    }
    std::uint64_t outcome;
    if (use_trial_seeds_) {
      Rng trial_rng(trial.meas_seed);
      outcome = sample_outcome(*cached_probs_, trial_rng);
    } else {
      outcome = sample_outcome(*cached_probs_, rng_);
    }
    outcome ^= trial.meas_flip_mask;
    ++result_.histogram[outcome];
  }
  if (observables_ != nullptr && !observables_->empty()) {
    if (!cached_expectations_) {
      std::vector<double> values;
      values.reserve(observables_->size());
      for (const PauliString& p : *observables_) {
        values.push_back(expectation(state, p));
      }
      cached_expectations_ = std::move(values);
    }
    for (std::size_t k = 0; k < cached_expectations_->size(); ++k) {
      result_.observable_sums[k] += (*cached_expectations_)[k];
    }
  }
}

void SvBackend::on_drop(std::size_t depth) {
  RQSIM_CHECK(depth == stack_.size() - 1 && stack_.size() > 1,
              "SvBackend: drop must pop the top (non-root) checkpoint");
  pool_.release(std::move(stack_.back()));
  stack_.pop_back();
  cached_probs_.reset();
  cached_expectations_.reset();
}

SvRunResult SvBackend::take_result() { return std::move(result_); }

// --------------------------------------------------------------------------
// TraceBackend

TraceBackend::TraceBackend(const CircuitContext& ctx, std::size_t num_trials)
    : ctx_(ctx), traces_(num_trials), trace_set_(num_trials, false) {
  stack_.emplace_back();
}

void TraceBackend::on_advance(std::size_t depth, layer_index_t from_layer,
                              layer_index_t to_layer) {
  RQSIM_CHECK(depth == stack_.size() - 1, "TraceBackend: advance must target the top");
  for (layer_index_t l = from_layer; l < to_layer; ++l) {
    for (gate_index_t g : ctx_.layering.layers[l]) {
      TraceOp op;
      op.gate = g;
      stack_[depth].push_back(op);
    }
  }
}

void TraceBackend::on_fork(std::size_t depth) {
  RQSIM_CHECK(depth == stack_.size() - 1, "TraceBackend: fork must target the top");
  stack_.push_back(stack_[depth]);
}

void TraceBackend::on_error(std::size_t depth, const ErrorEvent& event) {
  RQSIM_CHECK(depth == stack_.size() - 1, "TraceBackend: error must target the top");
  TraceOp op;
  op.is_error = true;
  op.event = event;
  stack_[depth].push_back(op);
}

void TraceBackend::on_finish(std::size_t depth, trial_index_t trial_index,
                             const Trial& trial) {
  (void)trial;
  RQSIM_CHECK(trial_index < traces_.size(), "TraceBackend: trial index out of range");
  RQSIM_CHECK(!trace_set_[trial_index], "TraceBackend: trial finished twice");
  traces_[trial_index] = stack_[depth];
  trace_set_[trial_index] = true;
}

void TraceBackend::on_drop(std::size_t depth) {
  RQSIM_CHECK(depth == stack_.size() - 1 && stack_.size() > 1,
              "TraceBackend: drop must pop the top (non-root) checkpoint");
  stack_.pop_back();
}

std::vector<TraceOp> expected_trace(const CircuitContext& ctx, const Trial& trial) {
  std::vector<TraceOp> out;
  std::size_t next_event = 0;
  for (layer_index_t l = 0; l < ctx.num_layers(); ++l) {
    for (gate_index_t g : ctx.layering.layers[l]) {
      TraceOp op;
      op.gate = g;
      out.push_back(op);
    }
    while (next_event < trial.events.size() && trial.events[next_event].layer == l) {
      TraceOp op;
      op.is_error = true;
      op.event = trial.events[next_event];
      out.push_back(op);
      ++next_event;
    }
  }
  return out;
}

}  // namespace rqsim
