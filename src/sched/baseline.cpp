#include "sched/baseline.hpp"

#include "common/error.hpp"
#include "sim/kernels.hpp"
#include "telemetry/telemetry.hpp"

namespace rqsim {

namespace {

// Same logical metrics as the cached/tree executors (interned by name), so
// baseline runs contribute to the one runtime op and pass totals.
telemetry::Counter g_matvec_ops("sim.matvec_ops");
telemetry::Counter g_memory_passes("sim.memory_passes");

// Advance through the error-free layer segments between consecutive error
// layers (fused programs with `fusion`, cache-blocked gate runs without),
// applying each layer's error events after it. Adds the memory passes
// made to `passes`.
StateVector run_trial(const CircuitContext& ctx, const Trial& trial, FusionCache* fusion,
                      std::uint64_t& passes) {
  StateVector state(ctx.circuit.num_qubits());
  const auto num_layers = static_cast<layer_index_t>(ctx.num_layers());
  const auto advance = [&](layer_index_t from, layer_index_t to) {
    if (fusion != nullptr) {
      const FusedProgram& program = fusion->segment(from, to);
      apply_fused(state, program);
      passes += program.ops.size();
    } else {
      passes += apply_layers(ctx, state, from, to);
    }
  };
  layer_index_t from = 0;
  std::size_t next_event = 0;
  while (next_event < trial.events.size()) {
    const layer_index_t l = trial.events[next_event].layer;
    RQSIM_CHECK(l < num_layers, "simulate_trial: event beyond the last layer");
    advance(from, l + 1);
    from = l + 1;
    while (next_event < trial.events.size() && trial.events[next_event].layer == l) {
      apply_error_event(ctx, state, trial.events[next_event]);
      ++passes;
      ++next_event;
    }
  }
  if (from < num_layers) {
    advance(from, num_layers);
  }
  return state;
}

}  // namespace

StateVector simulate_trial(const CircuitContext& ctx, const Trial& trial,
                           FusionCache* fusion) {
  std::uint64_t passes = 0;
  return run_trial(ctx, trial, fusion, passes);
}

SvRunResult baseline_simulate(const CircuitContext& ctx, const std::vector<Trial>& trials,
                              Rng& rng, bool record_final_states,
                              const std::vector<PauliString>* observables,
                              bool fuse_gates, bool use_trial_seeds) {
  SvRunResult result;
  result.max_live_states = 1;
  if (record_final_states) {
    result.final_states.resize(trials.size());
  }
  if (observables != nullptr) {
    result.observable_sums.assign(observables->size(), 0.0);
  }
  FusionCache fusion(ctx.circuit, ctx.layering);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const Trial& trial = trials[i];
    std::uint64_t passes = 0;
    StateVector state = run_trial(ctx, trial, fuse_gates ? &fusion : nullptr, passes);
    const opcount_t trial_ops =
        ctx.total_gate_ops() + static_cast<opcount_t>(trial.num_errors());
    result.ops += trial_ops;
    g_matvec_ops.add(trial_ops);
    g_memory_passes.add(passes);
    if (!ctx.circuit.measured_qubits().empty()) {
      const auto probs = measurement_probabilities(state, ctx.circuit.measured_qubits());
      std::uint64_t outcome;
      if (use_trial_seeds) {
        Rng trial_rng(trial.meas_seed);
        outcome = sample_outcome(probs, trial_rng);
      } else {
        outcome = sample_outcome(probs, rng);
      }
      outcome ^= trial.meas_flip_mask;
      ++result.histogram[outcome];
    }
    if (observables != nullptr) {
      for (std::size_t k = 0; k < observables->size(); ++k) {
        result.observable_sums[k] += expectation(state, (*observables)[k]);
      }
    }
    if (record_final_states) {
      result.final_states[i] = std::move(state);
    }
  }
  return result;
}

}  // namespace rqsim
