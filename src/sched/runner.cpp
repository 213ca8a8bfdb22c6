#include "sched/runner.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"
#include <algorithm>

#include "sched/baseline.hpp"
#include "sched/cached.hpp"
#include "sched/order.hpp"
#include "telemetry/clock.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "trial/generator.hpp"
#include "verify/plan_verifier.hpp"

namespace rqsim {

void validate_run_limits(const NoisyRunConfig& config, const char* context) {
  const std::string where(context);
  RQSIM_CHECK(config.max_states != 1,
              where + ": max_states must be 0 (unlimited) or >= 2 — one shared "
                      "checkpoint plus at least one scratch state");
  RQSIM_CHECK(config.max_states <= kMaxStatesBudget,
              where + ": max_states " + std::to_string(config.max_states) +
                  " exceeds the supported maximum (overflowed or negative value?)");
  RQSIM_CHECK(config.num_trials <= kMaxTrialCount,
              where + ": trial count " + std::to_string(config.num_trials) +
                  " exceeds the supported maximum (overflowed or negative value?)");
}

namespace {

// Read handles for the process-wide matvec-op and memory-pass totals
// (written by the baseline/cached/tree execution paths); run_noisy
// snapshots them around the run so TelemetrySummary::measured_ops and
// memory_passes are this run's deltas.
telemetry::Counter g_matvec_ops("sim.matvec_ops");
telemetry::Counter g_memory_passes("sim.memory_passes");

std::vector<Trial> make_trials(const Circuit& circuit, const CircuitContext& ctx,
                               const NoiseModel& noise, const NoisyRunConfig& config,
                               Rng& rng, const char* context) {
  RQSIM_CHECK(noise.num_qubits() >= circuit.num_qubits(),
              std::string(context) +
                  ": noise model covers fewer qubits than the circuit");
  validate_run_limits(config, context);
  return generate_trials(circuit, ctx.layering, noise, config.num_trials, rng);
}

void fill_common(NoisyRunResult& result, const CircuitContext& ctx,
                 const std::vector<Trial>& trials) {
  result.baseline_ops = baseline_op_count(ctx, trials);
  result.trial_stats = compute_trial_stats(trials);
  result.normalized_computation =
      result.baseline_ops == 0
          ? 1.0
          : static_cast<double>(result.ops) / static_cast<double>(result.baseline_ops);
  result.telemetry.ops_saved_vs_baseline =
      result.baseline_ops > result.ops ? result.baseline_ops - result.ops : 0;
  result.telemetry.prefix_cache_hit_ratio =
      result.baseline_ops == 0
          ? 0.0
          : static_cast<double>(result.telemetry.ops_saved_vs_baseline) /
                static_cast<double>(result.baseline_ops);
}

}  // namespace

NoisyRunResult run_noisy(const Circuit& circuit, const NoiseModel& noise,
                         const NoisyRunConfig& config) {
  RQSIM_SPAN("runner.run_noisy");
  const telemetry::Stopwatch stopwatch;
  const telemetry::MeasuredRunScope run_scope;
  const bool measured = telemetry::compiled() && telemetry::enabled();
  const std::uint64_t ops_before = measured ? g_matvec_ops.value() : 0;
  const std::uint64_t passes_before = measured ? g_memory_passes.value() : 0;
  circuit.validate();
  CircuitContext ctx(circuit);
  Rng rng(config.seed);
  std::vector<Trial> trials = make_trials(circuit, ctx, noise, config, rng, "run_noisy");
  // Per-trial measurement seeds (assigned in generation order, before any
  // reorder): sampling becomes independent of finish order, which makes
  // every execution strategy — baseline, sequential cached, chunked, and
  // the parallel tree executor — produce bitwise-identical histograms.
  assign_measurement_seeds(trials, rng);

  NoisyRunResult result;
  switch (config.mode) {
    case ExecutionMode::kBaseline: {
      RQSIM_SPAN("runner.baseline_simulate");
      SvRunResult run = baseline_simulate(ctx, trials, rng, /*record_final_states=*/false,
                                          &config.observables, config.fuse_gates,
                                          /*use_trial_seeds=*/true);
      result.histogram = std::move(run.histogram);
      result.ops = run.ops;
      result.max_live_states = run.max_live_states;
      result.fork_copies = run.fork_copies;
      result.observable_means = std::move(run.observable_sums);
      break;
    }
    case ExecutionMode::kCachedReordered: {
      RQSIM_SPAN("runner.cached_schedule");
      reorder_trials(trials);
      SvBackend backend(ctx, rng, /*record_final_states=*/false, &config.observables,
                        config.fuse_gates, /*use_trial_seeds=*/true);
      ScheduleOptions options;
      options.max_states = config.max_states;
      if (config.verify_plans) {
        verify_schedule_or_throw(ctx, trials, options, "run_noisy");
      }
      schedule_trials(ctx, trials, backend, options);
      result.telemetry.pool_reuses = backend.buffer_pool().reuse_count();
      result.telemetry.pool_allocs = backend.buffer_pool().alloc_count();
      SvRunResult run = backend.take_result();
      result.histogram = std::move(run.histogram);
      result.ops = run.ops;
      result.max_live_states = run.max_live_states;
      result.fork_copies = run.fork_copies;
      result.observable_means = std::move(run.observable_sums);
      break;
    }
    case ExecutionMode::kCachedUnordered:
      RQSIM_CHECK(false,
                  "run_noisy: the unordered-cache ablation is accounting-only; "
                  "use analyze_noisy");
  }
  for (double& mean : result.observable_means) {
    mean /= static_cast<double>(std::max<std::size_t>(1, trials.size()));
  }
  fill_common(result, ctx, trials);
  // A concurrent run (service with multiple workers) would fold its ops
  // into our counter delta; report measured=false rather than an inflated
  // measured_ops that no longer equals result.ops.
  result.telemetry.measured = measured && run_scope.exclusive();
  if (result.telemetry.measured) {
    result.telemetry.measured_ops = g_matvec_ops.value() - ops_before;
    result.telemetry.memory_passes = g_memory_passes.value() - passes_before;
  }
  result.telemetry.peak_live_states = result.max_live_states;
  result.telemetry.wall_ms = stopwatch.elapsed_ms();
  return result;
}

NoisyRunResult analyze_noisy(const Circuit& circuit, const NoiseModel& noise,
                             const NoisyRunConfig& config) {
  circuit.validate();
  CircuitContext ctx(circuit);
  Rng rng(config.seed);
  std::vector<Trial> trials =
      make_trials(circuit, ctx, noise, config, rng, "analyze_noisy");

  NoisyRunResult result;
  switch (config.mode) {
    case ExecutionMode::kBaseline:
      result.ops = baseline_op_count(ctx, trials);
      result.max_live_states = 1;
      break;
    case ExecutionMode::kCachedReordered: {
      reorder_trials(trials);
      CountBackend backend(ctx);
      ScheduleOptions options;
      options.max_states = config.max_states;
      if (config.verify_plans) {
        verify_schedule_or_throw(ctx, trials, options, "analyze_noisy");
      }
      schedule_trials(ctx, trials, backend, options);
      result.ops = backend.ops();
      result.max_live_states = backend.max_live_states();
      break;
    }
    case ExecutionMode::kCachedUnordered: {
      const ConsecutiveCacheResult run = consecutive_cached_count(ctx, trials);
      result.ops = run.ops;
      result.max_live_states = run.max_live_states;
      break;
    }
  }
  fill_common(result, ctx, trials);
  return result;
}

}  // namespace rqsim
