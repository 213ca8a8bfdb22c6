#include "sim/kernels.hpp"

#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "sim/kernel_engine.hpp"
#include "telemetry/telemetry.hpp"

namespace rqsim {

namespace {

// Per-gate-class dispatch counters ("kernel.ops_<class>"): which kernel
// families dominate a workload. Counted once per dispatch, independent of
// register size, so a profile separates "many cheap phase gates" from "few
// expensive generic mat2 applications". Namespace scope, not function-local
// statics: the first apply_gate call can come from several pool workers at
// once, and the guarded lazy initialization races with a concurrent
// Counter::add under TSan — before main() it is single-threaded.
telemetry::Counter pauli1q("kernel.ops_pauli1q");
telemetry::Counter h1q("kernel.ops_h");
telemetry::Counter phase1q("kernel.ops_phase1q");
telemetry::Counter mat2("kernel.ops_mat2");
telemetry::Counter cx("kernel.ops_cx");
telemetry::Counter diag2q("kernel.ops_diag2q");
telemetry::Counter swap2q("kernel.ops_swap");
telemetry::Counter ccx("kernel.ops_ccx");
telemetry::Counter fused_mat2("kernel.ops_fused_mat2");
telemetry::Counter fused_mat4("kernel.ops_fused_mat4");

void count_gate_dispatch(GateKind kind) {
  switch (kind) {
    case GateKind::X:
    case GateKind::Y:
    case GateKind::Z:
      pauli1q.increment();
      return;
    case GateKind::H:
      h1q.increment();
      return;
    case GateKind::S:
    case GateKind::Sdg:
    case GateKind::T:
    case GateKind::Tdg:
    case GateKind::P:
      phase1q.increment();
      return;
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::RZ:
    case GateKind::U2:
    case GateKind::U3:
      mat2.increment();
      return;
    case GateKind::CX:
      cx.increment();
      return;
    case GateKind::CZ:
    case GateKind::CP:
      diag2q.increment();
      return;
    case GateKind::SWAP:
      swap2q.increment();
      return;
    case GateKind::CCX:
      ccx.increment();
      return;
  }
}

// The kernels operate on the amplitude array as interleaved doubles
// (re, im, re, im, …) with hand-expanded complex arithmetic: std::complex
// multiplication at -O* goes through NaN-propagation checks that block
// auto-vectorization, while the expanded form compiles to straight FMA
// streams. std::complex<double> guarantees this layout.
inline double* amp_data(StateVector& state) {
  return reinterpret_cast<double*>(state.amplitudes().data());
}

// a*b ± c with the floating-point contraction written out explicitly.
//
// The engine promises bitwise-neutral chunking (kernel_engine.hpp): a
// worker's sub-range must produce the same bits as the serial sweep. With
// implicit contraction (`-ffp-contract=fast`, and GCC's complex-multiply
// vector pattern, which emits vfmaddsub even under `-ffp-contract=off`)
// the compiler fuses mul+add differently in the vectorized loop body than
// in its scalar tail, so an amplitude's rounding depends on where the
// chunk boundary falls and threaded results drift from serial by an ulp.
// Spelling the fma in source pins one rounding per amplitude in every code
// path. On targets without hardware FMA nothing is contracted anywhere, so
// the plain two-rounding form is equally chunk-invariant (and avoids the
// libm software-fma call).
#if defined(__FMA__) || defined(__ARM_FEATURE_FMA)
inline double mul_add(double a, double b, double c) {
  return __builtin_fma(a, b, c);
}
inline double mul_sub(double a, double b, double c) {
  return __builtin_fma(a, b, -c);
}
#else
inline double mul_add(double a, double b, double c) { return a * b + c; }
inline double mul_sub(double a, double b, double c) { return a * b - c; }
#endif

// The amplitudes one kernel call sweeps: a whole state, or one block of a
// blocked gate run. A whole-state sweep may be split across the kernel
// pool; a block is swept serially by the thread that owns it (the run is
// already split across the pool block by block).
struct Span {
  double* d;  // interleaved (re, im)
  unsigned num_qubits;
  bool pooled;
};

Span whole(StateVector& state) { return {amp_data(state), state.num_qubits(), true}; }

template <class Body>
void sweep(const Span& s, std::uint64_t n, Body&& body) {
  if (s.pooled) {
    kernel_parallel_for(n, s.num_qubits, body);
  } else {
    body(std::uint64_t{0}, n);
  }
}

void mat2_kernel(const Span& s, const Mat2& m, qubit_t target) {
  const std::uint64_t half = (std::uint64_t{1} << s.num_qubits) >> 1;
  const std::uint64_t stride2 = std::uint64_t{2} << target;  // interleaved stride
  double* d = s.d;
  const double m00r = m.at(0, 0).real(), m00i = m.at(0, 0).imag();
  const double m01r = m.at(0, 1).real(), m01i = m.at(0, 1).imag();
  const double m10r = m.at(1, 0).real(), m10i = m.at(1, 0).imag();
  const double m11r = m.at(1, 1).real(), m11i = m.at(1, 1).imag();
  sweep(s, half, [=](std::uint64_t k0, std::uint64_t k1) {
    for_target_runs(target, k0, k1,
                    [=](std::uint64_t base, std::uint64_t run, auto step) {
      // Indexed accesses off loop-invariant bases (not per-iteration
      // pointers) so the loads get a vector type and the loop vectorizes.
      double* p0 = d + 2 * base;
      double* p1 = p0 + stride2;
      constexpr std::uint64_t s = 2 * decltype(step)::value;
      for (std::uint64_t j = 0; j < run; ++j) {
        const double a0r = p0[s * j], a0i = p0[s * j + 1];
        const double a1r = p1[s * j], a1i = p1[s * j + 1];
        p0[s * j] = mul_sub(m00r, a0r, m00i * a0i) +
                    mul_sub(m01r, a1r, m01i * a1i);
        p0[s * j + 1] = mul_add(m00r, a0i, m00i * a0r) +
                        mul_add(m01r, a1i, m01i * a1r);
        p1[s * j] = mul_sub(m10r, a0r, m10i * a0i) +
                    mul_sub(m11r, a1r, m11i * a1i);
        p1[s * j + 1] = mul_add(m10r, a0i, m10i * a0r) +
                        mul_add(m11r, a1i, m11i * a1r);
      }
    });
  });
}

void x_kernel(const Span& s, qubit_t target) {
  const std::uint64_t half = (std::uint64_t{1} << s.num_qubits) >> 1;
  const std::uint64_t stride2 = std::uint64_t{2} << target;
  double* d = s.d;
  sweep(s, half, [=](std::uint64_t k0, std::uint64_t k1) {
    for_target_runs(target, k0, k1,
                    [=](std::uint64_t base, std::uint64_t run, auto step) {
      double* p0 = d + 2 * base;
      constexpr std::uint64_t s = 2 * decltype(step)::value;
      for (std::uint64_t j = 0; j < run; ++j) {
        double* q0 = p0 + j * s;
        double* q1 = q0 + stride2;
        const double r = q0[0], i = q0[1];
        q0[0] = q1[0];
        q0[1] = q1[1];
        q1[0] = r;
        q1[1] = i;
      }
    });
  });
}

void y_kernel(const Span& s, qubit_t target) {
  const std::uint64_t half = (std::uint64_t{1} << s.num_qubits) >> 1;
  const std::uint64_t stride2 = std::uint64_t{2} << target;
  double* d = s.d;
  // |0⟩ ↦ i|1⟩, |1⟩ ↦ -i|0⟩: new a0 = -i*a1 = (a1i, -a1r); new a1 = i*a0.
  sweep(s, half, [=](std::uint64_t k0, std::uint64_t k1) {
    for_target_runs(target, k0, k1,
                    [=](std::uint64_t base, std::uint64_t run, auto step) {
      double* p0 = d + 2 * base;
      constexpr std::uint64_t s = 2 * decltype(step)::value;
      for (std::uint64_t j = 0; j < run; ++j) {
        double* q0 = p0 + j * s;
        double* q1 = q0 + stride2;
        const double a0r = q0[0], a0i = q0[1];
        q0[0] = q1[1];
        q0[1] = -q1[0];
        q1[0] = -a0i;
        q1[1] = a0r;
      }
    });
  });
}

// Multiply every amplitude of the span by `phase`: what a diagonal gate
// whose operand qubits all lie above a block does to a block where they
// are all 1. Same per-amplitude arithmetic as phase_kernel.
void scale_kernel(const Span& s, cplx phase) {
  const double pr = phase.real();
  const double pi = phase.imag();
  double* d = s.d;
  sweep(s, std::uint64_t{1} << s.num_qubits, [=](std::uint64_t k0, std::uint64_t k1) {
    for (std::uint64_t k = k0; k < k1; ++k) {
      double* q = d + 2 * k;
      const double ar = q[0], ai = q[1];
      q[0] = mul_sub(pr, ar, pi * ai);
      q[1] = mul_add(pr, ai, pi * ar);
    }
  });
}

void phase_kernel(const Span& s, qubit_t target, cplx phase) {
  const std::uint64_t half = (std::uint64_t{1} << s.num_qubits) >> 1;
  const std::uint64_t stride2 = std::uint64_t{2} << target;
  const double pr = phase.real();
  const double pi = phase.imag();
  double* d = s.d;
  sweep(s, half, [=](std::uint64_t k0, std::uint64_t k1) {
    for_target_runs(target, k0, k1,
                    [=](std::uint64_t base, std::uint64_t run, auto step) {
      double* p1 = d + 2 * base + stride2;
      constexpr std::uint64_t s = 2 * decltype(step)::value;
      for (std::uint64_t j = 0; j < run; ++j) {
        double* q1 = p1 + j * s;
        const double ar = q1[0], ai = q1[1];
        q1[0] = mul_sub(pr, ar, pi * ai);
        q1[1] = mul_add(pr, ai, pi * ar);
      }
    });
  });
}

void cx_kernel(const Span& s, qubit_t control, qubit_t target) {
  const qubit_t lo = control < target ? control : target;
  const qubit_t hi = control < target ? target : control;
  const std::uint64_t quarter = (std::uint64_t{1} << s.num_qubits) >> 2;
  const std::uint64_t coff = std::uint64_t{2} << control;
  const std::uint64_t toff = std::uint64_t{2} << target;
  double* d = s.d;
  sweep(s, quarter, [=](std::uint64_t k0, std::uint64_t k1) {
    for_two_target_runs(lo, hi, k0, k1,
                        [=](std::uint64_t base, std::uint64_t run, auto step) {
      double* p0 = d + 2 * base + coff;
      constexpr std::uint64_t s = 2 * decltype(step)::value;
      for (std::uint64_t j = 0; j < run; ++j) {
        double* q0 = p0 + j * s;
        double* q1 = q0 + toff;
        const double r = q0[0], i = q0[1];
        q0[0] = q1[0];
        q0[1] = q1[1];
        q1[0] = r;
        q1[1] = i;
      }
    });
  });
}

void cphase_kernel(const Span& s, qubit_t a, qubit_t b, cplx phase) {
  const qubit_t lo = a < b ? a : b;
  const qubit_t hi = a < b ? b : a;
  const std::uint64_t quarter = (std::uint64_t{1} << s.num_qubits) >> 2;
  const std::uint64_t both = (std::uint64_t{2} << a) + (std::uint64_t{2} << b);
  const double pr = phase.real();
  const double pi = phase.imag();
  double* d = s.d;
  sweep(s, quarter, [=](std::uint64_t k0, std::uint64_t k1) {
    for_two_target_runs(lo, hi, k0, k1,
                        [=](std::uint64_t base, std::uint64_t run, auto step) {
      double* p = d + 2 * base + both;
      constexpr std::uint64_t s = 2 * decltype(step)::value;
      for (std::uint64_t j = 0; j < run; ++j) {
        double* q = p + j * s;
        const double ar = q[0], ai = q[1];
        q[0] = mul_sub(pr, ar, pi * ai);
        q[1] = mul_add(pr, ai, pi * ar);
      }
    });
  });
}

void swap_kernel(const Span& s, qubit_t a, qubit_t b) {
  const qubit_t lo = a < b ? a : b;
  const qubit_t hi = a < b ? b : a;
  const std::uint64_t quarter = (std::uint64_t{1} << s.num_qubits) >> 2;
  const std::uint64_t aoff = std::uint64_t{2} << a;
  const std::uint64_t boff = std::uint64_t{2} << b;
  double* d = s.d;
  sweep(s, quarter, [=](std::uint64_t k0, std::uint64_t k1) {
    for_two_target_runs(lo, hi, k0, k1,
                        [=](std::uint64_t base, std::uint64_t run, auto step) {
      double* p = d + 2 * base;
      constexpr std::uint64_t s = 2 * decltype(step)::value;
      for (std::uint64_t j = 0; j < run; ++j) {
        double* qa = p + j * s + aoff;
        double* qb = p + j * s + boff;
        const double r = qa[0], i = qa[1];
        qa[0] = qb[0];
        qa[1] = qb[1];
        qb[0] = r;
        qb[1] = i;
      }
    });
  });
}

void ccx_kernel(const Span& s, qubit_t c1, qubit_t c2, qubit_t target) {
  // Iterate the dim/8 indices with all three operand bits cleared, then set
  // both control bits — touches exactly the amplitudes that move.
  unsigned b0 = c1, b1 = c2, b2 = target;
  if (b0 > b1) std::swap(b0, b1);
  if (b1 > b2) std::swap(b1, b2);
  if (b0 > b1) std::swap(b0, b1);
  const std::uint64_t eighth = (std::uint64_t{1} << s.num_qubits) >> 3;
  const std::uint64_t cbits = (std::uint64_t{1} << c1) | (std::uint64_t{1} << c2);
  const std::uint64_t tbit = std::uint64_t{1} << target;
  cplx* amps = reinterpret_cast<cplx*>(s.d);
  sweep(s, eighth, [=](std::uint64_t k0, std::uint64_t k1) {
    for (std::uint64_t k = k0; k < k1; ++k) {
      const std::uint64_t i0 = insert_three_zero_bits(k, b0, b1, b2) | cbits;
      std::swap(amps[i0], amps[i0 | tbit]);
    }
  });
}

// A gate reduced to its kernel family. kX is an X on `target` conditioned
// on the `num_other` control qubits in `other` (X, CX, CCX); kPhase
// multiplies the amplitudes whose `num_other` qubits in `other` are all 1
// by `phase` (Z/S/Sdg/T/Tdg/P, CZ/CP; zero qubits scales the whole span);
// kSwap exchanges `target` and other[0].
struct KernelOp {
  enum class Kind : std::uint8_t { kX, kY, kMat2, kPhase, kSwap };
  Kind kind = Kind::kX;
  qubit_t target = 0;
  qubit_t other[2] = {0, 0};
  unsigned num_other = 0;
  cplx phase{};
  Mat2 m{};
};

const Mat2& hadamard() {
  static const Mat2 kHadamard = [] {
    Mat2 h;
    const double inv_sqrt2 = 0.7071067811865475244;
    h.at(0, 0) = inv_sqrt2;
    h.at(0, 1) = inv_sqrt2;
    h.at(1, 0) = inv_sqrt2;
    h.at(1, 1) = -inv_sqrt2;
    return h;
  }();
  return kHadamard;
}

KernelOp decode(const Gate& gate) {
  static const cplx kSPhase(0.0, 1.0);
  static const cplx kSdgPhase(0.0, -1.0);
  static const cplx kTPhase = std::exp(cplx(0.0, kPi / 4.0));
  static const cplx kTdgPhase = std::exp(cplx(0.0, -kPi / 4.0));
  using K = KernelOp::Kind;
  const auto& q = gate.qubits;
  const auto phase1 = [&](cplx phase) {
    return KernelOp{.kind = K::kPhase, .other = {q[0], 0}, .num_other = 1, .phase = phase};
  };
  switch (gate.kind) {
    case GateKind::X:
      return {.kind = K::kX, .target = q[0]};
    case GateKind::Y:
      return {.kind = K::kY, .target = q[0]};
    case GateKind::Z:
      return phase1(cplx(-1.0, 0.0));
    case GateKind::H:
      return {.kind = K::kMat2, .target = q[0], .m = hadamard()};
    case GateKind::S:
      return phase1(kSPhase);
    case GateKind::Sdg:
      return phase1(kSdgPhase);
    case GateKind::T:
      return phase1(kTPhase);
    case GateKind::Tdg:
      return phase1(kTdgPhase);
    case GateKind::P:
      return phase1(std::exp(cplx(0.0, gate.params[0])));
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::RZ:
    case GateKind::U2:
    case GateKind::U3:
      return {.kind = K::kMat2, .target = q[0], .m = gate_matrix1(gate)};
    case GateKind::CX:
      return {.kind = K::kX, .target = q[1], .other = {q[0], 0}, .num_other = 1};
    case GateKind::CZ:
      return {.kind = K::kPhase, .other = {q[0], q[1]}, .num_other = 2,
              .phase = cplx(-1.0, 0.0)};
    case GateKind::CP:
      return {.kind = K::kPhase, .other = {q[0], q[1]}, .num_other = 2,
              .phase = std::exp(cplx(0.0, gate.params[0]))};
    case GateKind::SWAP:
      return {.kind = K::kSwap, .target = q[0], .other = {q[1], 0}, .num_other = 1};
    case GateKind::CCX:
      return {.kind = K::kX, .target = q[2], .other = {q[0], q[1]}, .num_other = 2};
  }
  RQSIM_CHECK(false, "apply_gate: unhandled gate kind");
  return {};
}

void apply_op(const Span& s, const KernelOp& op) {
  switch (op.kind) {
    case KernelOp::Kind::kX:
      if (op.num_other == 0) {
        x_kernel(s, op.target);
      } else if (op.num_other == 1) {
        cx_kernel(s, op.other[0], op.target);
      } else {
        ccx_kernel(s, op.other[0], op.other[1], op.target);
      }
      return;
    case KernelOp::Kind::kY:
      y_kernel(s, op.target);
      return;
    case KernelOp::Kind::kMat2:
      mat2_kernel(s, op.m, op.target);
      return;
    case KernelOp::Kind::kPhase:
      if (op.num_other == 0) {
        scale_kernel(s, op.phase);
      } else if (op.num_other == 1) {
        phase_kernel(s, op.other[0], op.phase);
      } else {
        cphase_kernel(s, op.other[0], op.other[1], op.phase);
      }
      return;
    case KernelOp::Kind::kSwap:
      swap_kernel(s, op.target, op.other[0]);
      return;
  }
}

// One gate of a blocked run: `op` restricted to a block, applied to the
// blocks whose index has every bit of `mask` set.
struct BlockOp {
  std::uint64_t mask = 0;
  KernelOp op;
};

// Restrict `op` to blocks of `block_qubits` qubits. A qubit at or above the
// block size is constant within a block, so a control or phase qubit up
// there selects whole blocks (it moves into `mask`, as bit q - block_qubits
// of the block index) and drops out of the kernel. Returns false when the
// gate moves amplitudes across blocks: an X/Y/mat2 target or a SWAP qubit
// at or above the block size.
bool restrict_to_block(const KernelOp& op, unsigned block_qubits, BlockOp& out) {
  out.op = op;
  out.mask = 0;
  switch (op.kind) {
    case KernelOp::Kind::kY:
    case KernelOp::Kind::kMat2:
      return op.target < block_qubits;
    case KernelOp::Kind::kSwap:
      return op.target < block_qubits && op.other[0] < block_qubits;
    case KernelOp::Kind::kX:
      if (op.target >= block_qubits) {
        return false;
      }
      break;
    case KernelOp::Kind::kPhase:
      break;
  }
  out.op.num_other = 0;
  for (unsigned k = 0; k < op.num_other; ++k) {
    if (op.other[k] >= block_qubits) {
      out.mask |= std::uint64_t{1} << (op.other[k] - block_qubits);
    } else {
      out.op.other[out.op.num_other++] = op.other[k];
    }
  }
  return true;
}

// Apply a run of block-local gates block by block: every gate of the run
// to block 0, then every gate to block 1, and so on. Each amplitude sees
// the same kernels with the same arithmetic in the same gate order as the
// gate-by-gate sweep, only with the block kept in cache between gates.
void apply_blocked_run(StateVector& state, const std::vector<BlockOp>& run,
                       unsigned block_qubits) {
  double* d = amp_data(state);
  const std::uint64_t num_blocks = state.dim() >> block_qubits;
  kernel_parallel_for(num_blocks, state.num_qubits(),
                      [&](std::uint64_t b0, std::uint64_t b1) {
    for (std::uint64_t b = b0; b < b1; ++b) {
      const Span block{d + (2 * b << block_qubits), block_qubits, false};
      for (const BlockOp& op : run) {
        if ((b & op.mask) == op.mask) {
          apply_op(block, op.op);
        }
      }
    }
  });
}

void check_operands(const StateVector& state, const Gate& gate) {
  const unsigned n = state.num_qubits();
  const int arity = gate.arity();
  for (int k = 0; k < arity; ++k) {
    RQSIM_CHECK(gate.qubits[k] < n, "apply_gate: qubit out of range");
    for (int j = 0; j < k; ++j) {
      RQSIM_CHECK(gate.qubits[j] != gate.qubits[k], "apply_gate: repeated operand");
    }
  }
}

}  // namespace

void apply_mat2(StateVector& state, const Mat2& m, qubit_t target) {
  RQSIM_CHECK(target < state.num_qubits(), "apply_mat2: target out of range");
  mat2_kernel(whole(state), m, target);
}

void apply_mat4(StateVector& state, const Mat4& m, qubit_t q1, qubit_t q0) {
  RQSIM_CHECK(q1 < state.num_qubits() && q0 < state.num_qubits() && q1 != q0,
              "apply_mat4: bad operands");
  const qubit_t lo = q1 < q0 ? q1 : q0;
  const qubit_t hi = q1 < q0 ? q0 : q1;
  const std::uint64_t quarter = state.dim() >> 2;
  // Interleaved offsets of the four amplitudes of one quad. Matrix row and
  // column index is (bit(q1) << 1) | bit(q0).
  const std::uint64_t o1 = std::uint64_t{2} << q0;
  const std::uint64_t o2 = std::uint64_t{2} << q1;
  const std::uint64_t o3 = o1 + o2;
  double mr[16];
  double mi[16];
  for (std::size_t i = 0; i < 16; ++i) {
    mr[i] = m.m[i].real();
    mi[i] = m.m[i].imag();
  }
  double* d = amp_data(state);
  kernel_parallel_for(quarter, state.num_qubits(), [=](std::uint64_t k0, std::uint64_t k1) {
    for_two_target_runs(lo, hi, k0, k1,
                        [=](std::uint64_t base, std::uint64_t run, auto step) {
      double* b0 = d + 2 * base;
      double* b1 = b0 + o1;
      double* b2 = b0 + o2;
      double* b3 = b0 + o3;
      constexpr std::uint64_t s = 2 * decltype(step)::value;
      for (std::uint64_t j = 0; j < run; ++j) {
        const double a0r = b0[s * j], a0i = b0[s * j + 1];
        const double a1r = b1[s * j], a1i = b1[s * j + 1];
        const double a2r = b2[s * j], a2i = b2[s * j + 1];
        const double a3r = b3[s * j], a3i = b3[s * j + 1];
        b0[s * j] = (mul_sub(mr[0], a0r, mi[0] * a0i) +
                     mul_sub(mr[1], a1r, mi[1] * a1i)) +
                    (mul_sub(mr[2], a2r, mi[2] * a2i) +
                     mul_sub(mr[3], a3r, mi[3] * a3i));
        b0[s * j + 1] = (mul_add(mr[0], a0i, mi[0] * a0r) +
                         mul_add(mr[1], a1i, mi[1] * a1r)) +
                        (mul_add(mr[2], a2i, mi[2] * a2r) +
                         mul_add(mr[3], a3i, mi[3] * a3r));
        b1[s * j] = (mul_sub(mr[4], a0r, mi[4] * a0i) +
                     mul_sub(mr[5], a1r, mi[5] * a1i)) +
                    (mul_sub(mr[6], a2r, mi[6] * a2i) +
                     mul_sub(mr[7], a3r, mi[7] * a3i));
        b1[s * j + 1] = (mul_add(mr[4], a0i, mi[4] * a0r) +
                         mul_add(mr[5], a1i, mi[5] * a1r)) +
                        (mul_add(mr[6], a2i, mi[6] * a2r) +
                         mul_add(mr[7], a3i, mi[7] * a3r));
        b2[s * j] = (mul_sub(mr[8], a0r, mi[8] * a0i) +
                     mul_sub(mr[9], a1r, mi[9] * a1i)) +
                    (mul_sub(mr[10], a2r, mi[10] * a2i) +
                     mul_sub(mr[11], a3r, mi[11] * a3i));
        b2[s * j + 1] = (mul_add(mr[8], a0i, mi[8] * a0r) +
                         mul_add(mr[9], a1i, mi[9] * a1r)) +
                        (mul_add(mr[10], a2i, mi[10] * a2r) +
                         mul_add(mr[11], a3i, mi[11] * a3r));
        b3[s * j] = (mul_sub(mr[12], a0r, mi[12] * a0i) +
                     mul_sub(mr[13], a1r, mi[13] * a1i)) +
                    (mul_sub(mr[14], a2r, mi[14] * a2i) +
                     mul_sub(mr[15], a3r, mi[15] * a3i));
        b3[s * j + 1] = (mul_add(mr[12], a0i, mi[12] * a0r) +
                         mul_add(mr[13], a1i, mi[13] * a1r)) +
                        (mul_add(mr[14], a2i, mi[14] * a2r) +
                         mul_add(mr[15], a3i, mi[15] * a3r));
      }
    });
  });
}

void apply_x(StateVector& state, qubit_t target) {
  RQSIM_CHECK(target < state.num_qubits(), "apply_x: target out of range");
  x_kernel(whole(state), target);
}

void apply_y(StateVector& state, qubit_t target) {
  RQSIM_CHECK(target < state.num_qubits(), "apply_y: target out of range");
  y_kernel(whole(state), target);
}

void apply_z(StateVector& state, qubit_t target) {
  apply_phase(state, target, cplx(-1.0, 0.0));
}

void apply_h(StateVector& state, qubit_t target) {
  apply_mat2(state, hadamard(), target);
}

void apply_phase(StateVector& state, qubit_t target, cplx phase) {
  RQSIM_CHECK(target < state.num_qubits(), "apply_phase: target out of range");
  phase_kernel(whole(state), target, phase);
}

void apply_cx(StateVector& state, qubit_t control, qubit_t target) {
  RQSIM_CHECK(control < state.num_qubits() && target < state.num_qubits() &&
                  control != target,
              "apply_cx: bad operands");
  cx_kernel(whole(state), control, target);
}

void apply_cz(StateVector& state, qubit_t a, qubit_t b) {
  apply_cphase(state, a, b, cplx(-1.0, 0.0));
}

void apply_cphase(StateVector& state, qubit_t a, qubit_t b, cplx phase) {
  RQSIM_CHECK(a < state.num_qubits() && b < state.num_qubits() && a != b,
              "apply_cphase: bad operands");
  cphase_kernel(whole(state), a, b, phase);
}

void apply_swap(StateVector& state, qubit_t a, qubit_t b) {
  RQSIM_CHECK(a < state.num_qubits() && b < state.num_qubits() && a != b,
              "apply_swap: bad operands");
  swap_kernel(whole(state), a, b);
}

void apply_ccx(StateVector& state, qubit_t c1, qubit_t c2, qubit_t target) {
  RQSIM_CHECK(c1 < state.num_qubits() && c2 < state.num_qubits() &&
                  target < state.num_qubits() && c1 != c2 && c1 != target &&
                  c2 != target,
              "apply_ccx: bad operands");
  ccx_kernel(whole(state), c1, c2, target);
}

void apply_gate(StateVector& state, const Gate& gate) {
  check_operands(state, gate);
  count_gate_dispatch(gate.kind);
  apply_op(whole(state), decode(gate));
}

std::uint64_t apply_gates(StateVector& state, std::span<const Gate* const> gates,
                          unsigned block_qubits) {
  if (state.num_qubits() < block_qubits + 2) {
    for (const Gate* gate : gates) {
      apply_gate(state, *gate);
    }
    return gates.size();
  }
  std::uint64_t passes = 0;
  std::vector<BlockOp> run;
  BlockOp next;
  std::size_t i = 0;
  while (i < gates.size()) {
    const Gate& gate = *gates[i];
    check_operands(state, gate);
    count_gate_dispatch(gate.kind);
    const KernelOp op = decode(gate);
    ++i;
    ++passes;
    if (!restrict_to_block(op, block_qubits, next)) {
      apply_op(whole(state), op);
      continue;
    }
    // Extend to the maximal run of block-local gates; a lone one is a
    // plain full sweep.
    run.assign(1, next);
    while (i < gates.size()) {
      const Gate& more = *gates[i];
      check_operands(state, more);
      if (!restrict_to_block(decode(more), block_qubits, next)) {
        break;
      }
      count_gate_dispatch(more.kind);
      run.push_back(next);
      ++i;
    }
    if (run.size() == 1) {
      apply_op(whole(state), op);
    } else {
      apply_blocked_run(state, run, block_qubits);
    }
  }
  return passes;
}

void apply_fused(StateVector& state, const FusedProgram& program) {
  for (const FusedOp& op : program.ops) {
    switch (op.kind) {
      case FusedOp::Kind::kGate:
        apply_gate(state, op.gate);
        break;
      case FusedOp::Kind::kMat2:
        fused_mat2.increment();
        apply_mat2(state, op.m2, op.q_lo);
        break;
      case FusedOp::Kind::kMat4:
        fused_mat4.increment();
        apply_mat4(state, op.m4, op.q_hi, op.q_lo);
        break;
    }
  }
}

void apply_pauli(StateVector& state, Pauli p, qubit_t target) {
  switch (p) {
    case Pauli::I:
      return;
    case Pauli::X:
      apply_x(state, target);
      return;
    case Pauli::Y:
      apply_y(state, target);
      return;
    case Pauli::Z:
      apply_z(state, target);
      return;
  }
}

void apply_pauli_pair(StateVector& state, PauliPair pair, qubit_t q1, qubit_t q0) {
  apply_pauli(state, pair.p1, q1);
  apply_pauli(state, pair.p0, q0);
}

}  // namespace rqsim
