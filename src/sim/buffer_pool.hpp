// Checkpoint buffer pool: recycles freed StateVector allocations, plus the
// copy-on-write checkpoint handle (CowState) built on top of it.
//
// The prefix-caching executor forks a checkpoint on every branch of the
// trial tree and drops it when the branch is exhausted — thousands of
// push/pop cycles of 2^n-sized buffers per run. Allocating each fork fresh
// costs a page-faulting malloc of up to hundreds of MiB; the pool instead
// keeps dropped buffers on a free list and turns a fork into one memcpy
// into already-mapped memory.
//
// CowState goes one step further: a fork becomes a refcount bump on the
// parent's buffer, and the 2^n copy is deferred until someone actually
// *writes* a shared buffer (materialization). Forks whose subtree diverges
// immediately and drops the shared prefix without touching it never pay
// the copy at all, and — critically for the parallel executor's admission
// control — an unmaterialized fork occupies no memory, so it needs no MSV
// token while it waits in a work deque.
//
// Sharding (the multi-threaded tree executor's fork/drop path): the pool
// can be constructed with one shard per worker thread. A shard's free list
// is touched only by its owning worker — acquire and release on the hot
// path perform no synchronization at all (not even an atomic on the list) —
// with a mutex-guarded global overflow list as the cold-path fallback when
// a shard runs dry or over its cap. Buffers of kShardBufferBytes or more
// (22+ qubits) skip the shards and live on the global list only: a free
// 256 MiB buffer parked on an idle worker's shard would otherwise force a
// fresh page-faulting allocation on the next worker that needs one, and at
// those sizes one mutex per acquire (held for the list pop only, the 2^n
// copy runs after it) is noise against the copy. The
// single-shard default (shard 0) preserves the original single-threaded
// API: callers that never pass a shard index get the exact old behavior.
//
// The raw amplitude allocation (detail::allocate_amplitudes: 2 MiB-aligned,
// huge-page-advised mappings for large states) is defined in buffer_pool.cpp.
//
// Thread contract: shard s may only be used by the thread that owns it;
// clear() and the statistics accessors require external quiescence (no
// concurrent acquire/release), which every executor guarantees by reading
// them only after its workers have joined.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "sim/statevector.hpp"

namespace rqsim {

class StateBufferPool {
 public:
  /// `max_pooled` bounds the total number of retained free buffers across
  /// all shards plus the global overflow list; excess released buffers are
  /// freed. `num_shards` >= 1 (one per worker thread for lock-free reuse).
  explicit StateBufferPool(std::size_t max_pooled = 64, std::size_t num_shards = 1);

  StateBufferPool(const StateBufferPool&) = delete;
  StateBufferPool& operator=(const StateBufferPool&) = delete;

  /// A StateVector holding a copy of `src`, backed by a recycled buffer
  /// when one is available. `shard` must be owned by the calling thread.
  StateVector acquire_copy(const StateVector& src, std::size_t shard = 0);

  /// Return a dead StateVector's buffer to the free list.
  void release(StateVector&& state, std::size_t shard = 0);

  /// Buffers of at least this many bytes bypass the per-shard lists.
  static constexpr std::size_t kShardBufferBytes = std::size_t{64} << 20;

  /// Park up to `per_shard` zero-filled 2^num_qubits buffers on every
  /// shard's free list (bounded by the shard cap; buffers of
  /// kShardBufferBytes or more go to the global list instead, the same
  /// count in total), before any worker starts. Pre-warmed buffers are
  /// page-faulted here, on the setup thread, so the workers' first
  /// materializations hit the pool instead of racing into fresh
  /// allocations; they count as reuses when acquired, never as allocs
  /// (see prewarm_count). Requires quiescence.
  void prewarm(unsigned num_qubits, std::size_t per_shard);

  /// Drop all pooled buffers (requires quiescence).
  void clear();

  std::size_t num_shards() const { return shards_.size(); }

  /// Total retained free buffers (requires quiescence).
  std::size_t pooled() const;

  std::uint64_t reuse_count() const {
    return reuses_.load(std::memory_order_relaxed);
  }
  std::uint64_t alloc_count() const {
    return allocs_.load(std::memory_order_relaxed);
  }
  std::uint64_t prewarm_count() const {
    return prewarmed_.load(std::memory_order_relaxed);
  }

 private:
  // Padded so two workers' shard headers never share a cache line.
  struct alignas(64) Shard {
    std::vector<AmpBuffer> free;
  };

  std::size_t max_pooled_;
  std::size_t per_shard_cap_;
  std::vector<Shard> shards_;
  std::atomic<std::uint64_t> reuses_{0};
  std::atomic<std::uint64_t> allocs_{0};
  std::atomic<std::uint64_t> prewarmed_{0};

  mutable std::mutex global_mutex_;
  std::vector<AmpBuffer> global_free_;
};

/// Copy-on-write checkpoint handle: a move-only reference to a shared,
/// atomically refcounted StateVector.
///
///   fork()   — a new handle on the same buffer; one relaxed fetch_add, no
///              copy, no allocation. O(1) regardless of 2^n.
///   mutate() — mutable access. Sole owner: writes in place. Shared: first
///              materializes a private copy through the StateBufferPool
///              (the deferred "fork copy") and detaches from the shared
///              buffer. This is the ONLY point a CoW fork costs memory.
///   drop()   — detach; the last handle releases the buffer to the pool.
///
/// Thread contract: one handle is owned by one thread at a time (handles
/// move between threads through the executor's mutex-guarded deques, which
/// publish the buffer contents). Distinct handles to the same buffer may be
/// used concurrently: reads are safe because a shared buffer is never
/// written — any writer copies first, and the sole-owner in-place fast path
/// cannot race because a lone handle has no peers. The refcount uses the
/// shared_ptr protocol (relaxed increments, acq_rel decrement, acquire load
/// on the unique() fast path).
///
/// Telemetry: buffer_pool.cow_forks / cow_materializations / cow_inplace
/// count the three paths; the materialization deficit versus forks is the
/// work the CoW scheme eliminated.
class CowState {
 public:
  CowState() = default;
  CowState(const CowState&) = delete;
  CowState& operator=(const CowState&) = delete;
  CowState(CowState&& other) noexcept : block_(other.block_) {
    other.block_ = nullptr;
  }
  CowState& operator=(CowState&& other) noexcept;

  /// Fallback teardown for abandoned handles (exception unwinding): frees
  /// the buffer outright when last, without pooling it. Normal paths call
  /// drop() so the buffer is recycled.
  ~CowState();

  /// Take ownership of `state` as a fresh, sole-owner buffer.
  static CowState adopt(StateVector&& state);

  /// A new handle sharing this buffer (refcount bump, no copy).
  CowState fork() const;

  bool valid() const { return block_ != nullptr; }

  /// True when this handle is the buffer's only owner (a write would be
  /// in-place). Answer is exact for the owner: peers can only disappear
  /// concurrently, never appear.
  bool unique() const;

  const StateVector& read() const;

  /// Mutable access, materializing a private copy via `pool`/`shard` when
  /// the buffer is shared. `copied` reports whether a new buffer was
  /// materialized; `released_peer` reports the rare race where every other
  /// handle dropped between the shared check and the detach, making this
  /// handle the old buffer's last owner (the old buffer went back to the
  /// pool — callers tracking live buffers must count it as a release).
  StateVector& mutate(StateBufferPool& pool, std::size_t shard,
                      bool* copied = nullptr, bool* released_peer = nullptr);

  /// Detach from the buffer; returns true when this was the last handle
  /// and the buffer was released to `pool`.
  bool drop(StateBufferPool& pool, std::size_t shard);

 private:
  struct Block;
  explicit CowState(Block* block) : block_(block) {}

  Block* block_ = nullptr;
};

}  // namespace rqsim
