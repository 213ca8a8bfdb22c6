#include "sim/buffer_pool.hpp"

#include <algorithm>
#include <cstdint>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "common/error.hpp"
#include "telemetry/telemetry.hpp"

namespace rqsim {

// --------------------------------------------------------------------------
// Amplitude storage

namespace detail {

namespace {
std::size_t round_up_to_huge_page(std::size_t bytes) {
  return (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
}
}  // namespace

void* allocate_amplitudes(std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  if (bytes >= kHugePageBytes) {
    // Over-map by one huge page, then trim both ends so the buffer starts
    // on a 2 MiB boundary: the kernel can only back aligned 2 MiB ranges
    // with a huge page. A refused madvise (THP disabled) leaves an ordinary
    // mapping, which behaves exactly like a large malloc.
    const std::size_t size = round_up_to_huge_page(bytes);
    void* raw = mmap(nullptr, size + kHugePageBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) {
      throw std::bad_alloc();
    }
    const auto start = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t aligned =
        (start + kHugePageBytes - 1) & ~std::uintptr_t{kHugePageBytes - 1};
    const std::size_t head = aligned - start;
    if (head != 0) {
      munmap(raw, head);
    }
    munmap(reinterpret_cast<void*>(aligned + size), kHugePageBytes - head);
    void* p = reinterpret_cast<void*>(aligned);
    (void)madvise(p, size, MADV_HUGEPAGE);
    return p;
  }
#endif
  return ::operator new(bytes);
}

void deallocate_amplitudes(void* p, std::size_t bytes) noexcept {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  if (bytes >= kHugePageBytes) {
    munmap(p, round_up_to_huge_page(bytes));
    return;
  }
#endif
  ::operator delete(p);
}

}  // namespace detail

namespace {
// Pool traffic split by path: shard hits are the lock-free fast path,
// global hits paid one mutex, fresh allocs paged in new memory. The gauges
// track the most buffers ever parked in one shard / the overflow list.
telemetry::Counter g_acquires("buffer_pool.acquires");
telemetry::Counter g_shard_hits("buffer_pool.shard_hits");
telemetry::Counter g_global_hits("buffer_pool.global_hits");
telemetry::Counter g_fresh_allocs("buffer_pool.fresh_allocs");
telemetry::Counter g_releases("buffer_pool.releases");
telemetry::MaxGauge g_shard_high_water("buffer_pool.shard_high_water");
telemetry::MaxGauge g_global_high_water("buffer_pool.global_high_water");
telemetry::Counter g_prewarmed("buffer_pool.prewarmed");
// CoW checkpoint traffic: forks are refcount bumps, materializations are
// the deferred 2^n copies actually paid, in-place writes are sole-owner
// mutations that skipped the copy entirely. cow_forks - cow_materializations
// is the number of full state copies the CoW scheme eliminated.
telemetry::Counter g_cow_forks("buffer_pool.cow_forks");
telemetry::Counter g_cow_materializations("buffer_pool.cow_materializations");
telemetry::Counter g_cow_inplace("buffer_pool.cow_inplace");
}  // namespace

StateBufferPool::StateBufferPool(std::size_t max_pooled, std::size_t num_shards)
    : max_pooled_(max_pooled),
      per_shard_cap_(num_shards == 0 ? max_pooled
                                     : std::max<std::size_t>(1, max_pooled / num_shards)),
      shards_(std::max<std::size_t>(1, num_shards)) {}

StateVector StateBufferPool::acquire_copy(const StateVector& src, std::size_t shard) {
  RQSIM_CHECK(shard < shards_.size(), "StateBufferPool: shard index out of range");
  g_acquires.increment();
  std::vector<AmpBuffer>& local = shards_[shard].free;
  if (!local.empty()) {
    // Hot path: owner-thread shard list, no synchronization of any kind.
    AmpBuffer buffer = std::move(local.back());
    local.pop_back();
    reuses_.fetch_add(1, std::memory_order_relaxed);
    g_shard_hits.increment();
    // Vector assignment reuses the existing allocation when capacity
    // suffices (checkpoints of one run are all the same size).
    buffer = src.amplitudes();
    return StateVector::from_buffer(src.num_qubits(), std::move(buffer));
  }
  AmpBuffer buffer;
  bool reused = false;
  {
    // Only the pop is serialized; the 2^n copy below runs outside the lock.
    std::lock_guard<std::mutex> lock(global_mutex_);
    if (!global_free_.empty()) {
      buffer = std::move(global_free_.back());
      global_free_.pop_back();
      reused = true;
    }
  }
  if (reused) {
    reuses_.fetch_add(1, std::memory_order_relaxed);
    g_global_hits.increment();
    buffer = src.amplitudes();
    return StateVector::from_buffer(src.num_qubits(), std::move(buffer));
  }
  allocs_.fetch_add(1, std::memory_order_relaxed);
  g_fresh_allocs.increment();
  return StateVector::from_buffer(src.num_qubits(), src.amplitudes());
}

void StateBufferPool::release(StateVector&& state, std::size_t shard) {
  RQSIM_CHECK(shard < shards_.size(), "StateBufferPool: shard index out of range");
  if (state.dim() == 0) {
    return;
  }
  g_releases.increment();
  const bool shardable = state.dim() * sizeof(cplx) < kShardBufferBytes;
  std::vector<AmpBuffer>& local = shards_[shard].free;
  if (shardable && local.size() < per_shard_cap_) {
    local.push_back(state.take_buffer());
    g_shard_high_water.record(local.size());
    return;
  }
  std::lock_guard<std::mutex> lock(global_mutex_);
  // The per-shard caps already bound the shard lists; the overflow list
  // absorbs the remainder of the total budget (all of it for buffers that
  // never enter a shard).
  const std::size_t shard_budget =
      shardable ? std::min(max_pooled_, per_shard_cap_ * shards_.size()) : 0;
  if (global_free_.size() < max_pooled_ - shard_budget) {
    global_free_.push_back(state.take_buffer());
    g_global_high_water.record(global_free_.size());
  }
}

void StateBufferPool::prewarm(unsigned num_qubits, std::size_t per_shard) {
  const std::size_t dim = std::size_t{1} << num_qubits;
  if (dim * sizeof(cplx) >= kShardBufferBytes) {
    const std::size_t total = std::min(max_pooled_, per_shard * shards_.size());
    std::lock_guard<std::mutex> lock(global_mutex_);
    while (global_free_.size() < total) {
      global_free_.emplace_back(dim);
      prewarmed_.fetch_add(1, std::memory_order_relaxed);
      g_prewarmed.increment();
    }
    return;
  }
  const std::size_t target = std::min(per_shard, per_shard_cap_);
  for (Shard& shard : shards_) {
    while (shard.free.size() < target) {
      // Zero-filling touches every page now, on the setup thread, which is
      // the point: the workers' first acquires find mapped memory.
      shard.free.emplace_back(dim);
      prewarmed_.fetch_add(1, std::memory_order_relaxed);
      g_prewarmed.increment();
    }
  }
}

void StateBufferPool::clear() {
  for (Shard& shard : shards_) {
    shard.free.clear();
  }
  std::lock_guard<std::mutex> lock(global_mutex_);
  global_free_.clear();
}

std::size_t StateBufferPool::pooled() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.free.size();
  }
  std::lock_guard<std::mutex> lock(global_mutex_);
  return total + global_free_.size();
}

// --------------------------------------------------------------------------
// CowState

struct CowState::Block {
  StateVector state;
  std::atomic<std::size_t> refs{1};
};

CowState& CowState::operator=(CowState&& other) noexcept {
  if (this != &other) {
    // Assigning over an engaged handle has no pool to recycle into; free
    // outright, exactly like the destructor's abandonment path.
    if (block_ != nullptr &&
        block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete block_;
    }
    block_ = other.block_;
    other.block_ = nullptr;
  }
  return *this;
}

CowState::~CowState() {
  if (block_ != nullptr &&
      block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete block_;
  }
}

CowState CowState::adopt(StateVector&& state) {
  Block* block = new Block;
  block->state = std::move(state);
  return CowState(block);
}

CowState CowState::fork() const {
  RQSIM_CHECK(block_ != nullptr, "CowState::fork: empty handle");
  block_->refs.fetch_add(1, std::memory_order_relaxed);
  g_cow_forks.increment();
  return CowState(block_);
}

bool CowState::unique() const {
  return block_ != nullptr &&
         block_->refs.load(std::memory_order_acquire) == 1;
}

const StateVector& CowState::read() const {
  RQSIM_CHECK(block_ != nullptr, "CowState::read: empty handle");
  return block_->state;
}

StateVector& CowState::mutate(StateBufferPool& pool, std::size_t shard,
                              bool* copied, bool* released_peer) {
  RQSIM_CHECK(block_ != nullptr, "CowState::mutate: empty handle");
  if (copied != nullptr) {
    *copied = false;
  }
  if (released_peer != nullptr) {
    *released_peer = false;
  }
  // Sole owner: in-place. The acquire load pairs with the release half of
  // peers' detaching fetch_sub, so a buffer observed unshared is fully
  // synchronized (peers never write a shared buffer, but their detach must
  // be ordered before our write).
  if (block_->refs.load(std::memory_order_acquire) == 1) {
    g_cow_inplace.increment();
    return block_->state;
  }
  // Shared: materialize a private copy through the pool, then detach from
  // the shared buffer.
  Block* fresh = new Block;
  fresh->state = pool.acquire_copy(block_->state, shard);
  g_cow_materializations.increment();
  if (copied != nullptr) {
    *copied = true;
  }
  Block* old = block_;
  block_ = fresh;
  if (old->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Every peer dropped between the shared check and this detach: the copy
    // was redundant but safe, and the old buffer is ours to recycle.
    pool.release(std::move(old->state), shard);
    delete old;
    if (released_peer != nullptr) {
      *released_peer = true;
    }
  }
  return block_->state;
}

bool CowState::drop(StateBufferPool& pool, std::size_t shard) {
  if (block_ == nullptr) {
    return false;
  }
  Block* block = block_;
  block_ = nullptr;
  if (block->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    pool.release(std::move(block->state), shard);
    delete block;
    return true;
  }
  return false;
}

}  // namespace rqsim
