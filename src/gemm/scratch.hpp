// Per-thread kernel scratch with a checkout/return pool.
//
// The convolution backends are stateless; their per-call scratch
// (lowered matrices, transform-domain tiles) comes from a thread-local
// pool of float buffers. A plain `thread_local std::vector` — the
// pre-scheduler design — is NOT safe any more: waits on the
// work-stealing scheduler are help-first, so a kernel that fans out and
// waits (Winograd's transform-domain GEMMs, a parallel im2col GEMM) can
// execute *another* task nested on the same thread, and if that task
// grabbed the same thread_local vector it would resize the buffer out
// from under the suspended caller. ScratchLease checks a buffer *out*
// of the pool instead: a nested task on the same thread gets a
// different buffer, and the lease returns it when the call unwinds.
// Pool depth therefore equals the deepest nesting ever reached on the
// thread (small), not the task count.
//
// A checkout takes the most recently returned buffer that already fits,
// so a small lease between two large ones (a smaller layer's lowering
// between two of a larger layer) neither frees nor re-zeroes the large
// buffer. Only when nothing fits is a buffer (the largest) grown. A buffer far
// larger than both the request and kScratchKeepFloats is shrunk at
// checkout, so a one-off giant lowering (full-resolution climate encoder:
// ~0.2 GB) doesn't pin that much memory per worker thread for the rest of
// the process.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <memory>
#include <vector>

namespace pf15::gemm {

namespace detail {
inline std::vector<std::unique_ptr<std::vector<float>>>& scratch_pool() {
  thread_local std::vector<std::unique_ptr<std::vector<float>>> pool;
  return pool;
}

/// Buffers up to four times this size (16 MiB) stay pooled whatever the
/// request. 4 MiB is above the largest lowering of the benchmarked nets
/// (~2.4 MB), so their leases never release each other's buffers.
inline constexpr std::size_t kScratchKeepFloats = std::size_t{1} << 20;
}  // namespace detail

/// RAII checkout of at least `need` floats from the calling thread's
/// scratch pool. The lease (and every pointer from data()) stays valid
/// across nested scheduler waits — helping tasks on this thread check
/// out different buffers. Construct and destroy on the same thread (a
/// task executes wholly on one thread, so this is automatic).
class ScratchLease {
 public:
  explicit ScratchLease(std::size_t need) {
    auto& pool = detail::scratch_pool();
    // The most recently returned buffer that fits, else the largest.
    const auto fit = std::find_if(
        pool.rbegin(), pool.rend(),
        [&](const auto& b) { return b->size() >= need; });
    const auto it =
        fit != pool.rend()
            ? std::prev(fit.base())
            : std::max_element(pool.begin(), pool.end(),
                               [](const auto& a, const auto& b) {
                                 return a->size() < b->size();
                               });
    if (it == pool.end()) {
      buf_ = std::make_unique<std::vector<float>>();
    } else {
      buf_ = std::move(*it);
      pool.erase(it);
    }
    if (buf_->size() < need ||
        buf_->capacity() > 4 * std::max(need, detail::kScratchKeepFloats)) {
      // Drop the old storage first so growing does not copy it.
      buf_->clear();
      buf_->shrink_to_fit();
      buf_->resize(need);
    }
  }
  ~ScratchLease() {
    detail::scratch_pool().push_back(std::move(buf_));
  }

  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  float* data() { return buf_->data(); }

 private:
  std::unique_ptr<std::vector<float>> buf_;
};

}  // namespace pf15::gemm
