// In-process message-passing runtime — the repo's substitute for MPI+MLSL.
//
// A Cluster hosts `world_size` ranks, each executing the same function on
// its own thread (SPMD, the MPI programming model). Ranks exchange typed
// float payloads through per-destination mailboxes; every collective
// (barrier, broadcast, reduce, all-reduce in three algorithms) is built
// from point-to-point sends exactly as a distributed implementation would
// be, so the communication *patterns* of the paper's system — group
// all-reduce, root-to-parameter-server exchange (§III-D/E) — are exercised
// with real concurrency and real data movement.
//
// Communicator::split() mirrors our MLSL extension for "node placement
// into disjoint communication groups" (§III-E(b)): compute groups and
// parameter servers are sub-communicators of the world.
//
// The runtime is instrumented for the distributed observability layer:
// every send/recv bumps per-world-rank byte/message counters (read back
// via io_stats()) and the pf15_comm_* registry metrics, collectives wrap
// themselves in "comm"-category trace spans, and clock_offset_us() runs
// the barrier-based offset handshake whose result obs::merge_traces()
// uses to align per-rank trace files onto one timeline.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

namespace pf15::comm {

enum class AllReduceAlgo {
  kRing,               // bandwidth-optimal, large payloads
  kRecursiveDoubling,  // latency-optimal, power-of-two friendly
  kTree,               // binomial reduce + broadcast
};

namespace detail {
class Context;
}

/// Wire traffic of one rank, totalled across every communicator it is a
/// member of (world + splits). Bytes are payload bytes (floats × 4).
struct IoStats {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_recv = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_recv = 0;
};

/// Per-rank communicator handle. Cheap to copy; all copies refer to the
/// same group. Methods must be called from the owning rank's thread.
class Communicator {
 public:
  int rank() const { return rank_; }
  int size() const { return static_cast<int>(members_.size()); }

  /// Asynchronous (buffered) send to `dst` (rank within this
  /// communicator). Never blocks.
  void send(int dst, int tag, std::span<const float> data);

  /// Blocking receive of the next message from (src, tag), in send order.
  std::vector<float> recv(int src, int tag);

  /// True if a message from (src, tag) is already waiting. Like recv(),
  /// throws AbortedError once a peer has failed and nothing is waiting.
  bool probe(int src, int tag);

  void barrier();

  /// In-place sum all-reduce over every rank of this communicator.
  void allreduce_sum(std::span<float> data,
                     AllReduceAlgo algo = AllReduceAlgo::kRing);

  /// In-place broadcast from `root`.
  void broadcast(std::span<float> data, int root);

  /// In-place sum reduction; result valid only on `root`.
  void reduce_sum(std::span<float> data, int root);

  /// Gathers each rank's `data` to root; on root, returns size() blocks
  /// concatenated in rank order (empty elsewhere).
  std::vector<float> gather(std::span<const float> data, int root);

  /// Collective: partitions ranks by `color`; within a color, ranks are
  /// ordered by (key, old rank). Returns the sub-communicator this rank
  /// belongs to.
  Communicator split(int color, int key);

  /// This rank's cumulative wire traffic (across all communicators of
  /// the cluster, not just this one).
  IoStats io_stats() const;

  /// This rank's world rank (stable across splits; the identity used for
  /// trace lanes and flight records).
  int world_rank() const { return members_[static_cast<std::size_t>(rank_)]; }

  /// Collective clock-offset handshake against `root`'s clock: `rounds`
  /// iterations of (barrier; sample local trace_now_us(); root broadcasts
  /// its sample), taking the median offset. Returns the microseconds to
  /// ADD to this rank's trace timestamps to land on root's clock domain —
  /// exactly 0 on root. In-process ranks share one steady_clock, so the
  /// measured offsets are honestly tiny (scheduling skew); the handshake
  /// exists so the merge workflow runs the same protocol a one-process-
  /// per-rank deployment needs.
  double clock_offset_us(int root = 0, int rounds = 8);

 private:
  friend class Cluster;
  friend class detail::Context;

  Communicator(std::shared_ptr<detail::Context> ctx, std::uint64_t comm_id,
               int rank, std::vector<int> members);

  std::shared_ptr<detail::Context> ctx_;
  std::uint64_t comm_id_ = 0;
  int rank_ = 0;                // rank within this communicator
  std::vector<int> members_;    // world rank of each member, by comm rank
};

/// Spawns `world_size` rank threads and runs `fn(comm)` on each. Joins all
/// threads; the first exception thrown by any rank is rethrown on the
/// caller after all ranks finish or abort.
class Cluster {
 public:
  explicit Cluster(int world_size);
  ~Cluster();

  int world_size() const { return world_size_; }

  void run(const std::function<void(Communicator&)>& fn);

 private:
  int world_size_;
  std::shared_ptr<detail::Context> ctx_;
};

}  // namespace pf15::comm
