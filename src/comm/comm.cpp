#include "comm/comm.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <map>
#include <thread>
#include <tuple>

#include "common/errors.hpp"
#include "common/thread_annotations.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pf15::comm {

namespace detail {

/// Shared state of one Cluster: mailboxes, barrier states, split
/// negotiation tables. All addressing is by *world* rank; communicators
/// translate their local ranks before touching the context.
class Context {
 public:
  explicit Context(int world_size) : world_size_(world_size) {
    mailboxes_ = std::make_unique<Mailbox[]>(
        static_cast<std::size_t>(world_size));
    io_ = std::make_unique<RankIo[]>(static_cast<std::size_t>(world_size));
  }

  /// Wire accounting, charged to the world rank doing the send/recv.
  void count_sent(int world_rank, std::size_t bytes) {
    RankIo& io = io_[static_cast<std::size_t>(world_rank)];
    io.bytes_sent.fetch_add(bytes, std::memory_order_relaxed);
    io.messages_sent.fetch_add(1, std::memory_order_relaxed);
  }

  void count_recv(int world_rank, std::size_t bytes) {
    RankIo& io = io_[static_cast<std::size_t>(world_rank)];
    io.bytes_recv.fetch_add(bytes, std::memory_order_relaxed);
    io.messages_recv.fetch_add(1, std::memory_order_relaxed);
  }

  IoStats io_stats(int world_rank) const {
    const RankIo& io = io_[static_cast<std::size_t>(world_rank)];
    IoStats out;
    out.bytes_sent = io.bytes_sent.load(std::memory_order_relaxed);
    out.bytes_recv = io.bytes_recv.load(std::memory_order_relaxed);
    out.messages_sent = io.messages_sent.load(std::memory_order_relaxed);
    out.messages_recv = io.messages_recv.load(std::memory_order_relaxed);
    return out;
  }

  int world_size() const { return world_size_; }

  std::uint64_t new_comm_id() {
    return next_comm_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void post(int dst_world, std::uint64_t comm_id, int src_comm_rank,
            int tag, std::vector<float> payload) {
    Mailbox& box = mailboxes_[static_cast<std::size_t>(dst_world)];
    {
      MutexLock lock(box.mutex);
      box.queues[{comm_id, src_comm_rank, tag}].push_back(
          std::move(payload));
    }
    box.cv.notify_all();
  }

  std::vector<float> take(int dst_world, std::uint64_t comm_id,
                          int src_comm_rank, int tag) {
    Mailbox& box = mailboxes_[static_cast<std::size_t>(dst_world)];
    UniqueLock lock(box.mutex);
    const Key key{comm_id, src_comm_rank, tag};
    for (;;) {
      if (aborted()) break;
      auto ready = box.queues.find(key);
      if (ready != box.queues.end() && !ready->second.empty()) break;
      box.cv.wait(lock);
    }
    auto it = box.queues.find(key);
    if (it == box.queues.end() || it->second.empty()) {
      throw AbortedError("recv interrupted: cluster aborted by a peer");
    }
    auto& q = box.queues[key];
    std::vector<float> payload = std::move(q.front());
    q.pop_front();
    return payload;
  }

  /// take()'s abort semantics without the wait: a queued message still
  /// reads true, and an empty queue in an aborted job throws, so a rank
  /// polling for messages (a parameter server) cannot spin forever.
  bool peek(int dst_world, std::uint64_t comm_id, int src_comm_rank,
            int tag) {
    Mailbox& box = mailboxes_[static_cast<std::size_t>(dst_world)];
    MutexLock lock(box.mutex);
    auto it = box.queues.find({comm_id, src_comm_rank, tag});
    if (it != box.queues.end() && !it->second.empty()) return true;
    if (aborted()) {
      throw AbortedError("probe interrupted: cluster aborted by a peer");
    }
    return false;
  }

  /// Sense-reversing barrier keyed by communicator.
  void barrier(std::uint64_t comm_id, int comm_size) {
    UniqueLock lock(barrier_mutex_);
    BarrierState& b = barriers_[comm_id];
    const std::uint64_t my_generation = b.generation;
    if (++b.arrived == comm_size) {
      b.arrived = 0;
      ++b.generation;
      barrier_cv_.notify_all();
    } else {
      while (!aborted() && b.generation == my_generation) {
        barrier_cv_.wait(lock);
      }
      if (b.generation == my_generation) {
        throw AbortedError("barrier interrupted: cluster aborted by a peer");
      }
    }
  }

  /// Collective split negotiation. Each member posts (color, key); the
  /// last arrival computes the grouping and fresh comm ids; everyone
  /// retrieves its assignment.
  struct SplitResult {
    std::uint64_t comm_id;
    int rank;
    std::vector<int> members;  // world ranks in comm-rank order
  };

  SplitResult split(std::uint64_t parent_comm, std::uint64_t sequence,
                    int parent_size, int world_rank, int color, int key) {
    UniqueLock lock(split_mutex_);
    SplitTable& table = splits_[{parent_comm, sequence}];
    table.entries.push_back({world_rank, color, key});
    if (static_cast<int>(table.entries.size()) == parent_size) {
      // Deterministic grouping: sort by (color, key, world_rank); assign
      // one fresh comm id per color in ascending color order.
      auto entries = table.entries;
      std::sort(entries.begin(), entries.end(),
                [](const SplitEntry& a, const SplitEntry& b) {
                  return std::tie(a.color, a.key, a.world_rank) <
                         std::tie(b.color, b.key, b.world_rank);
                });
      std::uint64_t current_id = 0;
      int current_color = 0;
      bool first = true;
      std::vector<int> current_members;
      auto flush = [&] {
        for (std::size_t i = 0; i < current_members.size(); ++i) {
          table.results[current_members[i]] = {
              current_id, static_cast<int>(i), current_members};
        }
      };
      for (const auto& e : entries) {
        if (first || e.color != current_color) {
          if (!first) flush();
          current_id = new_comm_id();
          current_color = e.color;
          current_members.clear();
          first = false;
        }
        current_members.push_back(e.world_rank);
      }
      flush();
      table.ready = true;
      split_cv_.notify_all();
    } else {
      while (!aborted() && !table.ready) split_cv_.wait(lock);
      if (!table.ready) {
        throw AbortedError("split interrupted: cluster aborted by a peer");
      }
    }
    SplitResult result = table.results.at(world_rank);
    if (++table.retrieved == parent_size) {
      splits_.erase({parent_comm, sequence});
    }
    return result;
  }

  /// Job-abort semantics (MPI_Abort stand-in): wakes every blocked wait
  /// so rank threads unwind instead of deadlocking when a peer dies.
  void abort_job() {
    aborted_.store(true, std::memory_order_release);
    for (int i = 0; i < world_size_; ++i) {
      MutexLock lock(mailboxes_[i].mutex);
      mailboxes_[i].cv.notify_all();
    }
    {
      MutexLock lock(barrier_mutex_);
      barrier_cv_.notify_all();
    }
    {
      MutexLock lock(split_mutex_);
      split_cv_.notify_all();
    }
  }

  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  /// The n-th split() call this rank makes on a given communicator gets
  /// sequence n. split() is collective, so every member's n-th call lands
  /// in the same (comm, n) negotiation table; a shared counter would hand
  /// concurrent callers distinct sequences and deadlock the negotiation.
  std::uint64_t next_split_sequence(std::uint64_t comm_id, int world_rank) {
    MutexLock lock(split_mutex_);
    return split_sequences_[{comm_id, world_rank}]++;
  }

 private:
  using Key = std::tuple<std::uint64_t, int, int>;  // comm, src, tag

  struct Mailbox {
    Mutex mutex;
    CondVar cv;
    std::map<Key, std::deque<std::vector<float>>> queues
        PF15_GUARDED_BY(mutex);
  };

  struct RankIo {
    std::atomic<std::uint64_t> bytes_sent{0};
    std::atomic<std::uint64_t> bytes_recv{0};
    std::atomic<std::uint64_t> messages_sent{0};
    std::atomic<std::uint64_t> messages_recv{0};
  };

  struct BarrierState {
    int arrived = 0;
    std::uint64_t generation = 0;
  };

  struct SplitEntry {
    int world_rank;
    int color;
    int key;
  };

  struct SplitTable {
    std::vector<SplitEntry> entries;
    std::map<int, SplitResult> results;  // by world rank
    bool ready = false;
    int retrieved = 0;
  };

  int world_size_;
  std::unique_ptr<Mailbox[]> mailboxes_;
  std::unique_ptr<RankIo[]> io_;
  std::atomic<std::uint64_t> next_comm_id_{1};  // 0 = world

  std::atomic<bool> aborted_{false};

  Mutex barrier_mutex_;
  CondVar barrier_cv_;
  std::map<std::uint64_t, BarrierState> barriers_
      PF15_GUARDED_BY(barrier_mutex_);

  Mutex split_mutex_;
  CondVar split_cv_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, SplitTable> splits_
      PF15_GUARDED_BY(split_mutex_);
  std::map<std::pair<std::uint64_t, int>, std::uint64_t> split_sequences_
      PF15_GUARDED_BY(split_mutex_);
};

}  // namespace detail

Communicator::Communicator(std::shared_ptr<detail::Context> ctx,
                           std::uint64_t comm_id, int rank,
                           std::vector<int> members)
    : ctx_(std::move(ctx)),
      comm_id_(comm_id),
      rank_(rank),
      members_(std::move(members)) {}

namespace {

/// Registry mirrors of the per-rank wire counters. Hoisted statics: the
/// registry lookup is a mutex + map walk, the adds are sharded atomics.
void mirror_sent(std::size_t bytes) {
  using obs::MetricsRegistry;
  static obs::Counter& bytes_total = MetricsRegistry::global().counter(
      "pf15_comm_bytes_sent_total", "Payload bytes sent through comm");
  static obs::Counter& msgs_total = MetricsRegistry::global().counter(
      "pf15_comm_messages_total", "Point-to-point messages sent");
  static obs::Histogram& sizes = MetricsRegistry::global().histogram(
      "pf15_comm_message_bytes",
      obs::Histogram::exponential_bounds(64.0, 4.0, 10),
      "Message size distribution (payload bytes)");
  bytes_total.add(bytes);
  msgs_total.add(1);
  sizes.observe(static_cast<double>(bytes));
}

void mirror_recv(std::size_t bytes) {
  static obs::Counter& bytes_total =
      obs::MetricsRegistry::global().counter(
          "pf15_comm_bytes_recv_total",
          "Payload bytes received through comm");
  bytes_total.add(bytes);
}

}  // namespace

void Communicator::send(int dst, int tag, std::span<const float> data) {
  PF15_CHECK_MSG(dst >= 0 && dst < size(), "send: bad dst " << dst);
  const std::size_t bytes = data.size() * sizeof(float);
  ctx_->post(members_[static_cast<std::size_t>(dst)], comm_id_, rank_, tag,
             std::vector<float>(data.begin(), data.end()));
  ctx_->count_sent(world_rank(), bytes);
  mirror_sent(bytes);
}

std::vector<float> Communicator::recv(int src, int tag) {
  PF15_CHECK_MSG(src >= 0 && src < size(), "recv: bad src " << src);
  obs::TraceSpan span("comm_recv", "comm");
  std::vector<float> payload = ctx_->take(
      members_[static_cast<std::size_t>(rank_)], comm_id_, src, tag);
  const std::size_t bytes = payload.size() * sizeof(float);
  ctx_->count_recv(world_rank(), bytes);
  mirror_recv(bytes);
  return payload;
}

bool Communicator::probe(int src, int tag) {
  PF15_CHECK(src >= 0 && src < size());
  return ctx_->peek(members_[static_cast<std::size_t>(rank_)], comm_id_,
                    src, tag);
}

void Communicator::barrier() { ctx_->barrier(comm_id_, size()); }

namespace {
// Internal tags for collectives live in a high range; user tags collide
// with neither these nor each other.
constexpr int kTagAllReduce = 1 << 24;
constexpr int kTagBroadcast = 2 << 24;
constexpr int kTagReduce = 3 << 24;
constexpr int kTagGather = 4 << 24;

void add_into(std::span<float> dst, const std::vector<float>& src) {
  PF15_CHECK(dst.size() == src.size());
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] += src[i];
}
}  // namespace

void Communicator::allreduce_sum(std::span<float> data, AllReduceAlgo algo) {
  const int g = size();
  if (g == 1) return;
  obs::TraceSpan trace("comm_allreduce", "comm");
  const int r = rank_;

  switch (algo) {
    case AllReduceAlgo::kRing: {
      // Bandwidth-optimal ring: g-1 scatter-reduce steps followed by g-1
      // all-gather steps over g contiguous chunks.
      const std::size_t n = data.size();
      auto chunk_begin = [&](int c) {
        return (n * static_cast<std::size_t>(c)) /
               static_cast<std::size_t>(g);
      };
      auto chunk = [&](int c) -> std::span<float> {
        c = ((c % g) + g) % g;
        return data.subspan(chunk_begin(c),
                            chunk_begin(c + 1) - chunk_begin(c));
      };
      const int next = (r + 1) % g;
      const int prev = (r - 1 + g) % g;
      for (int step = 0; step < g - 1; ++step) {
        auto out = chunk(r - step);
        send(next, kTagAllReduce + step,
             std::span<const float>(out.data(), out.size()));
        auto in = chunk(r - step - 1);
        add_into(in, recv(prev, kTagAllReduce + step));
      }
      for (int step = 0; step < g - 1; ++step) {
        auto out = chunk(r - step + 1);
        send(next, kTagAllReduce + g + step,
             std::span<const float>(out.data(), out.size()));
        auto in = chunk(r - step);
        const std::vector<float> incoming =
            recv(prev, kTagAllReduce + g + step);
        PF15_CHECK(incoming.size() == in.size());
        std::copy(incoming.begin(), incoming.end(), in.begin());
      }
      return;
    }

    case AllReduceAlgo::kRecursiveDoubling: {
      // Handle non-powers-of-two by folding the `rem` extra ranks into
      // their lower partners first, then unfolding at the end.
      int p2 = 1;
      while (p2 * 2 <= g) p2 *= 2;
      const int rem = g - p2;
      int my_id = -1;  // id within the power-of-two core, -1 = folded out
      if (r < 2 * rem) {
        if (r % 2 == 0) {
          send(r + 1, kTagAllReduce, std::span<const float>(data));
        } else {
          add_into(data, recv(r - 1, kTagAllReduce));
          my_id = r / 2;
        }
      } else {
        my_id = r - rem;
      }
      if (my_id >= 0) {
        auto core_to_rank = [&](int id) {
          return id < rem ? 2 * id + 1 : id + rem;
        };
        for (int mask = 1; mask < p2; mask <<= 1) {
          const int partner = core_to_rank(my_id ^ mask);
          send(partner, kTagAllReduce + mask,
               std::span<const float>(data));
          add_into(data, recv(partner, kTagAllReduce + mask));
        }
      }
      // Important subtlety: after the exchange rounds every core rank
      // holds 2^k * the chunk sums — but since each exchange *adds* the
      // partner's current buffer, the result is already the full sum.
      if (r < 2 * rem) {
        if (r % 2 == 1) {
          send(r - 1, kTagAllReduce + (p2 << 1),
               std::span<const float>(data));
        } else {
          const std::vector<float> final_data =
              recv(r + 1, kTagAllReduce + (p2 << 1));
          std::copy(final_data.begin(), final_data.end(), data.begin());
        }
      }
      return;
    }

    case AllReduceAlgo::kTree: {
      reduce_sum(data, 0);
      broadcast(data, 0);
      return;
    }
  }
}

void Communicator::broadcast(std::span<float> data, int root) {
  const int g = size();
  if (g == 1) return;
  obs::TraceSpan trace("comm_broadcast", "comm");
  // Binomial tree rooted at `root`, via rank rotation.
  const int vrank = (rank_ - root + g) % g;
  int mask = 1;
  while (mask < g) {
    if (vrank < mask) {
      const int child = vrank + mask;
      if (child < g) {
        send((child + root) % g, kTagBroadcast + mask,
             std::span<const float>(data));
      }
    } else if (vrank < 2 * mask) {
      const int parent = vrank - mask;
      const std::vector<float> incoming =
          recv((parent + root) % g, kTagBroadcast + mask);
      PF15_CHECK(incoming.size() == data.size());
      std::copy(incoming.begin(), incoming.end(), data.begin());
    }
    mask <<= 1;
  }
}

void Communicator::reduce_sum(std::span<float> data, int root) {
  const int g = size();
  if (g == 1) return;
  obs::TraceSpan trace("comm_reduce", "comm");
  const int vrank = (rank_ - root + g) % g;
  // Binomial reduction: mirror of broadcast, children send up.
  int mask = 1;
  while (mask < g) mask <<= 1;
  for (mask >>= 1; mask >= 1; mask >>= 1) {
    if (vrank < mask) {
      const int child = vrank + mask;
      if (child < g) {
        add_into(data, recv((child + root) % g, kTagReduce + mask));
      }
    } else if (vrank < 2 * mask) {
      const int parent = vrank - mask;
      send((parent + root) % g, kTagReduce + mask,
           std::span<const float>(data));
      break;  // once sent, this rank is done
    }
  }
}

std::vector<float> Communicator::gather(std::span<const float> data,
                                        int root) {
  obs::TraceSpan trace("comm_gather", "comm");
  if (rank_ != root) {
    send(root, kTagGather, data);
    return {};
  }
  std::vector<float> out;
  out.reserve(data.size() * static_cast<std::size_t>(size()));
  for (int src = 0; src < size(); ++src) {
    if (src == root) {
      out.insert(out.end(), data.begin(), data.end());
    } else {
      const std::vector<float> part = recv(src, kTagGather);
      PF15_CHECK_MSG(part.size() == data.size(),
                     "gather: ragged contribution from rank " << src);
      out.insert(out.end(), part.begin(), part.end());
    }
  }
  return out;
}

IoStats Communicator::io_stats() const { return ctx_->io_stats(world_rank()); }

double Communicator::clock_offset_us(int root, int rounds) {
  PF15_CHECK_MSG(root >= 0 && root < size(),
                 "clock_offset_us: bad root " << root);
  PF15_CHECK_MSG(rounds >= 1, "clock_offset_us: rounds must be >= 1");
  // Mailboxes carry floats (24-bit mantissa) but trace timestamps need
  // sub-µs precision over a process lifetime, so the root's sample rides
  // as (hi, lo): hi = floor(t / 2^16) and a remainder < 2^16 that a float
  // holds to ~4 ns. Exact until the process is ~2^40 µs (~12 days) old.
  std::vector<double> offsets;
  offsets.reserve(static_cast<std::size_t>(rounds));
  for (int round = 0; round < rounds; ++round) {
    barrier();
    // Both sides sample immediately after barrier release: the skew
    // between the samples is what this handshake measures.
    const double local_us = obs::trace_now_us();
    float packed[2] = {0.0f, 0.0f};
    if (rank_ == root) {
      const double hi = std::floor(local_us / 65536.0);
      packed[0] = static_cast<float>(hi);
      packed[1] = static_cast<float>(local_us - hi * 65536.0);
    }
    broadcast(std::span<float>(packed, 2), root);
    const double root_us = static_cast<double>(packed[0]) * 65536.0 +
                           static_cast<double>(packed[1]);
    offsets.push_back(root_us - local_us);
  }
  if (rank_ == root) return 0.0;  // by definition, regardless of noise
  const std::size_t mid = offsets.size() / 2;
  std::nth_element(offsets.begin(), offsets.begin() + mid, offsets.end());
  return offsets[mid];
}

Communicator Communicator::split(int color, int key) {
  const std::uint64_t seq = ctx_->next_split_sequence(
      comm_id_, members_[static_cast<std::size_t>(rank_)]);
  const auto result =
      ctx_->split(comm_id_, seq, size(),
                  members_[static_cast<std::size_t>(rank_)], color, key);
  return Communicator(ctx_, result.comm_id, result.rank, result.members);
}

Cluster::Cluster(int world_size)
    : world_size_(world_size),
      ctx_(std::make_shared<detail::Context>(world_size)) {
  PF15_CHECK(world_size >= 1);
}

Cluster::~Cluster() = default;

void Cluster::run(const std::function<void(Communicator&)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(world_size_));
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(world_size_));
  std::vector<int> world_members(static_cast<std::size_t>(world_size_));
  for (int i = 0; i < world_size_; ++i) world_members[i] = i;
  for (int r = 0; r < world_size_; ++r) {
    threads.emplace_back([&, r] {
      try {
        Communicator comm(ctx_, /*comm_id=*/0, r, world_members);
        fn(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        // Wake every peer blocked in recv/barrier/split; a hung job is
        // strictly worse than a loudly failed one.
        ctx_->abort_job();
      }
    });
  }
  for (auto& t : threads) t.join();
  // Rethrow the root cause: a rank's own exception, not the secondary
  // "aborted by a peer" unwinds it triggered elsewhere.
  std::exception_ptr secondary;
  for (const auto& e : errors) {
    if (!e) continue;
    try {
      std::rethrow_exception(e);
    } catch (const AbortedError&) {
      if (!secondary) secondary = e;
    } catch (...) {
      std::rethrow_exception(e);
    }
  }
  if (secondary) std::rethrow_exception(secondary);
}

}  // namespace pf15::comm
