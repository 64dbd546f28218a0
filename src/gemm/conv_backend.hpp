// Runtime convolution-backend dispatch + autotune plan cache.
//
// The paper's sustained-PF claim rests on convolution being the dominant
// hot path of both networks (§V) — and it is a *training* claim, so the
// backward convolutions (data and filter gradients, roughly two thirds of
// the FLOPs) matter as much as forward. This module turns the one-off
// kernels into a subsystem: every convolution algorithm implements the
// ConvBackend interface for three phases (forward, backward-data,
// backward-filter, the cuDNN-style per-op-phase split), registers in a
// process-wide table, and a plan cache micro-benchmarks the applicable
// backends the first time a (problem, phase) is seen, remembering the
// winner. Layers ask for a plan per phase instead of hardcoding a
// lowering; benches and the tune::Space integration sweep the same table.
//
// Backends are serial: every entry point computes one image on the
// calling thread and never fans out. Parallelism comes from the callers'
// image loops (Conv2d/Deconv2d forward and backward, the compiled plan's
// conv nodes), so a backend is timed, tuned and run the same way.
//
// Plans persist: ConvPlanCache has a versioned on-disk JSON format
// (save/load with a header carrying the cache version and a hardware
// signature), and the global cache auto-loads it at startup and writes it
// back at exit (path from $PF15_CONV_PLAN_CACHE, default
// "pf15_conv_plans.json"; set the variable to "off" to disable), so
// training and serving stop paying first-sight tuning on every run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"
#include "gemm/im2col.hpp"

namespace pf15::gemm {

/// Identity of a convolution algorithm in the dispatch table. Values are
/// stable (they appear in perf records, plan-cache files and tune::Space
/// encodings). Values 2 and 3 belonged to removed FFT and direct-loop
/// backends and stay unused, so 0, 1 and 4 keep their meaning.
enum class ConvBackendKind : int {
  kIm2col = 0,    // lowering + GEMM, the always-applicable reference
  kWinograd = 1,  // F(2x2,3x3)/F(4x4,3x3): 3x3 stride-1 only
  // s² stride-1 (k/s)x(k/s) convolutions on the low-resolution side
  // (gemm/subpixel.hpp): stride s >= 2 with k = 2p + s, s | p and input
  // sides divisible by s — the climate decoder's 6x6/2 pad-2 deconvs.
  kSubpixel = 4,
};

/// The three convolution operations of a training step. Each phase tunes
/// and dispatches independently (the cuDNN model: the best forward
/// algorithm is routinely not the best backward one).
enum class ConvPhase : int {
  kForward = 0,
  kBackwardData = 1,    // dX from dY and W
  kBackwardFilter = 2,  // dW from X and dY
};

/// Stable lower-case name ("im2col", "winograd", "subpixel").
const char* to_string(ConvBackendKind kind);
/// Inverse of to_string; nullopt for unknown names.
std::optional<ConvBackendKind> parse_backend(const std::string& name);

/// Stable name ("forward", "backward_data", "backward_filter").
const char* to_string(ConvPhase phase);
/// Inverse of to_string; nullopt for unknown names.
std::optional<ConvPhase> parse_phase(const std::string& name);

/// All phases, in enum order — for sweeps.
inline constexpr ConvPhase kAllConvPhases[] = {
    ConvPhase::kForward, ConvPhase::kBackwardData,
    ConvPhase::kBackwardFilter};

/// One per-image convolution problem: geometry plus the filter count.
/// This is the plan-cache key — bias presence does not affect algorithm
/// choice and is deliberately excluded.
struct ConvProblem {
  ConvGeom geom;
  std::size_t out_c = 0;

  /// Strict-weak order over every field that affects algorithm choice.
  bool operator<(const ConvProblem& other) const;
  bool operator==(const ConvProblem& other) const;
};

/// Opaque weight-derived state shared by many forward() or
/// backward_data() calls over one (problem, weights) pair — e.g.
/// Winograd's transformed filter bank U, im2col's filter matrix packed
/// into sgemm's panels or sub-pixel's rearranged filters, which depend
/// only on the weights and would otherwise be rebuilt per image inside a
/// batch loop. Produced by ConvBackend::prepare_forward /
/// prepare_backward_data on the caller's thread, consumed read-only by
/// the *_prepared entry points (safe to share across pool threads).
class ConvPrep {
 public:
  virtual ~ConvPrep() = default;
};

/// A convolution algorithm. Implementations are stateless and immutable
/// after registration; per-call scratch lives in thread-local storage so
/// one backend instance can serve a batch-parallel loop. Every entry
/// point runs serially on the calling thread.
class ConvBackend {
 public:
  virtual ~ConvBackend() = default;

  virtual ConvBackendKind kind() const = 0;
  const char* name() const { return to_string(kind()); }

  /// Whether this algorithm can compute `p` in `phase` (e.g. Winograd is
  /// 3x3 stride-1 only, and declines backward-data at pad > 2).
  virtual bool applicable(const ConvProblem& p,
                          ConvPhase phase = ConvPhase::kForward) const = 0;

  /// One image forward: image (C,H,W) -> out (OC,OH,OW), `bias` may be
  /// null.
  virtual void forward(const ConvProblem& p, const float* image,
                       const float* weight, const float* bias,
                       float* out) const = 0;

  /// Hoists weight-only work (filter transforms, filter packing) out of
  /// a batch loop. Every backend builds a prep.
  virtual std::unique_ptr<ConvPrep> prepare_forward(
      const ConvProblem& p, const float* weight) const = 0;

  /// forward() that consumes `prep` from this backend's prepare_forward on
  /// the same problem and weights. Null is allowed and means "no prep":
  /// the call then works from `weight` alone, as forward() does.
  virtual void forward_prepared(const ConvProblem& p, const ConvPrep* prep,
                                const float* image, const float* weight,
                                const float* bias, float* out) const = 0;

  /// One image data gradient: dout (OC,OH,OW) and weight -> din (C,H,W).
  /// Overwrite semantics: the backend fully computes the din image.
  /// Only valid when applicable(p, kBackwardData).
  virtual void backward_data(const ConvProblem& p, const float* dout,
                             const float* weight, float* din) const = 0;

  /// Hoists weight-only backward-data work out of a batch loop (e.g.
  /// Winograd's rotated, channel-transposed filter bank and its
  /// transform). Only valid when applicable(p, kBackwardData).
  virtual std::unique_ptr<ConvPrep> prepare_backward_data(
      const ConvProblem& p, const float* weight) const = 0;

  /// backward_data() that consumes `prep` from this backend's
  /// prepare_backward_data on the same problem and weights; null is
  /// allowed and means "no prep", as for forward_prepared.
  virtual void backward_data_prepared(const ConvProblem& p,
                                      const ConvPrep* prep,
                                      const float* dout, const float* weight,
                                      float* din) const = 0;

  /// One image filter gradient: image and dout -> dweight
  /// (OC,C,KH,KW), *accumulated* (+=) so a batch loop sums over images.
  /// Only valid when applicable(p, kBackwardFilter).
  virtual void backward_filter(const ConvProblem& p, const float* image,
                               const float* dout, float* dweight) const = 0;

  /// Analytic per-image FLOP count for `phase` (§V accounting: one
  /// multiply-add is two FLOPs).
  virtual std::uint64_t flops(const ConvProblem& p,
                              ConvPhase phase = ConvPhase::kForward) const = 0;
};

/// The registered backend for `kind`. Never null; registration happens at
/// static-init-free first use.
const ConvBackend& backend(ConvBackendKind kind);

/// All registered backends, in ConvBackendKind order.
const std::vector<const ConvBackend*>& all_backends();

/// The subset of all_backends() whose applicable(p, phase) holds, same
/// order.
std::vector<const ConvBackend*> applicable_backends(
    const ConvProblem& p, ConvPhase phase = ConvPhase::kForward);

/// Knobs of the first-sight micro-benchmark.
struct AutotuneOptions {
  std::size_t warmup = 1;  // untimed runs per candidate
  std::size_t reps = 3;    // timed runs; the minimum is kept
  /// Seed for the synthetic operands the candidates are timed on; mixed
  /// with the problem geometry and phase so every problem sees the same
  /// data across runs (deterministic tuning inputs).
  std::uint64_t seed = 0x9f15c0deULL;
};

/// Measured per-image wall microseconds of `b` on `p` in `phase` (min
/// over reps, deterministic synthetic operands), run serially on the
/// calling thread as the layers' image tasks run it: forward and
/// backward-data time the prepared entry points against a prep built
/// once, outside the timed loop, as layers build one per batch.
double benchmark_backend(const ConvBackend& b, const ConvProblem& p,
                         const AutotuneOptions& opt = {},
                         ConvPhase phase = ConvPhase::kForward);

/// The remembered winner for one (problem, phase).
struct ConvPlan {
  ConvBackendKind kind = ConvBackendKind::kIm2col;
  double best_us = 0.0;    // winner's measured per-image microseconds
  double im2col_us = 0.0;  // im2col reference measured in the same sweep
  bool tuned = false;      // true: micro-benchmarked; false: forced/default
};

/// Races every applicable backend on `p` in the given phase and returns
/// the fastest. im2col is always among the candidates, so the winner is
/// never slower than the reference as measured.
ConvPlan autotune(const ConvProblem& p, const AutotuneOptions& opt = {},
                  ConvPhase phase = ConvPhase::kForward);

/// On-disk plan-cache format version; bumped whenever the schema or the
/// meaning of a field changes. Files with a different version are
/// rejected (and re-tuned from scratch). v2 added the batch bucket;
/// v3 added the SIMD tier ("isa") to the hardware signature; v4 dropped
/// the "fft" backend; v5 added the "subpixel" candidate, so plans raced
/// without it re-tune instead of pinning im2col on stride-2 deconvs; v6
/// dropped the execution-mode and batch-bucket keys, so plans timed with
/// backend fan-out re-tune serially. Removing the "direct" backend kept
/// v6: a stored plan naming it fails parse_backend by name and re-tunes,
/// and no other stored winner changes when a losing candidate leaves.
inline constexpr int kConvPlanCacheVersion = 6;

/// Process-wide memo of autotune() results, keyed by (ConvProblem,
/// phase). Thread safe; the first thread to see a key pays the tuning
/// cost *outside* the cache lock (an in-flight set dedupes concurrent
/// first sights), so hits never wait behind a miss being tuned. insert()
/// lets callers (tests, the tune::Space driver, operators forcing a
/// layout) override a plan.
///
/// save()/load() give the cache a versioned on-disk JSON format whose
/// header records the format name, kConvPlanCacheVersion and a hardware
/// signature; load() rejects corrupt or mismatched files with IoError.
/// The global() instance auto-loads at first use and saves at process
/// exit (see ConvPlanCache::persist_path()).
class ConvPlanCache {
 public:
  explicit ConvPlanCache(AutotuneOptions opt = {}) : opt_(opt) {}

  static ConvPlanCache& global();

  /// The persistence path of the global cache: $PF15_CONV_PLAN_CACHE when
  /// set, else "pf15_conv_plans.json" in the working directory. Empty
  /// when persistence is disabled ($PF15_CONV_PLAN_CACHE set to "" ,
  /// "off" or "0").
  static std::string persist_path();

  /// The plan for `p` in `phase`, tuning on first sight. autotune()
  /// times one image, so the batch a layer runs never enters the key.
  ConvPlan plan(const ConvProblem& p, ConvPhase phase = ConvPhase::kForward);

  /// The cached plan, if any — never tunes.
  std::optional<ConvPlan> lookup(const ConvProblem& p,
                                 ConvPhase phase = ConvPhase::kForward) const;

  /// Forces the forward plan for `p`.
  void insert(const ConvProblem& p, const ConvPlan& plan);
  /// Forces the plan for `p` in `phase`.
  void insert(const ConvProblem& p, ConvPhase phase, const ConvPlan& plan);

  /// Writes every *tuned* cached plan to `path` (atomically: temp file +
  /// rename), first merging in any valid plans already stored there, so
  /// concurrent processes sharing a path accumulate measurements instead
  /// of overwriting each other (this cache's entries win per key).
  /// insert() overrides are per-process decisions, not measurements, and
  /// are deliberately not persisted: a later process must not inherit a
  /// forced backend as if it had won a race. Throws IoError on I/O
  /// failure.
  void save(const std::string& path) const;

  /// Merges the plans stored at `path` into this cache; entries already
  /// in memory win (they are this process's freshest measurements or
  /// explicit overrides). Throws IoError when the file cannot be read,
  /// is not a plan-cache document, carries a different format version,
  /// or was recorded under a different hardware signature — the cache is
  /// left untouched in every failure case.
  void load(const std::string& path);

  /// Renders every tuned plan as the same JSON document save() writes —
  /// without the disk merge. This is the payload checkpoints embed so a
  /// cold serving process starts with warm plans.
  std::string dump() const;

  /// Merges a dump()/save() document into this cache with the same
  /// validation and precedence as load(); `origin` names the source in
  /// error messages.
  void load_document(const std::string& text,
                     const std::string& origin = "<document>");

  void clear();
  std::size_t size() const;
  /// Entries that came from a real micro-benchmark (what save() writes).
  std::size_t tuned_size() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  const AutotuneOptions& options() const { return opt_; }

 private:
  using Key = std::pair<ConvProblem, ConvPhase>;

  mutable Mutex mutex_;
  CondVar tuning_cv_;
  std::map<Key, ConvPlan> plans_ PF15_GUARDED_BY(mutex_);
  /// insert() overrides, consulted before plans_ and never persisted.
  std::map<Key, ConvPlan> overrides_ PF15_GUARDED_BY(mutex_);
  /// Keys being autotuned right now.
  std::set<Key> tuning_ PF15_GUARDED_BY(mutex_);
  AutotuneOptions opt_;
  std::uint64_t hits_ PF15_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ PF15_GUARDED_BY(mutex_) = 0;
};

}  // namespace pf15::gemm
