/// \file busy_window.cpp
/// Data-oriented busy-window kernel (PR 7).
///
/// The public semantics are unchanged from the pre-flattening
/// implementation (preserved in oracles/busy_window_reference.cpp as
/// the bit-identity oracle); what changed is how the Eq. (1) right-hand
/// side is evaluated:
///  * every interfering chain is flattened once per analysis into an
///    InterfererRow — a handful of scalars plus a pointer to its flat
///    ArrivalTable — so the fixed-point loop is a branch-light scan over
///    a contiguous array with no virtual dispatch and no per-iteration
///    exclude-list lookups;
///  * the K_b search warm-starts each q's Kleene iteration at B(q-1):
///    Eq. (1)'s rhs is pointwise nondecreasing in q (the self term drops
///    by at most C_header <= C_b per activation), so B(q) >= B(q-1) and
///    iterating from max(q*C_b, B(q-1)) reaches the same least fixed
///    point in far fewer steps;
///  * BusyTimeTerm labels are rendered lazily (BusyTimeTerm::label) —
///    the analysis allocates no diagnostic strings;
///  * a K_b search that has not closed after kCertifyAfter activations
///    asks for a divergence certificate: when the long-run load Eq. (1)
///    charges is provably above 1, it stops short of the cap with an
///    unbounded result that names that load.  The reference always runs
///    to the cap; classifications and bounded results stay identical.
/// The kernel itself allocates only at construction (the row array);
/// every fixed-point iteration is allocation-free.

#include "core/busy_window.hpp"

#include <algorithm>
#include <utility>

#include "util/expect.hpp"
#include "util/strings.hpp"

namespace wharf {

namespace {

/// One interfering chain of Eq. (1)/(3)/(4), flattened to the scalars
/// the kernel loop reads:
///  * arbitrarily interfering (or naive): eta x C_a          (has_eta)
///  * deferred async: eta x C_header + sum of segment costs  (has_eta)
///  * deferred sync:  critical-segment cost only             (!has_eta)
struct InterfererRow {
  int chain = -1;            ///< index of sigma_a in the system
  bool has_eta = false;      ///< the term contains an eta+ factor
  bool deferred = false;     ///< Def. 2 classification (for labels)
  bool overload = false;     ///< skipped by the typical bound (Eq. 4)
  Time unit_cost = 0;        ///< multiplied by eta+(window)
  Time constant_cost = 0;    ///< window-independent part
  const ArrivalTable* table = nullptr;  ///< flat curve (null: hand-built ctx)
  const ArrivalModel* model = nullptr;  ///< virtual fallback (never null)
};

/// eta+ of a row through its flat table when present (bit-identical to
/// the model; see arrival_table.hpp).
Count row_eta(const InterfererRow& row, Time window) {
  return row.table != nullptr ? row.table->eta_plus(window) : row.model->eta_plus(window);
}

using Wide = __int128;

/// Exact 128-bit arithmetic that remembers whether any step overflowed;
/// results are meaningless once overflowed() is true.
class CheckedWide {
 public:
  Wide add(Wide a, Wide b) {
    Wide r = 0;
    if (__builtin_add_overflow(a, b, &r)) overflowed_ = true;
    return r;
  }
  Wide sub(Wide a, Wide b) {
    Wide r = 0;
    if (__builtin_sub_overflow(a, b, &r)) overflowed_ = true;
    return r;
  }
  Wide mul(Wide a, Wide b) {
    Wide r = 0;
    if (__builtin_mul_overflow(a, b, &r)) overflowed_ = true;
    return r;
  }
  /// Least common multiple of two positive values.
  Wide lcm(Wide a, Wide b) { return mul(a / gcd(a, b), b); }
  [[nodiscard]] bool overflowed() const { return overflowed_; }

  static Wide gcd(Wide a, Wide b) {
    while (b != 0) a = std::exchange(b, a % b);
    return a;
  }

 private:
  bool overflowed_ = false;
};

/// Decimal rendering of a non-negative Wide (the streams cannot print one).
std::string wide_string(Wide v) {
  std::string digits;
  do {
    digits.push_back(static_cast<char>('0' + static_cast<int>(v % 10)));
    v /= 10;
  } while (v > 0);
  return {digits.rbegin(), digits.rend()};
}

/// Linear envelope of a flat delta_minus curve:
///   block * delta_minus(q) <= q * span + slack   for every q >= 1,
/// with the tightest slack.  Past the dense prefix, q = r + m * block for
/// a dense anchor r and delta_minus(q) = delta_minus(r) + m * span, so
/// block * delta_minus(q) - q * span equals its value at r: the maximum
/// over the prefix bounds the whole curve.  It also bounds eta+ from
/// below: eta+(w) >= (block * w - slack - span) / span for w >= 0.
struct CurveEnvelope {
  Wide block = 1;
  Wide span = 1;
  Wide slack = 0;
};

std::optional<CurveEnvelope> envelope_of(const ArrivalTable* table) {
  if (table == nullptr || !table->flat()) return std::nullopt;
  // r = 1 contributes -span: delta_minus(1) = 0.
  CurveEnvelope env{table->block(), table->span(), -Wide{table->span()}};
  const std::vector<Time>& prefix = table->dense_prefix();
  for (std::size_t i = 1; i < prefix.size(); ++i) {
    const Wide r = static_cast<Wide>(i) + 1;
    env.slack = std::max(env.slack, env.block * prefix[i] - r * env.span);
  }
  return env;
}

/// Proof that the busy window never closes from activation `from_q` on,
/// because the long-run load Eq. (1) charges, load_num / load_den, is
/// above 1 (see BusyWindowKernel::divergence_certificate).
struct DivergenceCertificate {
  Count from_q = 1;
  Wide load_num = 0;
  Wide load_den = 1;
};

/// The K_b search asks for a divergence certificate once it has run this
/// many activations without the window closing, so searches that close
/// earlier (nearly all of them) never pay for it.
constexpr Count kCertifyAfter = 64;

/// Flat evaluator of the Eq. (1)/(3)/(4) right-hand sides for one
/// (target, exclude set) pair.  Built once per analysis; all hot-path
/// methods are allocation-free.  Borrows the context and options — both
/// must outlive the kernel (they do: kernels are function-local).
class BusyWindowKernel {
 public:
  BusyWindowKernel(const System& system, const InterferenceContext& ctx,
                   const AnalysisOptions& options, const std::vector<int>& exclude)
      : options_(options), target_(ctx.target) {
    const Chain& b = system.chain(ctx.target);
    target_cost_ = b.total_wcet();
    self_model_ = &b.arrival();
    self_table_ = ctx.self_table.get();
    // A zero cost disables the self term, exactly like the synchronous /
    // empty-header cases of self_interference() in the reference path.
    self_header_cost_ = b.is_asynchronous() ? ctx.self_header_cost : 0;
    rows_.reserve(ctx.others.size());
    for (const ChainInterference& info : ctx.others) {
      if (std::find(exclude.begin(), exclude.end(), info.chain) != exclude.end()) continue;
      const Chain& a = system.chain(info.chain);
      InterfererRow row;
      row.chain = info.chain;
      row.deferred = info.deferred;
      row.overload = a.is_overload();
      row.table = info.table.get();
      row.model = &a.arrival();
      if (options.naive_arbitrary || !info.deferred) {
        row.has_eta = true;
        row.unit_cost = a.total_wcet();
      } else if (a.is_asynchronous()) {
        row.has_eta = true;
        row.unit_cost = info.header_segment_cost;
        row.constant_cost = info.segments_total_cost;
      } else {
        row.constant_cost = info.critical ? info.critical->cost : 0;
      }
      rows_.push_back(row);
    }
  }

  /// Right-hand side of Eq. (1) at busy-time guess `window`
  /// (`skip_overload` additionally drops overload chains — Eq. (4)).
  [[nodiscard]] Time rhs(Count q, Time window, bool skip_overload = false) const {
    Time total = sat_mul(q, target_cost_);
    total = sat_add(total, self_term(q, window));
    for (const InterfererRow& row : rows_) {
      if (skip_overload && row.overload) continue;
      total = sat_add(total, term_of(row, window));
    }
    return total;
  }

  /// Least fixed point of rhs(q, .) + extra_constant, Kleene-iterated
  /// from max(q*C_b + extra_constant, warm_start).  Pass warm_start 0
  /// for the reference-identical cold start, or B(q-1) to warm-start
  /// the K_b search (same fixed point, fewer iterations — see the file
  /// comment).  nullopt on divergence (guard or iteration cap).
  [[nodiscard]] std::optional<Time> fixed_point(Count q, Time warm_start,
                                               Time extra_constant = 0) const {
    Time current = std::max(sat_add(sat_mul(q, target_cost_), extra_constant), warm_start);
    for (int iter = 0; iter < options_.max_fixed_point_iterations; ++iter) {
      const Time next = sat_add(rhs(q, current), extra_constant);
      if (next >= options_.divergence_guard || is_infinite(next)) return std::nullopt;
      if (next == current) return current;
      WHARF_ASSERT(next > current);  // monotone iteration
      current = next;
    }
    return std::nullopt;  // iteration cap: treat as divergent
  }

  /// delta_minus of the analyzed chain (flat table when available).
  [[nodiscard]] Time self_delta_minus(Count q) const {
    return self_table_ != nullptr ? self_table_->delta_minus(q) : self_model_->delta_minus(q);
  }

  /// Proof that the K_b search may stop: from activation from_q on, the
  /// busy window provably never closes.  nullopt when it cannot decide:
  /// the charged load is at most 1, a curve with an eta+ factor is not
  /// flat, the exact arithmetic overflows, or from_q lies beyond the
  /// search cap.
  ///
  /// Suppose the window closed at q: B = B(q) <= D = delta_minus_b(q+1).
  /// Then eta_b(B) <= q, so the async self term vanishes, and dropping
  /// the constant costs of Eq. (1) and the eta+ lower bound of each
  /// CurveEnvelope leave
  ///   B >= q*C_b + sum_a u_a * (block_a*B - slack_a - span_a) / span_a.
  /// Over the common denominator P of all spans, with
  ///   N_o = P * sum_a u_a * block_a / span_a   (the others' load, times P),
  ///   W   = P * sum_a u_a * (slack_a + span_a) / span_a,
  /// this reads (P - N_o)*B >= P*q*C_b - W.  With E = max(0, P - N_o),
  /// B <= D and block_b*D <= (q+1)*span_b + slack_b it gives
  ///   q * (block_b*P*C_b - E*span_b) <= E*(span_b + slack_b) + block_b*W.
  /// The factor on q is span_b*(N - P) when E = P - N_o, where
  /// N = N_o + P*C_b*block_b/span_b is the charged load times P, so it is
  /// positive exactly when N/P > 1; every larger q contradicts closing.
  [[nodiscard]] std::optional<DivergenceCertificate> divergence_certificate() const {
    const std::optional<CurveEnvelope> self = envelope_of(self_table_);
    if (!self.has_value()) return std::nullopt;
    struct ChargedRow {
      Wide unit_cost;
      CurveEnvelope env;
    };
    std::vector<ChargedRow> charged;
    charged.reserve(rows_.size());
    CheckedWide x;
    Wide den = self->span;  // P
    for (const InterfererRow& row : rows_) {
      if (!row.has_eta || row.unit_cost == 0) continue;  // no long-run load
      const std::optional<CurveEnvelope> env = envelope_of(row.table);
      if (!env.has_value()) return std::nullopt;
      den = x.lcm(den, env->span);
      charged.push_back(ChargedRow{row.unit_cost, *env});
    }
    Wide others = 0;  // N_o
    Wide offset = 0;  // W
    for (const ChargedRow& row : charged) {
      const Wide scale = den / row.env.span;
      others = x.add(others, x.mul(x.mul(row.unit_cost, row.env.block), scale));
      offset = x.add(offset, x.mul(x.mul(row.unit_cost, row.env.slack + row.env.span), scale));
    }
    const Wide load = x.add(others, x.mul(x.mul(target_cost_, self->block), den / self->span));
    const Wide room = std::max<Wide>(0, x.sub(den, others));  // E
    const Wide factor =
        x.sub(x.mul(x.mul(self->block, den), target_cost_), x.mul(room, self->span));
    const Wide bound =
        x.add(x.mul(room, self->span + self->slack), x.mul(self->block, offset));
    if (x.overflowed() || load <= den || factor <= 0) return std::nullopt;
    const Wide from_q = bound / factor + 1;
    if (from_q > options_.max_busy_windows) return std::nullopt;
    const Wide common = CheckedWide::gcd(load, den);
    return DivergenceCertificate{static_cast<Count>(from_q), load / common, den / common};
  }

  /// Itemization of rhs(q, busy) as structured terms (zero amounts are
  /// skipped, like the reference breakdown).
  [[nodiscard]] std::vector<BusyTimeTerm> breakdown(Count q, Time busy) const {
    std::vector<BusyTimeTerm> terms;
    terms.push_back(
        BusyTimeTerm{BusyTimeTerm::Kind::kDemand, target_, q, sat_mul(q, target_cost_)});
    const Time self = self_term(q, busy);
    if (self > 0) {
      terms.push_back(BusyTimeTerm{BusyTimeTerm::Kind::kSelfHeader, target_, q, self});
    }
    for (const InterfererRow& row : rows_) {
      const Time amount = term_of(row, busy);
      if (amount == 0) continue;
      BusyTimeTerm::Kind kind = BusyTimeTerm::Kind::kArbitrary;
      if (!options_.naive_arbitrary && row.deferred) {
        kind = row.has_eta ? BusyTimeTerm::Kind::kDeferredAsync
                           : BusyTimeTerm::Kind::kDeferredSync;
      }
      terms.push_back(BusyTimeTerm{kind, row.chain, q, amount});
    }
    return terms;
  }

 private:
  /// Self-interference of an asynchronous analyzed chain (2nd line of
  /// Eq. 1): activations beyond the q under analysis may run up to the
  /// chain's own header subchain before stalling at its lowest-priority
  /// task.
  [[nodiscard]] Time self_term(Count q, Time window) const {
    if (self_header_cost_ == 0) return 0;
    const Count eta =
        self_table_ != nullptr ? self_table_->eta_plus(window) : self_model_->eta_plus(window);
    if (eta == kCountInfinity) return kTimeInfinity;
    const Count extra = std::max<Count>(0, eta - q);
    return sat_mul(extra, self_header_cost_);
  }

  /// One row's contribution at `window`.  An unbounded eta makes the
  /// term infinite regardless of cost, matching the reference path.
  [[nodiscard]] static Time term_of(const InterfererRow& row, Time window) {
    if (!row.has_eta) return row.constant_cost;
    const Count eta = row_eta(row, window);
    if (eta == kCountInfinity) return kTimeInfinity;
    return sat_add(sat_mul(eta, row.unit_cost), row.constant_cost);
  }

  const AnalysisOptions& options_;
  int target_;
  Time target_cost_ = 0;
  Time self_header_cost_ = 0;
  const ArrivalTable* self_table_ = nullptr;
  const ArrivalModel* self_model_ = nullptr;
  std::vector<InterfererRow> rows_;
};

/// An unbounded result: only the reason is meaningful, so none of the
/// busy times computed on the way are kept.
LatencyResult unbounded(std::string reason) {
  LatencyResult result;
  result.reason = std::move(reason);
  return result;
}

/// The K_b search of Theorem 2 + Lemma 3 over a prebuilt kernel, with
/// warm-started fixed points.  Once kCertifyAfter activations have not
/// closed the window, a divergence certificate (when one exists) cuts
/// the search short of the cap at the first activation it covers.
LatencyResult run_latency_search(const BusyWindowKernel& kernel, const Chain& b,
                                 const AnalysisOptions& options) {
  LatencyResult result;
  result.wcl = 0;
  result.worst_q = 0;

  Count misses = 0;
  Time warm = 0;
  Count last_q = options.max_busy_windows;
  std::optional<DivergenceCertificate> certificate;
  for (Count q = 1; q <= last_q; ++q) {
    const std::optional<Time> bq = kernel.fixed_point(q, warm);
    if (!bq.has_value()) {
      return unbounded(util::cat("busy-time fixed point diverged at q=", q,
                                 " (processor overloaded or guard exceeded)"));
    }
    warm = *bq;
    result.busy_times.push_back(*bq);

    const Time latency = *bq - kernel.self_delta_minus(q);
    if (latency > result.wcl || result.worst_q == 0) {
      result.wcl = latency;
      result.worst_q = q;
    }
    if (b.deadline().has_value() && latency > *b.deadline()) ++misses;

    if (*bq <= kernel.self_delta_minus(q + 1)) {
      result.K = q;
      result.bounded = true;
      if (b.deadline().has_value()) {
        result.misses_per_window = misses;
        result.schedulable = result.wcl <= *b.deadline();
      }
      return result;
    }
    if (q == kCertifyAfter) {
      certificate = kernel.divergence_certificate();
      if (certificate.has_value()) last_q = std::max(q, certificate->from_q - 1);
    }
  }
  if (certificate.has_value()) {
    return unbounded(util::cat("busy window never closes: charged long-run load ",
                               wide_string(certificate->load_num), "/",
                               wide_string(certificate->load_den), " > 1"));
  }
  return unbounded(util::cat("no maximal busy window within ", options.max_busy_windows,
                             " activations (K_b search cap)"));
}

}  // namespace

std::string BusyTimeTerm::label(const System& system) const {
  const std::string& name = system.chain(chain).name();
  switch (kind) {
    case Kind::kDemand:
      return util::cat(q, " x C_", name, " (demand)");
    case Kind::kSelfHeader:
      return util::cat(name, " header pile-up (async self)");
    case Kind::kArbitrary:
      return util::cat(name, " — arbitrary interference");
    case Kind::kDeferredAsync:
      return util::cat(name, " — deferred async (header pile-up + one per segment)");
    case Kind::kDeferredSync:
      return util::cat(name, " — deferred sync (critical segment)");
  }
  return {};
}

std::optional<Time> busy_time(const System& system, const InterferenceContext& ctx, Count q,
                              const AnalysisOptions& options, const std::vector<int>& exclude) {
  WHARF_EXPECT(q >= 1, "busy_time requires q >= 1, got " << q);
  const BusyWindowKernel kernel(system, ctx, options, exclude);
  return kernel.fixed_point(q, 0);
}

std::vector<BusyTimeTerm> busy_time_breakdown(const System& system,
                                              const InterferenceContext& ctx, Count q, Time busy,
                                              const AnalysisOptions& options,
                                              const std::vector<int>& exclude) {
  const BusyWindowKernel kernel(system, ctx, options, exclude);
  return kernel.breakdown(q, busy);
}

LatencyResult latency_analysis(const System& system, int target, const AnalysisOptions& options,
                               const std::vector<int>& exclude) {
  const InterferenceContext ctx = make_interference_context(system, target);
  const BusyWindowKernel kernel(system, ctx, options, exclude);
  return run_latency_search(kernel, system.chain(target), options);
}

LatencyResult latency_analysis(const System& system, const InterferenceContext& ctx,
                               const AnalysisOptions& options, const std::vector<int>& exclude) {
  const BusyWindowKernel kernel(system, ctx, options, exclude);
  return run_latency_search(kernel, system.chain(ctx.target), options);
}

std::optional<Time> busy_time_with_combination(const System& system,
                                               const InterferenceContext& ctx, Count q,
                                               Time combination_cost,
                                               const AnalysisOptions& options) {
  WHARF_EXPECT(q >= 1, "busy_time_with_combination requires q >= 1, got " << q);
  WHARF_EXPECT(combination_cost >= 0, "combination cost must be >= 0");
  // Note: the paper's Eq. (3) literally writes eta_a(B_b(q)) (the *full*
  // busy time) inside the deferred-async term; we evaluate all eta terms
  // at the self-consistent fixed point B^c(q) <= B_b(q), which is the
  // standard busy-window argument and only tightens the bound.
  const BusyWindowKernel kernel(system, ctx, options, system.overload_indices());
  return kernel.fixed_point(q, 0, combination_cost);
}

Time exact_combination_slack(const System& system, const InterferenceContext& ctx, Count K,
                             Time max_cost, const AnalysisOptions& options) {
  WHARF_EXPECT(K >= 1, "exact_combination_slack requires K >= 1, got " << K);
  WHARF_EXPECT(max_cost >= 0, "max_cost must be >= 0");
  const Chain& b = system.chain(ctx.target);
  WHARF_EXPECT(b.deadline().has_value(),
               "exact_combination_slack requires chain '" << b.name() << "' to have a deadline");
  const Time deadline = *b.deadline();

  const BusyWindowKernel kernel(system, ctx, options, system.overload_indices());
  const auto schedulable_at = [&](Time cost) {
    // Warm-start across the q sweep of one probe (resets per cost:
    // different constants shift the fixed points).
    Time warm = 0;
    for (Count q = 1; q <= K; ++q) {
      const std::optional<Time> busy = kernel.fixed_point(q, warm, cost);
      if (!busy.has_value()) return false;
      warm = *busy;
      if (*busy - kernel.self_delta_minus(q) > deadline) return false;
    }
    return true;
  };

  if (!schedulable_at(0)) return -1;
  if (schedulable_at(max_cost)) return max_cost;
  // Largest schedulable cost in [0, max_cost): binary search on the
  // monotone predicate.
  Time lo = 0;              // schedulable
  Time hi = max_cost;       // unschedulable
  while (lo + 1 < hi) {
    const Time mid = lo + (hi - lo) / 2;
    if (schedulable_at(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Time typical_bound(const System& system, const InterferenceContext& ctx, Count q,
                   const AnalysisOptions& options) {
  const Chain& b = system.chain(ctx.target);
  WHARF_EXPECT(b.deadline().has_value(),
               "typical_bound requires chain '" << b.name() << "' to have a deadline");
  WHARF_EXPECT(q >= 1, "typical_bound requires q >= 1, got " << q);

  const BusyWindowKernel kernel(system, ctx, options, {});
  const Time window = sat_add(kernel.self_delta_minus(q), *b.deadline());
  return kernel.rhs(q, window, /*skip_overload=*/true);  // Eq. (4): Cover excluded
}

Time typical_slack(const System& system, const InterferenceContext& ctx, Count K,
                   const AnalysisOptions& options) {
  const Chain& b = system.chain(ctx.target);
  WHARF_EXPECT(b.deadline().has_value(),
               "typical_bound requires chain '" << b.name() << "' to have a deadline");
  WHARF_EXPECT(K >= 1, "typical_slack requires K >= 1, got " << K);
  const BusyWindowKernel kernel(system, ctx, options, {});
  Time slack = kTimeInfinity;
  for (Count q = 1; q <= K; ++q) {
    const Time bound = sat_add(kernel.self_delta_minus(q), *b.deadline());
    const Time load = kernel.rhs(q, bound, /*skip_overload=*/true);
    const Time slack_q = is_infinite(load) ? -options.divergence_guard : bound - load;
    slack = std::min(slack, slack_q);
  }
  return slack;
}

}  // namespace wharf
