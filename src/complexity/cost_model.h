// The Ĉ cost model: estimated Kolmogorov complexity of expressions in bits
// (paper §3.1).
//
// A concept with prominence rank k costs log2(k) bits; chain-rule contexts
// narrow the ranking (once "mayor" is conveyed, only city mayors need to be
// discriminated). Per shape:
//
//   Ĉ(p(x,I))                   = l(p) + l(I | p)
//   Ĉ(p0(x,y) ∧ p1(y,I))        = l(p0) + l(p1 | p0⋈) + l(I | p0∧p1)
//   Ĉ(path + star leg p2(y,I2)) adds l(p2 | p0⋈) + l(I2 | p0∧p2)
//   Ĉ(p0(x,y) ∧ p1(x,y))        = l(p0) + l(p1 | p0 subject-join)
//   Ĉ(... ∧ p2(x,y))            adds l(p2 | p0 subject-join)
//   Ĉ(∧ᵢ ρᵢ)                    = Σᵢ Ĉ(ρᵢ)
//
// where p0⋈ is the first-to-second-argument join context of p0. The paper
// details the first three; the closed-shape charging is our documented
// interpretation (DESIGN.md §4). Two implementation modes follow §3.5.3:
// exact materialized rankings, or per-predicate power-law coefficients
// (Eq. 1) that estimate entity code lengths from conditional frequencies.

#pragma once

#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "complexity/prominence.h"
#include "complexity/rankings.h"
#include "query/expression.h"

namespace remi {

/// Configuration of the Ĉ estimator.
struct CostModelOptions {
  /// Entity prominence metric: Ĉfr or Ĉpr (paper §3.1).
  ProminenceMetric metric = ProminenceMetric::kFrequency;
  /// Use Eq. 1 fitted coefficients instead of exact entity ranks
  /// (paper §3.5.3 storage compression).
  bool use_fitted_entity_ranks = false;
  /// Condition predicate ranks on joins (§3.1 model). When false, the
  /// global predicate ranking is used everywhere (§3.5.3 notes the
  /// implementation evaluates predicates "against the same ranking").
  bool use_join_predicate_ranks = true;
};

/// \brief Computes Ĉ for subgraph expressions and conjunctions.
///
/// Owns the prominence provider and ranking service. Thread-safe; subgraph
/// costs are memoized.
class CostModel {
 public:
  /// Cost of the empty expression ⊤ and of unmatched concepts.
  static constexpr double kInfiniteCost =
      std::numeric_limits<double>::infinity();

  CostModel(const KnowledgeBase* kb, const CostModelOptions& options = {});

  /// Variant with an injected prominence provider (e.g. an external
  /// ranking such as search-engine hits, §6 future work).
  /// `options.metric` is ignored for entity rankings in this case.
  CostModel(const KnowledgeBase* kb, const CostModelOptions& options,
            std::unique_ptr<ProminenceProvider> provider);

  /// Ĉ(ρ) in bits; kInfiniteCost when a concept is unranked in its context
  /// (the expression then has no matches).
  double SubgraphCost(const SubgraphExpression& rho) const;

  /// Ĉ(e) = Σ Ĉ(ρᵢ); kInfiniteCost for ⊤ (paper's Ĉ(⊤) = ∞).
  double Cost(const Expression& e) const;

  // --- individual code lengths (exposed for tests and benches) -------------

  /// l(p) = log2 of the global predicate rank.
  double PredicateBits(TermId p) const;
  /// l(I | p).
  double ObjectBits(TermId obj, TermId p) const;
  /// l(S | p) for a subject constant (AMIE-style atoms p(S, y)).
  double SubjectBits(TermId subj, TermId p) const;
  /// l(q | p) in the first-to-second-argument join context.
  double ObjectJoinPredicateBits(TermId q, TermId p) const;
  /// l(q | p) in the subject-join context.
  double SubjectJoinPredicateBits(TermId q, TermId p) const;
  /// l(I | p0 ∧ p1).
  double PathObjectBits(TermId obj, TermId p0, TermId p1) const;

  const RankingService& rankings() const { return *rankings_; }
  const CostModelOptions& options() const { return options_; }
  const KnowledgeBase& kb() const { return *kb_; }

 private:
  double EntityBitsFromRanking(const ConditionalRanking& ranking,
                               TermId term) const;

  const KnowledgeBase* kb_;
  CostModelOptions options_;
  std::unique_ptr<ProminenceProvider> prominence_;
  std::unique_ptr<RankingService> rankings_;

  mutable std::mutex cost_mu_;
  mutable std::unordered_map<SubgraphExpression, double,
                             SubgraphExpressionHash>
      cost_cache_;
};

}  // namespace remi
