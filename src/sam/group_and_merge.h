#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ar/model_schema.h"
#include "common/random.h"
#include "common/result.h"
#include "sam/sam_model.h"
#include "storage/spill.h"

namespace sam {

/// FOJ sample codes laid out [model column][sample], as in
/// `SamModel::FojSample::codes`. Columns a caller does not need may be empty.
using CodeColumns = std::vector<std::vector<int32_t>>;

/// \brief The inverse-probability weight of one relation (Eq. 4), planned
/// once instead of per sample.
///
/// Holds the relation's indicator column and the fanout columns of every
/// relation outside {T} ∪ Ancestors(T), in model-column order, so `Weight`
/// multiplies in the same order as `SamModel::InverseProbabilityWeight` and
/// returns the same double bit for bit.
class IpwPlan {
 public:
  IpwPlan() = default;
  IpwPlan(const ModelSchema& schema, const std::string& table);

  /// 0 when the relation is absent from sample `s` (indicator 0).
  double Weight(const CodeColumns& codes, size_t s) const;

 private:
  struct Fanout {
    size_t col = 0;
    int indicator = -1;  ///< The fanout relation's indicator, -1 if none.
  };
  int indicator_ = -1;
  std::vector<Fanout> fanouts_;
};

/// \brief Everything Group-and-Merge needs to know about one relation, fixed
/// by the model schema and the table layouts.
struct RelationPlan {
  std::string name;
  int64_t size = 0;  ///< Catalog |T|.
  bool keyed = false;
  /// Child relations, as indices into the plan vector.
  std::vector<size_t> children;
  /// Merge-group columns: Identifier(T.pk) (Theorem 2) when keyed, the
  /// content columns for an unkeyed leaf.
  std::vector<size_t> group_cols;
  IpwPlan ipw;

  /// One entry per layout column: the primary key, the foreign key, or a
  /// content column decoded from its model column.
  struct OutputColumn {
    enum class Kind { kPk, kFk, kContent };
    Kind kind = Kind::kContent;
    size_t model_col = 0;
  };
  std::vector<OutputColumn> columns;

  /// Decodes one output row of this relation from `sample`.
  std::vector<Value> DecodeRow(const ModelSchema& schema,
                               const CodeColumns& codes, uint32_t sample,
                               int64_t pk, int64_t fk, Rng* rng) const;
};

/// Plans every relation of a multi-relation model in topological order (the
/// root first). Fails with `NotImplemented` for a relation with more than one
/// foreign key, and with `InvalidArgument` for an unkeyed relation that has
/// children.
Result<std::vector<RelationPlan>> PlanRelations(const SamModel& sam);

/// Alg 2's scaling step: multiplies `w` by |T| / `mass`. `mass` is Σw for the
/// IPW weights; re-applied against a relation's incoming virtual mass it
/// keeps generated sizes at |T| when the parent's key assignment dropped
/// sub-threshold groups.
Status ScaleToTableSize(const RelationPlan& rel, double mass,
                        std::vector<double>* w);

/// \brief Where Group-and-Merge puts what it produces for one relation.
class MergeSink {
 public:
  virtual ~MergeSink() = default;
  /// One row decoded from `sample` with primary key `pk` (-1 when unkeyed)
  /// and foreign key `fk` (-1 at the root).
  virtual Status EmitRow(uint32_t sample, int64_t pk, int64_t fk) = 0;
  /// A positive share `fraction` of `sample` flows into child
  /// `RelationPlan::children[child]` under the parent key `pk`.
  virtual Status EmitChildVirtual(size_t child, uint32_t sample,
                                  double fraction, int64_t pk) = 0;
};

/// Merge-group key "<fk>|<code>,<code>,...," over `cols` of `sample`.
std::string GroupKey(int64_t fk, uint32_t sample,
                     const std::vector<size_t>& cols, const CodeColumns& codes);

/// Virtuals sharing (parent key, group-key codes), with their total mass.
struct MergeGroup {
  std::vector<std::pair<uint32_t, double>> members;  ///< (sample, fraction).
  double mass = 0.0;
  int64_t fk = -1;
  uint64_t key_hash = 0;  ///< Fnv1aHash of the group key.
};

/// Groups the positively weighted `virtuals` in first-appearance order.
std::vector<MergeGroup> BuildGroups(const std::vector<SpillVirtual>& virtuals,
                                    const std::vector<double>& w,
                                    const std::vector<size_t>& cols,
                                    const CodeColumns& codes);

/// Pass 1 of Group-and-Merge (Alg 3 lines 9-17) for a keyed relation: merges
/// within each group and assigns key `*next_pk` whenever the merged weight
/// reaches 1; a virtual heavier than 1 spans several keys. Each group's
/// sub-unit remainder is appended to `leftovers` and its digest to
/// `summaries`, both in group order.
Status MergeGroups(const RelationPlan& rel, const std::vector<MergeGroup>& groups,
                   const std::vector<double>& w, int64_t* next_pk,
                   MergeSink* sink, std::vector<LeftoverSet>* leftovers,
                   std::vector<GroupSummary>* summaries);

/// Pass 2: assigns keys to the heaviest leftover sets until the relation has
/// |T| keys. `leftovers` arrive in position order (partition, then index);
/// ties in weight keep that order.
Status AssignLeftovers(const RelationPlan& rel,
                       std::vector<LeftoverSet> leftovers,
                       const std::vector<double>& w, int64_t* next_pk,
                       MergeSink* sink);

/// Shortfall top-up after pass 2: when floating-point drift left fewer than
/// |T| keys, re-emits rows of the heaviest groups round-robin, ordered by
/// (mass desc, key hash, position). The topped-up keys carry no child mass.
Status TopUp(const RelationPlan& rel, std::vector<GroupSummary> summaries,
             int64_t* next_pk, MergeSink* sink);

/// \brief State an unkeyed leaf threads through its groups, owned by the
/// caller so it can span partitions (and checkpoints).
struct LeafCarry {
  double carry = 0;
  /// The last group seen, which receives the final sub-threshold row.
  bool last_valid = false;
  uint32_t last_sample = 0;
  int64_t last_fk = -1;
};

/// Emits round(mass) rows per leaf group, carrying the fractional remainder
/// across groups. With `last` set, a final carry of at least `threshold`
/// becomes one more row of the last group seen; then `carry->carry` and
/// `carry->last_valid` reset (the last sample and key are kept, as a
/// checkpoint records them).
Status EmitLeafGroups(const std::vector<MergeGroup>& groups, bool last,
                      double threshold, LeafCarry* carry, MergeSink* sink);

}  // namespace sam
