#include "sam/group_and_merge.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/hash.h"
#include "common/logging.h"
#include "obs/metrics_registry.h"

namespace sam {

IpwPlan::IpwPlan(const ModelSchema& schema, const std::string& table)
    : indicator_(schema.FindColumn(ModelColumnKind::kIndicator, table, table)) {
  std::vector<std::string> excluded = schema.join_graph().Ancestors(table);
  excluded.push_back(table);
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const ModelColumn& mc = schema.columns()[c];
    if (mc.kind != ModelColumnKind::kFanout) continue;
    if (std::find(excluded.begin(), excluded.end(), mc.table) != excluded.end()) {
      continue;
    }
    fanouts_.push_back(Fanout{
        c, schema.FindColumn(ModelColumnKind::kIndicator, mc.table, mc.table)});
  }
}

double IpwPlan::Weight(const CodeColumns& codes, size_t s) const {
  // Absent relations produce no base-relation sample.
  if (indicator_ >= 0 && codes[static_cast<size_t>(indicator_)][s] == 0) {
    return 0.0;
  }
  double denom = 1.0;
  for (const Fanout& f : fanouts_) {
    // Per §4.3.1: NULL relations contribute fanout 1.
    if (f.indicator >= 0 && codes[static_cast<size_t>(f.indicator)][s] == 0) {
      continue;
    }
    // Fanout code v encodes fanout v + 1 (ModelColumn::FanoutValueOf).
    denom *= static_cast<double>(static_cast<int64_t>(codes[f.col][s]) + 1);
  }
  return 1.0 / denom;
}

std::vector<Value> RelationPlan::DecodeRow(const ModelSchema& schema,
                                           const CodeColumns& codes,
                                           uint32_t sample, int64_t pk,
                                           int64_t fk, Rng* rng) const {
  std::vector<Value> row;
  row.reserve(columns.size());
  for (const OutputColumn& oc : columns) {
    switch (oc.kind) {
      case OutputColumn::Kind::kPk:
        row.emplace_back(pk);
        break;
      case OutputColumn::Kind::kFk:
        row.emplace_back(fk);
        break;
      case OutputColumn::Kind::kContent:
        row.push_back(schema.DecodeContent(schema.columns()[oc.model_col],
                                           codes[oc.model_col][sample], rng));
        break;
    }
  }
  return row;
}

namespace {

/// Theorem 2: Identifier(T.pk) = indicator + content columns of
/// {T} ∪ Ancestors(T), plus fanout columns of FK relations joining that set
/// (i.e. whose parent is in the set).
std::vector<size_t> IdentifierColumns(const ModelSchema& schema,
                                      const std::string& table) {
  const JoinGraph& graph = schema.join_graph();
  std::vector<std::string> set = graph.Ancestors(table);
  set.push_back(table);
  auto in_set = [&](const std::string& t) {
    return std::find(set.begin(), set.end(), t) != set.end();
  };
  std::vector<size_t> out;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const ModelColumn& mc = schema.columns()[c];
    const bool member = mc.kind == ModelColumnKind::kFanout
                            ? in_set(graph.Parent(mc.table))
                            : in_set(mc.table);
    if (member) out.push_back(c);
  }
  return out;
}

}  // namespace

Result<std::vector<RelationPlan>> PlanRelations(const SamModel& sam) {
  const ModelSchema& schema = sam.schema();
  const JoinGraph& graph = schema.join_graph();
  std::vector<RelationPlan> plans;
  std::unordered_map<std::string, size_t> index;
  for (const std::string& name : graph.TopologicalOrder()) {
    index[name] = plans.size();
    const auto it = std::find_if(
        sam.layouts().begin(), sam.layouts().end(),
        [&](const SamModel::TableLayout& l) { return l.name == name; });
    if (it == sam.layouts().end()) {
      return Status::Internal("no table layout recorded for relation '" + name +
                              "'");
    }
    const SamModel::TableLayout& layout = *it;
    if (layout.fks.size() > 1) {
      // Generation threads a single parent key per row; filling every FK
      // column with it would silently corrupt all but one of them. The join
      // graph rejects such schemas upstream, but guard here too in case a
      // layout arrives by another path.
      return Status::NotImplemented(
          "relation '" + name + "' has " + std::to_string(layout.fks.size()) +
          " foreign keys; generation supports tree-structured schemas with at "
          "most one foreign key per relation");
    }
    RelationPlan rel;
    rel.name = name;
    rel.size = schema.table_size(name);
    rel.keyed = !layout.pk.empty();
    rel.group_cols = rel.keyed
                         ? IdentifierColumns(schema, name)
                         : schema.ColumnsOf(ModelColumnKind::kContent, name);
    rel.ipw = IpwPlan(schema, name);
    for (const auto& cname : layout.column_names) {
      using Kind = RelationPlan::OutputColumn::Kind;
      RelationPlan::OutputColumn oc;
      if (rel.keyed && cname == layout.pk) {
        oc.kind = Kind::kPk;
      } else if (!layout.fks.empty() && layout.fks[0].column == cname) {
        oc.kind = Kind::kFk;
      } else {
        const int col = schema.FindColumn(ModelColumnKind::kContent, name, cname);
        if (col < 0) {
          return Status::Internal("content column missing from model: " + name +
                                  "." + cname);
        }
        oc.model_col = static_cast<size_t>(col);
      }
      rel.columns.push_back(oc);
    }
    plans.push_back(std::move(rel));
  }
  for (RelationPlan& rel : plans) {
    const std::vector<std::string> children = graph.Children(rel.name);
    if (!rel.keyed && !children.empty()) {
      return Status::InvalidArgument("relation '" + rel.name +
                                     "' has children but no primary key");
    }
    for (const auto& child : children) rel.children.push_back(index.at(child));
  }
  return plans;
}

Status ScaleToTableSize(const RelationPlan& rel, double mass,
                        std::vector<double>* w) {
  if (mass <= 0.0) {
    return Status::Internal("no usable sample mass for relation '" + rel.name +
                            "'");
  }
  const double scale = static_cast<double>(rel.size) / mass;
  for (double& v : *w) v *= scale;
  return Status::OK();
}

std::string GroupKey(int64_t fk, uint32_t sample,
                     const std::vector<size_t>& cols, const CodeColumns& codes) {
  std::string key = std::to_string(fk) + '|';
  for (size_t c : cols) {
    key += std::to_string(codes[c][sample]);
    key += ',';
  }
  return key;
}

std::vector<MergeGroup> BuildGroups(const std::vector<SpillVirtual>& virtuals,
                                    const std::vector<double>& w,
                                    const std::vector<size_t>& cols,
                                    const CodeColumns& codes) {
  std::vector<MergeGroup> groups;
  std::unordered_map<std::string, size_t> group_index;
  for (const auto& v : virtuals) {
    const double wv = w[v.sample] * v.fraction;
    if (wv <= 0.0) continue;
    const std::string key = GroupKey(v.fk_value, v.sample, cols, codes);
    auto [it, inserted] = group_index.try_emplace(key, groups.size());
    if (inserted) {
      groups.emplace_back();
      groups.back().fk = v.fk_value;
      groups.back().key_hash = Fnv1aHash(key);
    }
    MergeGroup& g = groups[it->second];
    g.members.emplace_back(v.sample, v.fraction);
    g.mass += wv;
  }
  return groups;
}

namespace {

/// Assigns key `*next_pk` to a merge set: one row from the first member,
/// then each member's consumed share flows down to every child.
Status AssignKey(const RelationPlan& rel,
                 const std::vector<LeftoverMember>& members, int64_t fk,
                 const std::vector<double>& w, int64_t* next_pk,
                 MergeSink* sink) {
  if (members.empty()) {
    return Status::Internal("empty merge set for relation '" + rel.name + "'");
  }
  SAM_RETURN_NOT_OK(sink->EmitRow(members.front().sample, *next_pk, fk));
  for (const auto& m : members) {
    const double sample_total = w[m.sample];
    const double fraction = sample_total > 0.0 ? m.take / sample_total : 0.0;
    // A zero share carries no mass to any child; it is never handed down.
    if (fraction <= 0.0) continue;
    for (size_t c = 0; c < rel.children.size(); ++c) {
      SAM_RETURN_NOT_OK(sink->EmitChildVirtual(c, m.sample, fraction, *next_pk));
    }
  }
  ++*next_pk;
  return Status::OK();
}

void RecordDroppedMass(double mass) {
  if (mass > 0.0 && obs::MetricsEnabled()) {
    obs::MetricsRegistry::Global()
        .GetGauge("sam.generate.leftover_mass_dropped")
        ->Add(mass);
  }
}

}  // namespace

Status MergeGroups(const RelationPlan& rel, const std::vector<MergeGroup>& groups,
                   const std::vector<double>& w, int64_t* next_pk,
                   MergeSink* sink, std::vector<LeftoverSet>* leftovers,
                   std::vector<GroupSummary>* summaries) {
  for (const MergeGroup& g : groups) {
    std::vector<LeftoverMember> set_to_merge;
    double weight_sum = 0.0;
    for (const auto& [sample, fraction] : g.members) {
      double remaining = w[sample] * fraction;
      while (remaining > 0.0) {
        const double take = std::min(remaining, 1.0 - weight_sum);
        set_to_merge.push_back(LeftoverMember{sample, take});
        weight_sum += take;
        remaining -= take;
        if (weight_sum >= 1.0 - 1e-12) {
          SAM_RETURN_NOT_OK(AssignKey(rel, set_to_merge, g.fk, w, next_pk, sink));
          set_to_merge.clear();
          weight_sum = 0.0;
        }
      }
    }
    if (weight_sum > 1e-9 && !set_to_merge.empty()) {
      leftovers->push_back(
          LeftoverSet{weight_sum, g.fk, std::move(set_to_merge)});
    }
    // A pure function of pre-assignment state, so the top-up order does not
    // depend on how far key assignment got before a resume.
    summaries->push_back(
        GroupSummary{g.mass, g.key_hash, g.members.front().first, g.fk});
  }
  return Status::OK();
}

Status AssignLeftovers(const RelationPlan& rel,
                       std::vector<LeftoverSet> leftovers,
                       const std::vector<double>& w, int64_t* next_pk,
                       MergeSink* sink) {
  // The scaled weights sum to |T|, so the sub-unit leftovers jointly account
  // for the keys pass 1 did not assign.
  std::stable_sort(leftovers.begin(), leftovers.end(),
                   [](const LeftoverSet& a, const LeftoverSet& b) {
                     return a.weight > b.weight;
                   });
  double dropped_mass = 0.0;
  for (const LeftoverSet& set : leftovers) {
    if (*next_pk >= rel.size) {
      dropped_mass += set.weight;
      continue;
    }
    SAM_RETURN_NOT_OK(AssignKey(rel, set.members, set.fk_value, w, next_pk, sink));
  }
  RecordDroppedMass(dropped_mass);
  return Status::OK();
}

Status TopUp(const RelationPlan& rel, std::vector<GroupSummary> summaries,
             int64_t* next_pk, MergeSink* sink) {
  if (*next_pk >= rel.size) return Status::OK();
  // In exact arithmetic the leftovers always cover the remaining keys;
  // floating-point drift can still leave a shortfall, and under-generating
  // would break Alg 2's size guarantee.
  const int64_t shortfall = rel.size - *next_pk;
  if (summaries.empty()) {
    return Status::Internal(
        "relation '" + rel.name + "' is " + std::to_string(shortfall) +
        " row(s) short of |T| with no merge groups to draw from");
  }
  std::stable_sort(summaries.begin(), summaries.end(),
                   [](const GroupSummary& a, const GroupSummary& b) {
                     if (a.mass != b.mass) return a.mass > b.mass;
                     return a.key_hash < b.key_hash;
                   });
  for (size_t i = 0; *next_pk < rel.size; i = (i + 1) % summaries.size()) {
    SAM_RETURN_NOT_OK(
        sink->EmitRow(summaries[i].sample, *next_pk, summaries[i].fk_value));
    ++*next_pk;
  }
  SAM_LOG(Warn) << "relation '" << rel.name << "': leftover merge sets ran "
                << "out " << shortfall << " row(s) short of |T|=" << rel.size
                << "; topped up from the heaviest groups";
  obs::MetricsRegistry::Global()
      .GetCounter("sam.generate.shortfall_rows")
      ->Add(static_cast<uint64_t>(shortfall));
  return Status::OK();
}

Status EmitLeafGroups(const std::vector<MergeGroup>& groups, bool last,
                      double threshold, LeafCarry* carry, MergeSink* sink) {
  for (const MergeGroup& g : groups) {
    const uint32_t sample = g.members.front().first;
    // Snap near-integer masses: accumulated 1/fanout products carry
    // floating-point drift, and a 2.99999... mass must emit 3 rows of *this*
    // tuple rather than leak the remainder into the next one.
    double mass = g.mass;
    const double rounded = std::round(mass);
    if (std::fabs(mass - rounded) < 1e-6) mass = rounded;
    carry->carry += mass;
    while (carry->carry >= 1.0) {
      SAM_RETURN_NOT_OK(sink->EmitRow(sample, -1, g.fk));
      carry->carry -= 1.0;
    }
    carry->last_valid = true;
    carry->last_sample = sample;
    carry->last_fk = g.fk;
  }
  if (last) {
    if (carry->carry >= threshold && carry->last_valid) {
      SAM_RETURN_NOT_OK(sink->EmitRow(carry->last_sample, -1, carry->last_fk));
    } else {
      RecordDroppedMass(carry->carry);
    }
    carry->carry = 0.0;
    carry->last_valid = false;
  }
  return Status::OK();
}

}  // namespace sam
