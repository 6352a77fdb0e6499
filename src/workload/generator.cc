#include "workload/generator.h"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "common/random.h"

namespace sam {

namespace {

/// Ops used by the paper's generator.
const PredOp kRangeOps[] = {PredOp::kLe, PredOp::kEq, PredOp::kGe};

/// Uniformly samples `k` distinct indices from [0, n).
std::vector<size_t> SampleDistinct(Rng* rng, size_t n, size_t k) {
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  rng->Shuffle(&idx);
  idx.resize(std::min(k, n));
  return idx;
}

/// Per-column coverage state for the Figure 8 experiment: literals may only
/// come from the lowest `coverage_ratio` fraction of each column's domain
/// ("the ratio between the size of the range covered by the query workload
/// and the domain size of each column", §5.8). When a sampled tuple's value
/// lies outside the covered range, the literal is re-drawn from a random
/// tuple whose value for that column is inside it.
struct CoverageState {
  double ratio = 1.0;
  /// Per content column: rows whose value is inside the covered range.
  std::map<std::string, std::vector<size_t>> in_range_rows;
  /// Per content column: exclusive upper code bound of the covered range.
  std::map<std::string, int32_t> code_limit;
};

CoverageState BuildCoverage(const Table& table, double coverage_ratio) {
  CoverageState state;
  state.ratio = coverage_ratio;
  if (coverage_ratio >= 1.0) return state;
  for (const auto& cname : table.ContentColumnNames()) {
    const Column* col = table.FindColumn(cname);
    const int32_t limit = std::max<int32_t>(
        1, static_cast<int32_t>(static_cast<double>(col->dict_size()) *
                                coverage_ratio));
    state.code_limit[cname] = limit;
    auto& rows = state.in_range_rows[cname];
    for (size_t r = 0; r < col->num_rows(); ++r) {
      const int32_t c = col->CodeAt(r);
      if (c != kNullCode && c < limit) rows.push_back(r);
    }
  }
  return state;
}

/// Adds `n_filters` predicates on `table` using the literals of row `row`,
/// redirected through the coverage state when one is active.
void AddFiltersFromRow(Rng* rng, const Table& table, size_t row, size_t n_filters,
                       const CoverageState& coverage, Query* q) {
  const auto content = table.ContentColumnNames();
  const auto cols = SampleDistinct(rng, content.size(), n_filters);
  for (size_t ci : cols) {
    const Column* col = table.FindColumn(content[ci]);
    size_t literal_row = row;
    if (coverage.ratio < 1.0) {
      const auto limit_it = coverage.code_limit.find(content[ci]);
      if (limit_it != coverage.code_limit.end() &&
          col->CodeAt(row) >= limit_it->second) {
        const auto& rows = coverage.in_range_rows.at(content[ci]);
        if (rows.empty()) continue;  // Nothing in range: skip this filter.
        literal_row = rows[static_cast<size_t>(
            rng->UniformInt(0, static_cast<int64_t>(rows.size()) - 1))];
      }
    }
    const Value literal = col->ValueAt(literal_row);
    if (literal.is_null()) continue;
    Predicate p;
    p.table = table.name();
    p.column = content[ci];
    p.op = kRangeOps[rng->UniformInt(0, 2)];
    p.literal = literal;
    q->predicates.push_back(std::move(p));
  }
}

/// Convenience overload without coverage restriction.
void AddFiltersFromRow(Rng* rng, const Table& table, size_t row, size_t n_filters,
                       Query* q) {
  static const CoverageState kNoCoverage;
  AddFiltersFromRow(rng, table, row, n_filters, kNoCoverage, q);
}

/// Labels every query with its true cardinality in one batched pass. The
/// labels never influence generation, so deferring them keeps the query
/// stream identical to per-query labelling while letting the executor shard
/// the workload across the thread pool.
Status LabelWorkload(const Executor& executor, Workload* w) {
  SAM_ASSIGN_OR_RETURN(std::vector<int64_t> cards,
                       executor.ParallelCardinality(*w));
  for (size_t i = 0; i < w->size(); ++i) (*w)[i].cardinality = cards[i];
  return Status::OK();
}

}  // namespace

Result<Workload> GenerateSingleRelationWorkload(
    const Database& db, const std::string& table_name, const Executor& executor,
    const SingleRelationWorkloadOptions& options) {
  SAM_ASSIGN_OR_RETURN(const Table* table, db.GetTable(table_name));
  if (table->num_rows() == 0) {
    return Status::InvalidArgument("cannot generate workload on empty table");
  }
  Rng rng(options.seed);
  const CoverageState coverage = BuildCoverage(*table, options.coverage_ratio);
  const size_t n_content = table->ContentColumnNames().size();
  Workload out;
  out.reserve(options.num_queries);
  size_t attempts = 0;
  while (out.size() < options.num_queries) {
    if (++attempts > options.num_queries * 20 + 100) {
      return Status::InvalidArgument(
          "coverage_ratio leaves too few sampleable literals");
    }
    Query q;
    q.relations = {table_name};
    const size_t n_filters = std::min<size_t>(
        n_content,
        static_cast<size_t>(rng.UniformInt(
            static_cast<int64_t>(options.min_filters),
            static_cast<int64_t>(std::max(options.min_filters, options.max_filters)))));
    const size_t row = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(table->num_rows()) - 1));
    AddFiltersFromRow(&rng, *table, row, n_filters, coverage, &q);
    if (q.predicates.empty()) continue;
    out.push_back(std::move(q));
  }
  SAM_RETURN_NOT_OK(LabelWorkload(executor, &out));
  return out;
}

Result<Workload> GenerateMultiRelationWorkload(
    const Database& db, const Executor& executor,
    const MultiRelationWorkloadOptions& options) {
  const JoinGraph& graph = executor.join_graph();
  const auto roots = graph.Roots();
  if (roots.size() != 1) {
    return Status::InvalidArgument("multi-relation workload requires a tree schema");
  }
  const std::string root = roots[0];
  const auto children = graph.Children(root);
  Rng rng(options.seed);
  Workload out;
  out.reserve(options.num_queries);
  while (out.size() < options.num_queries) {
    Query q;
    const size_t n_joins = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(
                              std::min(options.max_joins, children.size()))));
    if (n_joins == 0) {
      // Single-relation query on a uniformly chosen relation.
      const auto& rels = graph.relations();
      q.relations = {rels[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(rels.size()) - 1))]};
    } else {
      q.relations = {root};
      for (size_t ci : SampleDistinct(&rng, children.size(), n_joins)) {
        q.relations.push_back(children[ci]);
      }
    }
    // Per-relation filter count in 0..#content columns; at least one filter
    // overall so the constraint is informative.
    for (const auto& rel : q.relations) {
      const Table* t = db.FindTable(rel);
      const size_t n_content = t->ContentColumnNames().size();
      const size_t n_filters = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(n_content)));
      if (n_filters == 0 || t->num_rows() == 0) continue;
      const size_t row = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(t->num_rows()) - 1));
      AddFiltersFromRow(&rng, *t, row, n_filters, &q);
    }
    if (q.predicates.empty() && q.relations.size() == 1) continue;
    out.push_back(std::move(q));
  }
  SAM_RETURN_NOT_OK(LabelWorkload(executor, &out));
  return out;
}

Result<Workload> GenerateJobLightWorkload(const Database& db,
                                          const Executor& executor,
                                          const JobLightWorkloadOptions& options) {
  const JoinGraph& graph = executor.join_graph();
  const auto roots = graph.Roots();
  if (roots.size() != 1) {
    return Status::InvalidArgument("JOB-light workload requires a tree schema");
  }
  const std::string root = roots[0];
  const auto children = graph.Children(root);
  Rng rng(options.seed);
  Workload out;
  out.reserve(options.num_queries);
  while (out.size() < options.num_queries) {
    Query q;
    q.relations = {root};
    const size_t n_joins = static_cast<size_t>(rng.UniformInt(
        static_cast<int64_t>(std::min(options.min_joins, children.size())),
        static_cast<int64_t>(std::min(options.max_joins, children.size()))));
    for (size_t ci : SampleDistinct(&rng, children.size(), n_joins)) {
      q.relations.push_back(children[ci]);
    }
    const size_t n_filters = 1 + static_cast<size_t>(rng.UniformInt(
                                     0, static_cast<int64_t>(options.max_filters) - 1));
    // Spread filters over the participating relations.
    for (size_t f = 0; f < n_filters; ++f) {
      const std::string& rel = q.relations[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(q.relations.size()) - 1))];
      const Table* t = db.FindTable(rel);
      if (t->num_rows() == 0) continue;
      const size_t row = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(t->num_rows()) - 1));
      AddFiltersFromRow(&rng, *t, row, 1, &q);
    }
    if (q.predicates.empty()) continue;
    out.push_back(std::move(q));
  }
  SAM_RETURN_NOT_OK(LabelWorkload(executor, &out));
  return out;
}

bool QueriesEqual(const Query& a, const Query& b) {
  if (a.relations != b.relations) return false;
  if (a.predicates.size() != b.predicates.size()) return false;
  auto key = [](const Predicate& p) {
    std::string k = p.table + "|" + p.column + "|" + PredOpToString(p.op) + "|" +
                    p.literal.ToString();
    for (const auto& v : p.in_list) {
      k += ',';
      k += v.ToString();
    }
    return k;
  };
  std::vector<std::string> ka, kb;
  for (const auto& p : a.predicates) ka.push_back(key(p));
  for (const auto& p : b.predicates) kb.push_back(key(p));
  std::sort(ka.begin(), ka.end());
  std::sort(kb.begin(), kb.end());
  return ka == kb;
}

namespace {

std::string CanonicalKey(const Query& q) {
  auto pred_key = [](const Predicate& p) {
    std::string k = p.table + "|" + p.column + "|" + PredOpToString(p.op) + "|" +
                    p.literal.ToString();
    for (const auto& v : p.in_list) {
      k += ',';
      k += v.ToString();
    }
    return k;
  };
  std::vector<std::string> keys;
  keys.reserve(q.predicates.size());
  for (const auto& p : q.predicates) keys.push_back(pred_key(p));
  std::sort(keys.begin(), keys.end());
  std::string out;
  for (const auto& r : q.relations) out += r + ";";
  out += "#";
  for (const auto& k : keys) out += k + ";";
  return out;
}

}  // namespace

Workload RemoveDuplicateQueries(const Workload& train, const Workload& test) {
  std::unordered_set<std::string> seen;
  seen.reserve(train.size());
  for (const auto& t : train) seen.insert(CanonicalKey(t));
  Workload out;
  for (const auto& q : test) {
    if (seen.count(CanonicalKey(q)) == 0) out.push_back(q);
  }
  return out;
}

}  // namespace sam
