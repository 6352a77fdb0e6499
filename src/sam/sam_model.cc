#include "sam/sam_model.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <unordered_map>

#include "ar/estimator.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "sam/group_and_merge.h"

namespace sam {

Status ValidateSamOptions(const SamOptions& options) {
  if (options.generation_batch == 0) {
    return Status::InvalidArgument(
        "SamOptions.generation_batch must be positive");
  }
  if (options.foj_samples == 0) {
    return Status::InvalidArgument("SamOptions.foj_samples must be positive");
  }
  if (options.memory_cap_bytes <= 0) {
    return Status::InvalidArgument(
        "SamOptions.memory_cap_bytes must be positive");
  }
  if (options.generation_checkpoint_every <= 0) {
    return Status::InvalidArgument(
        "SamOptions.generation_checkpoint_every must be positive");
  }
  return Status::OK();
}

Result<std::unique_ptr<SamModel>> SamModel::Create(const Database& db,
                                                   const Workload& train,
                                                   const SchemaHints& hints,
                                                   int64_t foj_size,
                                                   const SamOptions& options) {
  SAM_RETURN_NOT_OK(ValidateSamOptions(options));
  SAM_ASSIGN_OR_RETURN(ModelSchema schema,
                       ModelSchema::Build(db, train, hints, foj_size));
  if (!options.column_order.empty()) {
    // Applied before the MADE model is constructed so its masks and the
    // sampling order both follow the requested AR ordering.
    SAM_RETURN_NOT_OK(schema.ReorderColumns(options.column_order));
  }
  auto sam = std::unique_ptr<SamModel>(new SamModel(std::move(schema), options));

  // Record the physical layout of every relation (column names/types and key
  // metadata) so generated tables mirror the originals.
  for (const auto& t : db.tables()) {
    TableLayout layout;
    layout.name = t.name();
    for (const auto& c : t.columns()) {
      layout.column_names.push_back(c.name());
      layout.column_types.push_back(c.type());
    }
    if (t.primary_key()) layout.pk = *t.primary_key();
    layout.fks = t.foreign_keys();
    sam->layouts_.push_back(std::move(layout));
  }

  sam->model_ = std::make_unique<MadeModel>(&sam->schema_, options.model);
  return sam;
}

Result<std::unique_ptr<SamModel>> SamModel::Train(
    const Database& db, const Workload& train, const SchemaHints& hints,
    int64_t foj_size, const SamOptions& options, const DpsCallback& callback) {
  SAM_ASSIGN_OR_RETURN(std::unique_ptr<SamModel> sam,
                       Create(db, train, hints, foj_size, options));
  SAM_ASSIGN_OR_RETURN(sam->stats_,
                       TrainDps(sam->model_.get(), train, options.training,
                                callback));
  return sam;
}

Result<double> SamModel::EstimateCardinality(const Query& q, size_t paths) const {
  ProgressiveEstimator estimator(model_.get(), paths,
                                 options_.generation_seed ^ 0xe57u);
  return estimator.EstimateCardinality(q);
}

void SamModel::SampleFojBatchInto(FojSample* out, size_t start, size_t batch,
                                  Rng* batch_rng) const {
  obs::TraceSpan batch_span("generate/foj_batch");
  static obs::Counter* foj_samples =
      obs::MetricsRegistry::Global().GetCounter("sam.foj.samples");
  foj_samples->Add(batch);
  const size_t n_cols = schema_.num_columns();

  // Indicator column index per FK relation, for NULL-consistency forcing.
  std::unordered_map<std::string, size_t> indicator_col;
  for (size_t c = 0; c < n_cols; ++c) {
    if (schema_.columns()[c].kind == ModelColumnKind::kIndicator) {
      indicator_col[schema_.columns()[c].table] = c;
    }
  }

  MadeModel::SamplerState state = model_->InitState(batch);
  // Sampled indicator codes of this batch, per FK relation.
  std::unordered_map<std::string, std::vector<int32_t>> batch_indicators;
  std::vector<int32_t> codes(batch);
  for (size_t col = 0; col < n_cols; ++col) {
    const ModelColumn& mc = schema_.columns()[col];
    const Matrix& probs = model_->CondProbs(state, col);
    for (size_t r = 0; r < batch; ++r) {
      // Sample straight from the probability row; the old per-row copy into
      // a scratch vector dominated the sampling profile on wide columns.
      int64_t pick = batch_rng->Categorical(probs.row(r), mc.domain_size);
      if (pick < 0) pick = 0;
      codes[r] = static_cast<int32_t>(pick);
    }
    if (options_.enforce_null_consistency &&
        mc.kind != ModelColumnKind::kIndicator) {
      const auto it = indicator_col.find(mc.table);
      if (it != indicator_col.end()) {
        // The relation's indicator may be ordered *after* this column, in
        // which case it has not been sampled yet and no forcing applies
        // (operator[] would otherwise materialise an empty vector and
        // ind[r] would read out of bounds).
        const auto bit = batch_indicators.find(mc.table);
        if (bit != batch_indicators.end() && bit->second.size() == batch) {
          const auto& ind = bit->second;
          for (size_t r = 0; r < batch; ++r) {
            if (ind[r] == 0) codes[r] = 0;  // NULL token / fanout value 1.
          }
        }
      }
    }
    if (mc.kind == ModelColumnKind::kIndicator) {
      batch_indicators[mc.table] = codes;
    }
    model_->Observe(&state, col, codes);
    for (size_t r = 0; r < batch; ++r) out->codes[col][start + r] = codes[r];
  }
}

SamModel::FojSample SamModel::SampleFojBatch(uint64_t base_seed,
                                             size_t batch_index,
                                             size_t rows) const {
  FojSample out;
  out.count = rows;
  out.codes.assign(schema_.num_columns(), std::vector<int32_t>(rows));
  Rng batch_rng(FojBatchSeed(base_seed, batch_index));
  SampleFojBatchInto(&out, 0, rows, &batch_rng);
  return out;
}

SamModel::FojSample SamModel::SampleFoj(size_t k, Rng* rng) const {
  obs::TraceSpan foj_span("generate/sample_foj");
  // `generation_batch` is validated positive in Create, but SampleFoj is
  // callable on its own; a zero batch would divide by zero below.
  SAM_CHECK(options_.generation_batch > 0)
      << "generation_batch must be positive";
  FojSample out;
  out.count = k;
  out.codes.assign(schema_.num_columns(), std::vector<int32_t>(k));

  // Sampling is embarrassingly parallel (§4.2): batches are independent, and
  // every batch derives its RNG from the caller seed by batch index (via
  // FojBatchSeed), so the sample is bit-identical to drawing its batches one
  // by one with SampleFojBatch, whatever the pool size. The model is only
  // read.
  const size_t batch = options_.generation_batch;
  const size_t batches = k / batch + (k % batch != 0);
  const uint64_t base_seed = rng->engine()();
  if (batches == 0) return out;
  ThreadPool pool(std::min<size_t>(
      batches, std::max(1u, std::thread::hardware_concurrency())));
  pool.ParallelFor(batches, [&](size_t i) {
    const size_t start = i * batch;
    Rng batch_rng(FojBatchSeed(base_seed, i));
    SampleFojBatchInto(&out, start, std::min(batch, k - start), &batch_rng);
  });
  return out;
}

double SamModel::InverseProbabilityWeight(const FojSample& foj,
                                          const std::string& table,
                                          size_t s) const {
  const JoinGraph& graph = schema_.join_graph();
  // Absent relations produce no base-relation sample.
  const int ind = schema_.FindColumn(ModelColumnKind::kIndicator, table, table);
  if (ind >= 0 && foj.codes[static_cast<size_t>(ind)][s] == 0) return 0.0;

  std::vector<std::string> excluded = graph.Ancestors(table);
  excluded.push_back(table);
  double denom = 1.0;
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    const ModelColumn& mc = schema_.columns()[c];
    if (mc.kind != ModelColumnKind::kFanout) continue;
    if (std::find(excluded.begin(), excluded.end(), mc.table) != excluded.end()) {
      continue;
    }
    // Per §4.3.1: NULL relations contribute fanout 1.
    const int t_ind =
        schema_.FindColumn(ModelColumnKind::kIndicator, mc.table, mc.table);
    if (t_ind >= 0 && foj.codes[static_cast<size_t>(t_ind)][s] == 0) continue;
    denom *= static_cast<double>(mc.FanoutValueOf(foj.codes[c][s]));
  }
  return 1.0 / denom;
}

Result<Database> SamModel::Generate() const {
  Rng rng(options_.generation_seed);
  if (!schema_.multi_relation()) return GenerateSingleRelation(&rng);
  return GenerateMultiRelation(&rng);
}

Result<Database> SamModel::GenerateSingleRelation(Rng* rng) const {
  // Algorithm 1: |T| uniform samples from the AR model.
  SAM_CHECK_EQ(layouts_.size(), 1u);
  const TableLayout& layout = layouts_[0];
  const size_t n = static_cast<size_t>(schema_.table_size(layout.name));
  const FojSample sample = SampleFoj(n, rng);

  Table table(layout.name);
  for (size_t ci = 0; ci < layout.column_names.size(); ++ci) {
    const int col = schema_.FindColumn(ModelColumnKind::kContent, layout.name,
                                       layout.column_names[ci]);
    if (col < 0) {
      return Status::Internal("generated column missing from model: " +
                              layout.column_names[ci]);
    }
    const ModelColumn& mc = schema_.columns()[static_cast<size_t>(col)];
    std::vector<Value> values;
    values.reserve(n);
    for (size_t r = 0; r < n; ++r) {
      values.push_back(
          schema_.DecodeContent(mc, sample.codes[static_cast<size_t>(col)][r], rng));
    }
    SAM_RETURN_NOT_OK(table.AddColumn(Column::FromValues(
        layout.column_names[ci], layout.column_types[ci], values)));
  }
  Database db;
  SAM_RETURN_NOT_OK(db.AddTable(std::move(table)));
  return db;
}

namespace {

/// Group-and-Merge sink of the in-RAM generator: rows and child virtuals
/// stay in memory, and every relation is one partition.
struct InMemorySink final : MergeSink {
  InMemorySink(const ModelSchema& schema, const std::vector<RelationPlan>& plans,
               const CodeColumns& codes,
               const std::vector<std::vector<double>>& scaled, Rng* rng)
      : schema(schema),
        plans(plans),
        codes(codes),
        scaled(scaled),
        rng(rng),
        rows(plans.size()),
        incoming(plans.size()),
        incoming_mass(plans.size(), 0.0) {}

  Status EmitRow(uint32_t sample, int64_t pk, int64_t fk) override {
    rows[rel].push_back(
        plans[rel].DecodeRow(schema, codes, sample, pk, fk, rng));
    return Status::OK();
  }

  Status EmitChildVirtual(size_t child, uint32_t sample, double fraction,
                          int64_t pk) override {
    const size_t c = plans[rel].children[child];
    incoming[c].push_back(SpillVirtual{sample, fraction, pk});
    incoming_mass[c] += scaled[c][sample] * fraction;
    return Status::OK();
  }

  const ModelSchema& schema;
  const std::vector<RelationPlan>& plans;
  const CodeColumns& codes;
  const std::vector<std::vector<double>>& scaled;  ///< IPW-scaled weights.
  Rng* rng;
  size_t rel = 0;  ///< The relation being generated (index into `plans`).
  std::vector<std::vector<std::vector<Value>>> rows;  ///< Per relation.
  std::vector<std::vector<SpillVirtual>> incoming;    ///< Per relation.
  std::vector<double> incoming_mass;                  ///< Per relation.
};

/// The "SAM w/o Group-and-Merge" ablation (§4.3.2's naive approach, §5.5):
/// the root is generated from its content alone, and every child row draws
/// a random root key with matching content — which is exactly what breaks
/// cross-child correlation (Figure 4).
Status GenerateWithViews(InMemorySink* sink) {
  const std::vector<RelationPlan>& plans = sink->plans;
  const CodeColumns& codes = sink->codes;
  const RelationPlan& root = plans[0];  // Topological order: the root first.
  for (size_t r = 1; r < plans.size(); ++r) {
    if (!plans[r].children.empty()) {
      return Status::NotImplemented(
          "the view-based ablation only supports depth-1 snowflakes");
    }
  }
  const std::vector<size_t> root_content =
      sink->schema.ColumnsOf(ModelColumnKind::kContent, root.name);
  auto content_key = [&](size_t s) {
    std::string key;
    for (size_t c : root_content) {
      key += std::to_string(codes[c][s]);
      key += ',';
    }
    return key;
  };
  std::unordered_map<std::string, double> root_mass;
  std::unordered_map<std::string, size_t> root_repr;
  const auto& root_w = sink->scaled[0];
  for (size_t s = 0; s < root_w.size(); ++s) {
    if (root_w[s] <= 0.0) continue;
    const std::string key = content_key(s);
    root_mass[key] += root_w[s];
    root_repr.emplace(key, s);
  }
  std::unordered_map<std::string, std::vector<int64_t>> keys_by_content;
  int64_t counter = 0;
  sink->rel = 0;
  for (const auto& [key, mass] : root_mass) {
    const int64_t copies = static_cast<int64_t>(std::llround(mass));
    for (int64_t i = 0; i < copies; ++i) {
      SAM_RETURN_NOT_OK(sink->EmitRow(
          static_cast<uint32_t>(root_repr[key]), counter, -1));
      keys_by_content[key].push_back(counter);
      ++counter;
    }
  }
  for (size_t r = 1; r < plans.size(); ++r) {
    sink->rel = r;
    const auto& w = sink->scaled[r];
    double carry = 0.0;
    for (size_t s = 0; s < w.size(); ++s) {
      if (w[s] <= 0.0) continue;
      const auto it = keys_by_content.find(content_key(s));
      if (it == keys_by_content.end() || it->second.empty()) continue;
      carry += w[s];
      while (carry >= 1.0) {
        const auto& keys = it->second;
        const int64_t fk = keys[static_cast<size_t>(sink->rng->UniformInt(
            0, static_cast<int64_t>(keys.size()) - 1))];
        SAM_RETURN_NOT_OK(sink->EmitRow(static_cast<uint32_t>(s), -1, fk));
        carry -= 1.0;
      }
    }
  }
  return Status::OK();
}

/// Alg 3 down the join tree with the shared Group-and-Merge core: each
/// relation is the out-of-core pipeline's single partition, followed by
/// pass 2 and the top-up.
Status GroupAndMergeInMemory(double leaf_threshold, InMemorySink* sink) {
  const std::vector<RelationPlan>& plans = sink->plans;
  for (size_t r = 0; r < plans.size(); ++r) {
    const RelationPlan& rel = plans[r];
    obs::TraceSpan rel_span("generate/relation/" + rel.name);
    sink->rel = r;
    std::vector<double> w = sink->scaled[r];
    std::vector<SpillVirtual> virtuals;
    double incoming = 0.0;
    if (r == 0) {  // The root: every sample at fraction 1, no parent key.
      for (size_t s = 0; s < w.size(); ++s) {
        incoming += w[s];
        if (w[s] > 0.0) {
          virtuals.push_back(SpillVirtual{static_cast<uint32_t>(s), 1.0, -1});
        }
      }
    } else {
      virtuals = std::move(sink->incoming[r]);
      incoming = sink->incoming_mass[r];
    }
    SAM_RETURN_NOT_OK(ScaleToTableSize(rel, incoming, &w));
    const std::vector<MergeGroup> groups =
        BuildGroups(virtuals, w, rel.group_cols, sink->codes);
    if (!rel.keyed) {
      LeafCarry carry;
      SAM_RETURN_NOT_OK(
          EmitLeafGroups(groups, /*last=*/true, leaf_threshold, &carry, sink));
      continue;
    }
    int64_t next_pk = 0;
    std::vector<LeftoverSet> leftovers;
    std::vector<GroupSummary> summaries;
    SAM_RETURN_NOT_OK(MergeGroups(rel, groups, w, &next_pk, sink, &leftovers,
                                  &summaries));
    SAM_RETURN_NOT_OK(
        AssignLeftovers(rel, std::move(leftovers), w, &next_pk, sink));
    SAM_RETURN_NOT_OK(TopUp(rel, std::move(summaries), &next_pk, sink));
  }
  return Status::OK();
}

}  // namespace

Result<Database> SamModel::GenerateMultiRelation(Rng* rng) const {
  // ---- Step 1 (Alg 2): sample k FOJ tuples.
  const FojSample foj = SampleFoj(options_.foj_samples, rng);
  return GenerateFromFoj(foj, rng);
}

Result<Database> SamModel::GenerateFromFoj(const FojSample& foj, Rng* rng) const {
  SAM_ASSIGN_OR_RETURN(const std::vector<RelationPlan> plans,
                       PlanRelations(*this));

  // ---- Step 2+3 (Alg 2): inverse probability weighting, then scaling.
  std::vector<std::vector<double>> scaled(plans.size(),
                                          std::vector<double>(foj.count));
  {
    obs::TraceSpan ipw_span("generate/ipw_scaling");
    for (size_t r = 0; r < plans.size(); ++r) {
      double sum = 0.0;
      for (size_t s = 0; s < foj.count; ++s) {
        scaled[r][s] = plans[r].ipw.Weight(foj.codes, s);
        sum += scaled[r][s];
      }
      SAM_RETURN_NOT_OK(ScaleToTableSize(plans[r], sum, &scaled[r]));
    }
  }

  // ---- Step 4: join-key assignment.
  InMemorySink sink(schema_, plans, foj.codes, scaled, rng);
  if (options_.use_group_and_merge) {
    SAM_RETURN_NOT_OK(
        GroupAndMergeInMemory(options_.leftover_key_threshold, &sink));
  } else {
    SAM_RETURN_NOT_OK(GenerateWithViews(&sink));
  }

  // ---- Assemble the database.
  Database db;
  for (const auto& layout : layouts_) {
    const auto plan = std::find_if(
        plans.begin(), plans.end(),
        [&](const RelationPlan& p) { return p.name == layout.name; });
    if (plan == plans.end()) {
      return Status::Internal("relation '" + layout.name +
                              "' is not in the join graph");
    }
    const auto& table_rows = sink.rows[static_cast<size_t>(plan - plans.begin())];
    Table table(layout.name);
    if (obs::MetricsEnabled()) {
      auto& reg = obs::MetricsRegistry::Global();
      reg.GetGauge("sam.generate.rows." + layout.name)
          ->Set(static_cast<double>(table_rows.size()));
      reg.GetGauge("sam.generate.target_rows." + layout.name)
          ->Set(static_cast<double>(schema_.table_size(layout.name)));
    }
    for (size_t ci = 0; ci < layout.column_names.size(); ++ci) {
      std::vector<Value> values;
      values.reserve(table_rows.size());
      for (const auto& row : table_rows) values.push_back(row[ci]);
      SAM_RETURN_NOT_OK(table.AddColumn(Column::FromValues(
          layout.column_names[ci], layout.column_types[ci], values)));
    }
    if (!layout.pk.empty()) SAM_RETURN_NOT_OK(table.SetPrimaryKey(layout.pk));
    for (const auto& fk : layout.fks) {
      SAM_RETURN_NOT_OK(table.AddForeignKey(fk));
    }
    SAM_RETURN_NOT_OK(db.AddTable(std::move(table)));
  }
  return db;
}

}  // namespace sam
