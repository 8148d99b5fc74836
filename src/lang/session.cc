#include "lang/session.h"

#include <algorithm>
#include <filesystem>

#include "analysis/redundancy.h"
#include "common/parallel.h"
#include "lang/compiler.h"
#include "lineage/serialize.h"
#include "persist/lineage_store.h"
#include "persist/query.h"

namespace lima {

LimaSession::LimaSession(LimaConfig config)
    : config_(std::move(config)),
      cache_(std::make_shared<LineageCache>(config_, &stats_)),
      context_(&config_, nullptr, cache_.get(), &dedup_registry_, &stats_) {
  context_.set_print_stream(&output_);
  ParallelBudget::Global().set_capacity(
      ResolveMaxParallelism(config_.max_parallelism));
  context_.EnableMemoryAccounting();
  if (config_.profile) {
    context_.set_profiler(&profile_);
    cache_->set_event_log(&cache_events_);
  }
}

LimaSession::LimaSession(LimaConfig config,
                         std::shared_ptr<LineageCache> shared_cache)
    : config_(std::move(config)),
      cache_(std::move(shared_cache)),
      shared_cache_(true),
      context_(&config_, nullptr, cache_.get(), &dedup_registry_, &stats_) {
  context_.set_print_stream(&output_);
  ParallelBudget::Global().set_capacity(
      ResolveMaxParallelism(config_.max_parallelism));
  context_.EnableMemoryAccounting();
  // A shared cache is not wired to this session's private event log even
  // under --profile: several sessions would race to attach theirs. Attach a
  // log explicitly via cache->set_event_log() when one is wanted.
  if (config_.profile) context_.set_profiler(&profile_);
}

Status LimaSession::Run(const std::string& script) {
  LIMA_ASSIGN_OR_RETURN(std::unique_ptr<Program> program,
                        CompileScript(script, config_));
  return Run(std::shared_ptr<const Program>(std::move(program)));
}

Status LimaSession::Run(std::shared_ptr<const Program> program) {
  if (config_.verify_mode != VerifyMode::kOff) {
    last_verify_report_ = VerifyProgram(*program, MakeVerifyOptions());
    if (config_.verify_mode == VerifyMode::kStrict &&
        !last_verify_report_.ok()) {
      return Status::CompileError("program verification failed\n" +
                                  last_verify_report_.ToString());
    }
  }
  context_.set_program(program.get());
  // Register the driving thread as a budget holder for the duration of the
  // run: intra-op fair shares account for it, and a concurrent session or
  // serve request sees this one's unit as in use.
  ParallelBudget::Lease self = ParallelBudget::Global().RegisterThread();
  Status status = program->Execute(&context_);
  programs_.push_back(std::move(program));
  return status;
}

Result<VerifyReport> LimaSession::Verify(const std::string& script) {
  LIMA_ASSIGN_OR_RETURN(std::unique_ptr<Program> program,
                        CompileScript(script, config_));
  last_verify_report_ = VerifyProgram(*program, MakeVerifyOptions());
  return last_verify_report_;
}

VerifyOptions LimaSession::MakeVerifyOptions() const {
  VerifyOptions options;
  options.check_shapes = true;
  options.check_redundancy = config_.redundancy_check;
  for (const auto& [name, value] : context_.symbols().variables()) {
    options.assume_defined.push_back(name);
    if (value != nullptr && value->type() == DataType::kMatrix) {
      const MatrixPtr& m =
          static_cast<const MatrixData*>(value.get())->matrix();
      options.assume_matrix_names.push_back(name);
      options.assume_matrix_dims.emplace_back(m->rows(), m->cols());
    }
  }
  return options;
}

Result<ShapeAnalysis> LimaSession::AnalyzeShapes(const std::string& script) {
  LIMA_ASSIGN_OR_RETURN(std::unique_ptr<Program> program,
                        CompileScript(script, config_));
  std::vector<ShapeAssumption> assumptions;
  for (const auto& [name, value] : context_.symbols().variables()) {
    if (value != nullptr && value->type() == DataType::kMatrix) {
      const MatrixPtr& m =
          static_cast<const MatrixData*>(value.get())->matrix();
      assumptions.push_back(
          {name, ShapeInfo::Matrix(Dim::Const(m->rows()),
                                   Dim::Const(m->cols()))});
    } else {
      assumptions.push_back({name, ShapeInfo::Scalar()});
    }
  }
  ShapeAnalysis analysis = InferShapes(*program, assumptions);
  programs_.push_back(std::move(program));
  return analysis;
}

void LimaSession::BindMatrix(const std::string& name, Matrix matrix) {
  context_.BindInput(name, MakeMatrixData(std::move(matrix)));
}

void LimaSession::BindMatrix(const std::string& name, MatrixPtr matrix) {
  context_.BindInput(name, MakeMatrixData(std::move(matrix)));
}

void LimaSession::BindScalar(const std::string& name, ScalarValue value) {
  context_.BindInput(name, MakeScalarData(std::move(value)));
}

void LimaSession::BindDouble(const std::string& name, double value) {
  BindScalar(name, ScalarValue::Double(value));
}

Result<MatrixPtr> LimaSession::GetMatrix(const std::string& name) const {
  LIMA_ASSIGN_OR_RETURN(DataPtr data, context_.symbols().Get(name));
  return AsMatrix(data);
}

Result<ScalarValue> LimaSession::GetScalar(const std::string& name) const {
  LIMA_ASSIGN_OR_RETURN(DataPtr data, context_.symbols().Get(name));
  return AsScalar(data);
}

Result<double> LimaSession::GetDouble(const std::string& name) const {
  LIMA_ASSIGN_OR_RETURN(DataPtr data, context_.symbols().Get(name));
  return AsNumber(data);
}

Result<std::string> LimaSession::GetLineage(const std::string& name) const {
  LineageItemPtr item = context_.lineage().Get(name);
  if (item == nullptr) {
    return Status::RuntimeError("no lineage traced for variable: " + name);
  }
  return SerializeLineage(item);
}

LineageItemPtr LimaSession::GetLineageItem(const std::string& name) const {
  return context_.lineage().Get(name);
}

Result<int64_t> LimaSession::PersistLineage(const std::string& dir) {
  const std::string& store = dir.empty() ? config_.store_dir : dir;
  if (store.empty()) {
    return Status::Invalid(
        "PersistLineage requires a store directory (config.store_dir)");
  }
  // Deterministic record order: variables sorted by name, so repeated
  // persists of the same session state produce identical segments.
  std::vector<std::pair<std::string, LineageItemPtr>> traced;
  for (const auto& [name, item] : context_.lineage().variables()) {
    if (item != nullptr) traced.emplace_back(name, item);
  }
  std::sort(traced.begin(), traced.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (traced.empty()) {
    return Status::Invalid("no lineage traced in this session");
  }
  std::error_code ec;
  std::filesystem::create_directories(store, ec);
  if (ec) return Status::IoError("cannot create store dir " + store);
  persist::LineageStoreWriter writer;
  for (const auto& [name, item] : traced) {
    writer.AppendLineage(name, item);
  }
  std::string path =
      store + "/" +
      persist::SegmentFileName(persist::NextSegmentIndex(store));
  LIMA_RETURN_NOT_OK(writer.Seal(path));
  return writer.num_lineage_records();
}

Result<std::string> LimaSession::LineageQuery(const std::string& query,
                                              const std::string& dir) const {
  const std::string& store = dir.empty() ? config_.store_dir : dir;
  return persist::RunLineageQuery(store, query);
}

lima::ProfileReport LimaSession::ProfileReport() const {
  std::vector<std::pair<std::string, std::string>> config_info = {
      {"reuse_mode", ReuseModeToString(config_.reuse_mode)},
      {"eviction_policy", EvictionPolicyToString(config_.eviction_policy)},
      {"cache_budget_bytes", std::to_string(config_.cache_budget_bytes)},
      {"spilling", config_.enable_spilling ? "on" : "off"},
      {"parfor_workers", std::to_string(config_.parfor_workers)},
      {"max_parallelism",
       std::to_string(ResolveMaxParallelism(config_.max_parallelism))},
      {"profile", config_.profile ? "on" : "off"},
      {"cache_shards", std::to_string(cache_->num_shards())},
      {"shared_cache", shared_cache_ ? "on" : "off"},
  };
  std::vector<lima::ProfileReport::ShardRow> shard_rows;
  for (const CacheShardStats& s : cache_->ShardStatsSnapshot()) {
    lima::ProfileReport::ShardRow row;
    row.shard = s.shard;
    row.counters = {
        {"entries", s.entries},
        {"resident_bytes", s.resident_bytes},
        {"probes", s.probes},
        {"hits", s.hits},
        {"misses", s.misses},
        {"placeholder_waits", s.placeholder_waits},
        {"placeholder_steals", s.placeholder_steals},
        {"evictions", s.evictions},
        {"spills", s.spills},
        {"restores", s.restores},
    };
    shard_rows.push_back(std::move(row));
  }
  std::vector<lima::ProfileReport::TenantRow> tenant_rows;
  for (const CacheTenantStats& t : cache_->TenantStatsSnapshot()) {
    lima::ProfileReport::TenantRow row;
    row.tenant = t.tenant;
    row.counters = {
        {"budget_bytes", t.budget_bytes},
        {"resident_bytes", t.resident_bytes},
        {"entries", t.entries},
        {"probes", t.probes},
        {"hits", t.hits},
        {"misses", t.misses},
        {"cross_tenant_hits", t.cross_tenant_hits},
        {"puts", t.puts},
        {"evictions", t.evictions},
    };
    tenant_rows.push_back(std::move(row));
  }
  std::vector<std::pair<std::string, int64_t>> static_plan;
  if (config_.redundancy_check) {
    int64_t instrs = 0, must = 0, worthwhile = 0, redundant = 0, cross = 0;
    int64_t fusion_applied = 0, fusion_rejected = 0;
    for (const auto& program : programs_) {
      const StaticPlan& plan = program->static_plan();
      instrs += plan.num_instructions;
      must += plan.num_must_compute;
      worthwhile += plan.num_probe_worthwhile;
      redundant += plan.num_redundant;
      cross += plan.num_cross_block_redundant;
      fusion_applied += plan.num_fusion_applied();
      fusion_rejected += plan.num_fusion_rejected();
    }
    static_plan = {
        {"programs", static_cast<int64_t>(programs_.size())},
        {"instructions", instrs},
        {"must_compute", must},
        {"probe_worthwhile", worthwhile},
        {"redundant_in_program", redundant},
        {"cross_block_redundant", cross},
        {"fusion_applied", fusion_applied},
        {"fusion_rejected", fusion_rejected},
    };
  }
  return BuildProfileReport(profile_, &cache_events_, stats_.ToPairs(),
                            std::move(config_info), std::move(shard_rows),
                            std::move(tenant_rows), std::move(static_plan));
}

std::string LimaSession::StaticPlanReport(const std::string& format) const {
  const bool json = format == "json";
  std::ostringstream out;
  if (json) {
    out << "{\n  \"redundancy_check\": "
        << (config_.redundancy_check ? "true" : "false")
        << ",\n  \"programs\": [\n";
    for (size_t i = 0; i < programs_.size(); ++i) {
      std::istringstream plan(StaticPlanToJson(programs_[i]->static_plan()));
      std::string line;
      bool first = true;
      while (std::getline(plan, line)) {
        out << (first ? "" : "\n") << "    " << line;
        first = false;
      }
      out << (i + 1 < programs_.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"runtime\": {"
        << "\"cache_probes\": " << stats_.cache_probes.load()
        << ", \"cache_hits\": " << stats_.cache_hits.load()
        << ", \"cache_misses\": " << stats_.cache_misses.load()
        << ", \"partial_reuse_hits\": " << stats_.partial_reuse_hits.load()
        << ", \"probe_disabled_static\": "
        << stats_.probe_disabled_static.load() << "}\n}\n";
  } else {
    for (size_t i = 0; i < programs_.size(); ++i) {
      out << "--- program " << i << " ---\n"
          << StaticPlanToText(programs_[i]->static_plan());
    }
    out << "--- runtime ---\n"
        << "probes=" << stats_.cache_probes.load()
        << " hits=" << stats_.cache_hits.load()
        << " misses=" << stats_.cache_misses.load()
        << " partial=" << stats_.partial_reuse_hits.load()
        << " probe_disabled_static=" << stats_.probe_disabled_static.load()
        << "\n";
  }
  return out.str();
}

std::string LimaSession::ConsumeOutput() {
  std::string out = output_.str();
  output_.str("");
  return out;
}

void LimaSession::ClearVariables() {
  context_.symbols() = SymbolTable();
  // The assignment dropped every binding (and the accounting hook) without
  // per-variable removals; zero the gauge and re-install the hook.
  stats_.live_bytes.store(0, std::memory_order_relaxed);
  context_.EnableMemoryAccounting();
  context_.lineage().Clear();
}

}  // namespace lima
